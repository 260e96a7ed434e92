package reorder

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// mapOracle is the map-backed reorder loop both sinks ran before the
// ring: buffer at or past next, play in order, and on overflow scan every
// key for the minimum and skip to it.
type mapOracle struct {
	buf     map[uint64]int
	next    uint64
	limit   int
	skipped int64
}

func newMapOracle(limit int) *mapOracle {
	return &mapOracle{buf: make(map[uint64]int), limit: limit}
}

func (o *mapOracle) arrive(seq uint64, v int) (played []uint64) {
	if seq >= o.next {
		o.buf[seq] = v
	}
	for {
		if _, ok := o.buf[o.next]; ok {
			delete(o.buf, o.next)
			played = append(played, o.next)
			o.next++
			continue
		}
		if len(o.buf) >= o.limit {
			min := uint64(math.MaxUint64)
			for seq := range o.buf {
				if seq < min {
					min = seq
				}
			}
			o.skipped += int64(min - o.next)
			o.next = min
			continue
		}
		return played
	}
}

// ringArrive is one sink arrival through the ring: offer, then drain.
// Every played value must be the latest one offered for its seq, and
// what Arrive hands back must be the offer itself when seq is late, or
// the offer it replaced. Each value played or handed back is counted in
// fates, indexed by value.
func ringArrive(t *testing.T, r *Ring[int], seq uint64, v int, vals map[uint64]int, fates []int) (played []uint64) {
	t.Helper()
	late := seq < r.Next()
	prev, buffered := vals[seq]
	vals[seq] = v
	out, ok := r.Arrive(seq, v)
	switch {
	case late && (!ok || out != v):
		t.Fatalf("late seq %d: Arrive handed back %d, %v; want the offer %d", seq, out, ok, v)
	case !late && buffered && (!ok || out != prev):
		// A seq at or past next that was offered before is still buffered.
		t.Fatalf("repeat seq %d: Arrive handed back %d, %v; want the replaced %d", seq, out, ok, prev)
	case !late && !buffered && ok:
		t.Fatalf("new seq %d: Arrive handed back %d", seq, out)
	}
	if ok {
		fates[out]++
	}
	for {
		s, got, ok := r.Play()
		if !ok {
			return played
		}
		if want := vals[s]; got != want {
			t.Fatalf("seq %d played value %d, want the latest offered %d", s, got, want)
		}
		fates[got]++
		played = append(played, s)
	}
}

// checkAgainstOracle feeds seqs to a ring and the oracle and fails at the
// first arrival after which they disagree on what played, what was
// skipped or what is buffered. At the end it checks conservation: every
// value offered was played, handed back by Arrive or, still buffered,
// handed to Reset's discard — exactly once.
func checkAgainstOracle(t *testing.T, limit int, seqs []uint64) {
	t.Helper()
	r, o := New[int](limit), newMapOracle(limit)
	vals := make(map[uint64]int) // the latest value offered per seq
	fates := make([]int, len(seqs))
	for i, seq := range seqs {
		got := ringArrive(t, r, seq, i, vals, fates)
		want := o.arrive(seq, i)
		if !slices.Equal(got, want) || r.Skipped() != o.skipped || r.Len() != len(o.buf) || r.Next() != o.next {
			t.Fatalf("cap %d, arrival %d (seq %d): ring played %v skipped %d buffered %d next %d; "+
				"oracle played %v skipped %d buffered %d next %d",
				limit, i, seq, got, r.Skipped(), r.Len(), r.Next(), want, o.skipped, len(o.buf), o.next)
		}
	}
	discarded := 0
	r.Reset(0, 0, func(v int) { fates[v]++; discarded++ })
	if discarded != len(o.buf) {
		t.Fatalf("cap %d: Reset discarded %d values, the oracle buffers %d", limit, discarded, len(o.buf))
	}
	for v, n := range fates {
		if n != 1 {
			t.Fatalf("cap %d: value %d (seq %d) was accounted for %d times, want once", limit, v, seqs[v], n)
		}
	}
}

// TestRingMatchesMapOracle: across caps and arrival patterns — in order,
// shuffled windows, duplicates, late arrivals, far-ahead seqs — the ring
// plays, skips and buffers exactly as the map loop did after every
// arrival.
func TestRingMatchesMapOracle(t *testing.T) {
	cases := []struct {
		name  string
		limit int
		seqs  []uint64
	}{
		{"in order", 4, []uint64{0, 1, 2, 3, 4, 5}},
		{"reversed within cap", 8, []uint64{5, 4, 3, 2, 1, 0}},
		{"overflow skips the gap", 3, []uint64{2, 3, 4, 1, 0, 5}},
		{"duplicate does not count twice", 2, []uint64{3, 3, 3, 1, 0, 2}},
		{"late after skip", 1, []uint64{5, 0, 1, 6, 2}},
		{"far ahead grows the ring", 4, []uint64{1000, 3, 70, 0, 1, 2, 5000, 4}},
		{"cap one plays every arrival", 1, []uint64{9, 3, 12, 11, 40}},
		{"replacement keeps latest value", 3, []uint64{2, 1, 2, 1, 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkAgainstOracle(t, c.limit, c.seqs) })
	}
	rng := rand.New(rand.NewPCG(7, 11))
	for i := 0; i < 300; i++ {
		limit := 1 + rng.IntN(64)
		checkAgainstOracle(t, limit, randomArrivals(rng, 400))
	}
}

// randomArrivals is a shuffled stream with duplicates, late repeats and
// far-ahead seqs mixed in.
func randomArrivals(rng *rand.Rand, n int) []uint64 {
	window := 1 + rng.IntN(96)
	seqs := make([]uint64, 0, n)
	for base := uint64(0); len(seqs) < n; base += uint64(window) {
		for _, j := range rng.Perm(window) {
			seq := base + uint64(j)
			switch p := rng.IntN(100); {
			case p < 10: // lost
				continue
			case p < 15: // duplicate
				seqs = append(seqs, seq)
			case p < 20: // a late repeat of something long gone
				seqs = append(seqs, seq/2)
			case p < 22: // far ahead
				seqs = append(seqs, seq+uint64(rng.IntN(5000)))
			}
			seqs = append(seqs, seq)
		}
	}
	return seqs
}

// FuzzReorder decodes the input as a cap byte followed by little-endian
// u16 seqs and checks the ring against the map oracle after every
// arrival, and that every arrived value is played, displaced, refused
// or still buffered exactly once. The seed corpus is in
// testdata/fuzz/FuzzReorder.
func FuzzReorder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		limit := 1 + int(data[0]%64)
		data = data[1:]
		seqs := make([]uint64, 0, len(data)/2)
		for ; len(data) >= 2; data = data[2:] {
			seqs = append(seqs, uint64(binary.LittleEndian.Uint16(data)))
		}
		checkAgainstOracle(t, limit, seqs)
	})
}

// TestRingClearsPlayedSlots: a played value is no longer referenced by
// the ring, so it cannot pin what it points to.
func TestRingClearsPlayedSlots(t *testing.T) {
	r := New[*int](8)
	for seq := uint64(0); seq < 4; seq++ {
		r.Arrive(seq, new(int))
	}
	for {
		if _, _, ok := r.Play(); !ok {
			break
		}
	}
	for i, s := range r.slots {
		if s.full || s.v != nil {
			t.Fatalf("slot %d still holds a played value", i)
		}
	}
}

// TestRingReset: a reset ring resumes at the restored seq, keeps the
// restored skip count and drops what was buffered.
func TestRingReset(t *testing.T) {
	r := New[int](8)
	r.Arrive(3, 3)
	var discarded []int
	r.Reset(100, 7, func(v int) { discarded = append(discarded, v) })
	if r.Len() != 0 || r.Next() != 100 || r.Skipped() != 7 {
		t.Fatalf("after reset: len %d next %d skipped %d", r.Len(), r.Next(), r.Skipped())
	}
	if !slices.Equal(discarded, []int{3}) {
		t.Fatalf("Reset discarded %v, want the buffered [3]", discarded)
	}
	if v, ok := r.Arrive(99, 5); r.Len() != 0 || !ok || v != 5 {
		t.Fatalf("a seq behind the restored next: buffered %d, handed back %d, %v", r.Len(), v, ok)
	}
	r.Arrive(100, 1)
	if seq, v, ok := r.Play(); !ok || seq != 100 || v != 1 {
		t.Fatalf("Play = %d, %d, %v; want 100, 1, true", seq, v, ok)
	}
}

// BenchmarkRingArrive measures one arrival plus its plays: in order, and
// shuffled within 4096-seq windows (the flood workloads' in-flight depth).
func BenchmarkRingArrive(b *testing.B) {
	const window = 4096
	shuffled := make([]uint64, window)
	for i, j := range rand.New(rand.NewPCG(1, 2)).Perm(window) {
		shuffled[i] = uint64(j)
	}
	run := func(b *testing.B, seqAt func(i int) uint64) {
		r := New[int](100001)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Arrive(seqAt(i), i)
			for {
				if _, _, ok := r.Play(); !ok {
					break
				}
			}
		}
	}
	b.Run("in-order", func(b *testing.B) {
		run(b, func(i int) uint64 { return uint64(i) })
	})
	b.Run("shuffled-4096", func(b *testing.B) {
		run(b, func(i int) uint64 { return uint64(i/window*window) + shuffled[i%window] })
	})
}
