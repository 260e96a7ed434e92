package runtime

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
	"github.com/swingframework/swing/internal/wire"
)

// readBuf hands payload over as a frame buffer of its own, as readLoop
// hands over what it read. The buffer is not from the pool, so no later
// frame of the test shares it.
func readBuf(payload []byte) *wire.Buf {
	return &wire.Buf{B: bytes.Clone(payload)}
}

// pooledBuf is readBuf through the pool, as ReadFrameBuf reads: a frame
// freed early would hand its buffer to the next pooledBuf.
func pooledBuf(payload []byte) *wire.Buf {
	buf := wire.GetBuf(len(payload))
	copy(buf.B, payload)
	return buf
}

// sinkResults wraps tuples as results no frame owns, for driving the
// sink directly.
func sinkResults(ts ...*tuple.Tuple) []sinkResult {
	rs := make([]sinkResult, len(ts))
	for i, tp := range ts {
		rs[i].Tuple = tp
	}
	return rs
}

// undecodable stands, in resultPayload's seqs, for an entry whose tuple
// bytes do not decode.
const undecodable = -1

// seqBytes is the 256-byte frame field of seq's result.
func seqBytes(seq uint64) []byte {
	b := make([]byte, 256)
	for i := range b {
		b[i] = byte(seq*7 + uint64(i))
	}
	return b
}

// seqTuple is a result tuple whose frame field is seqBytes, so a played
// result can check its own bytes.
func seqTuple(seq uint64) *tuple.Tuple {
	return tuple.New(seq+1000, seq).Set(apps.FieldFrame, tuple.Bytes(seqBytes(seq)))
}

// checkSeqBytes reports whether r's frame field still holds what
// seqTuple put there.
func checkSeqBytes(r Result) error {
	b, err := r.Tuple.MustBytes(apps.FieldFrame)
	if err != nil {
		return err
	}
	if r.Tuple.ID != r.Tuple.SeqNo+1000 || !bytes.Equal(b, seqBytes(r.Tuple.SeqNo)) {
		return fmt.Errorf("result %d (seq %d) plays with bytes that are not its own", r.Tuple.ID, r.Tuple.SeqNo)
	}
	return nil
}

// resultPayload encodes one FrameResultBatch payload with a seqTuple
// result per seq.
func resultPayload(t *testing.T, seqs ...int64) []byte {
	t.Helper()
	var rb wire.ResultBatch
	for i, seq := range seqs {
		if seq == undecodable {
			// Too short for a tuple header.
			rb.Add(wire.ResultMeta{TupleID: uint64(1<<40 + i)}, []byte{0xFF, 0xFF, 0xFF})
			continue
		}
		b, err := tuple.Marshal(seqTuple(uint64(seq)))
		if err != nil {
			t.Fatal(err)
		}
		rb.Add(wire.ResultMeta{TupleID: uint64(seq) + 1000}, b)
	}
	return bytes.Clone(rb.Payload())
}

// countFrees counts, per buffer, how often a result frame is freed, for
// the rest of the test.
func countFrees(t *testing.T) map[*wire.Buf]int {
	frees := make(map[*wire.Buf]int)
	resultFrameFreed = func(b *wire.Buf) { frees[b]++ }
	t.Cleanup(func() { resultFrameFreed = nil })
	return frees
}

// TestResultFrameFreedOnce: a result the sink drops — late, a repeat
// that another arrival replaces, an un-issued seq, or one that does not
// decode — gives back its frame's share exactly once. Each case sends a
// frame holding one dropped result and one result that waits in the
// ring; the frame must stay while its held result waits (a drop counted
// twice frees it early) and be freed once when that result plays (a
// drop not counted never frees it).
func TestResultFrameFreedOnce(t *testing.T) {
	type step struct {
		seqs  []int64 // one frame's results
		freed []int   // the frames, by step, freed once after this step; the rest not yet
	}
	cases := []struct {
		name  string
		steps []step
		plays []uint64
	}{
		{"late", []step{
			{[]int64{0}, []int{0}},
			{[]int64{0, 2}, []int{0}},
			{[]int64{1}, []int{0, 1, 2}},
		}, []uint64{0, 1, 2}},
		{"repeat", []step{
			{[]int64{2}, nil},
			{[]int64{2, 3}, []int{0}}, // replaces step 0's seq 2
			{[]int64{0, 1}, []int{0, 1, 2}},
		}, []uint64{0, 1, 2, 3}},
		{"un-issued", []step{
			{[]int64{1 << 20, 2}, nil},
			{[]int64{0, 1}, []int{0, 1}},
		}, []uint64{0, 1, 2}},
		{"undecodable", []step{
			{[]int64{undecodable}, []int{0}},
			{[]int64{undecodable, 2}, []int{0}},
			{[]int64{0, 1}, []int{0, 1, 2}},
		}, []uint64{0, 1, 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			frees := countFrees(t)
			var played []uint64
			m := startJournalMaster(t, func(r Result) {
				if err := checkSeqBytes(r); err != nil {
					t.Error(err)
				}
				played = append(played, r.Tuple.SeqNo)
			})
			m.nextSeq.Store(4) // seqs 0-3 were issued
			wc := &workerConn{id: "w"}
			var sc resultScratch
			var bufs []*wire.Buf
			for i, s := range c.steps {
				buf := readBuf(resultPayload(t, s.seqs...))
				bufs = append(bufs, buf)
				if err := m.handleResultBatch(wc, &sc, buf, time.Now()); err != nil {
					t.Fatal(err)
				}
				want := make(map[int]bool)
				for _, f := range s.freed {
					want[f] = true
				}
				for f, b := range bufs {
					if n, w := frees[b], want[f]; n > 1 || (n == 1) != w {
						t.Fatalf("after step %d, frame %d freed %d times; want freed: %v", i, f, n, w)
					}
				}
			}
			if len(frees) != len(bufs) {
				t.Fatalf("%d frames freed, %d sent", len(frees), len(bufs))
			}
			if !slices.Equal(played, c.plays) || m.sink.Len() != 0 {
				t.Fatalf("played %v with %d left in the ring; want %v and none", played, m.sink.Len(), c.plays)
			}
		})
	}
}

// TestHeldResultOutlivesLaterFrames: a result that waits in the ring for
// a missing seq keeps its frame while later frames from another worker
// come and go through the same pools, and plays with its own bytes.
func TestHeldResultOutlivesLaterFrames(t *testing.T) {
	var played []uint64
	m := startJournalMaster(t, func(r Result) {
		if err := checkSeqBytes(r); err != nil {
			t.Error(err)
		}
		played = append(played, r.Tuple.SeqNo)
	})
	const held, unissued = 10, 1 << 20
	m.nextSeq.Store(held)
	wa, wb := &workerConn{id: "a"}, &workerConn{id: "b"}
	var sa, sb resultScratch
	// Seq 1 waits for seq 0; its sibling frees at once.
	if err := m.handleResultBatch(wa, &sa, pooledBuf(resultPayload(t, 1, unissued)), time.Now()); err != nil {
		t.Fatal(err)
	}
	// Worker b's frames of the same size: some hold one more seq, the
	// rest are freed as soon as they are read, so their buffers and
	// blocks cycle through the pools.
	for i := 0; i < 64; i++ {
		seqs := []int64{unissued, unissued}
		if seq := int64(2 + i/8); i%8 == 0 && seq < held {
			seqs[0] = seq
		}
		if err := m.handleResultBatch(wb, &sb, pooledBuf(resultPayload(t, seqs...)), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if len(played) != 0 {
		t.Fatalf("played %v before seq 0 arrived", played)
	}
	if err := m.handleResultBatch(wb, &sb, pooledBuf(resultPayload(t, 0, unissued)), time.Now()); err != nil {
		t.Fatal(err)
	}
	if len(played) != held {
		t.Fatalf("played %v, want seqs 0-%d", played, held-1)
	}
}

// TestResultFrameAllocs: at steady state the master takes in a result
// frame — decode, ledger, sink, OnResult, and freeing the frame after
// its last result — with no heap allocation.
func TestResultFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceiling holds for production builds only")
	}
	m := startTestMaster(t, transport.NewMem(), nil)
	const per, runs = 64, 100
	// AllocsPerRun calls f runs+1 times; every frame plays in full.
	payloads := make([][]byte, runs+1)
	for i := range payloads {
		var rb wire.ResultBatch
		for j := 0; j < per; j++ {
			seq := uint64(i*per + j)
			b, err := tuple.Marshal(frameTuple(seq))
			if err != nil {
				t.Fatal(err)
			}
			rb.Add(wire.ResultMeta{TupleID: seq}, b)
		}
		payloads[i] = bytes.Clone(rb.Payload())
	}
	m.nextSeq.Store(uint64(len(payloads) * per))
	wc := &workerConn{id: "w"}
	var sc resultScratch
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := m.handleResultBatch(wc, &sc, pooledBuf(payloads[i]), time.Now()); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if st := m.Stats(); st.Played != int64(len(payloads)*per) {
		t.Fatalf("played %d results, want %d", st.Played, len(payloads)*per)
	}
	if allocs != 0 {
		t.Fatalf("a %d-result frame costs %.1f allocations, want 0", per, allocs)
	}
}
