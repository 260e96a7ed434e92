package runtime

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
)

func TestCeilPow2(t *testing.T) {
	cases := []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8},
		{17, 32}, {64, 64}, {128, 128}, {129, 128}, {100000, 128},
	}
	for _, c := range cases {
		if got := ceilPow2(c.in); got != c.want {
			t.Errorf("ceilPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestShardsFlagNormalization(t *testing.T) {
	// Zero (the flag default) floors to GOMAXPROCS rounded up to a power
	// of two; explicit values round up and clamp to maxShards.
	def := MasterConfig{}.withDefaults()
	if want := ceilPow2(goruntime.GOMAXPROCS(0)); def.Shards != want {
		t.Errorf("default Shards = %d, want %d", def.Shards, want)
	}
	if got := (MasterConfig{Shards: 6}).withDefaults().Shards; got != 8 {
		t.Errorf("Shards 6 normalized to %d, want 8", got)
	}
	if got := (MasterConfig{Shards: 9999}).withDefaults().Shards; got != maxShards {
		t.Errorf("Shards 9999 normalized to %d, want %d", got, maxShards)
	}
	if got := (MasterConfig{Shards: -1}).withDefaults().Shards; got < 1 {
		t.Errorf("Shards -1 normalized to %d, want >= 1", got)
	}
}

// TestLedgerConsistentUnderConcurrentSubmit hammers a sharded master from
// several submitters while a sampler reads MasterStats concurrently: every
// sample must satisfy Acked + Shed + InFlight == Submitted exactly. With
// stable workers (no deaths, so no retransmit transient) any torn read of
// the per-shard counters would surface as an unbalanced sample.
func TestLedgerConsistentUnderConcurrentSubmit(t *testing.T) {
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	mem := transport.NewMem()
	m, err := StartMaster(MasterConfig{
		App:        app,
		Policy:     routing.RR,
		ListenAddr: "master",
		Transport:  mem,
		Shards:     8,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	for i := 0; i < 4; i++ {
		startTestWorker(t, mem, m, fmt.Sprintf("w%d", i), 1)
	}
	waitFor(t, 5*time.Second, func() bool { return len(m.Workers()) == 4 }, "workers join")

	const (
		submitters = 4
		perSub     = 300
	)
	var wg sync.WaitGroup
	stopSampling := make(chan struct{})
	var samples, torn atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			st := m.Stats()
			samples.Add(1)
			if !ledgerBalanced(st) {
				torn.Add(1)
				t.Errorf("torn ledger sample: submitted=%d acked=%d shed=%d inFlight=%d",
					st.Submitted, st.Acked, st.Shed, st.InFlight)
				return
			}
		}
	}()
	errs := make(chan error, submitters)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSub; i++ {
				seq := uint64(s*perSub + i)
				if err := m.Submit(frameTuple(seq)); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	waitFor(t, 15*time.Second, func() bool {
		return m.Stats().Acked == int64(submitters*perSub)
	}, "all tuples acked")
	close(stopSampling)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if samples.Load() == 0 {
		t.Fatal("sampler never ran")
	}
	st := m.Stats()
	if st.Submitted != int64(submitters*perSub) || !ledgerBalanced(st) {
		t.Fatalf("final ledger: %+v", st)
	}
}

// TestSegmentedJournalRecoveryMergesByEpochSeq writes interleaved lifecycle
// records across four journal segments through a journalSet, then recovers:
// the merge must reassemble the global (epoch, seq) order so acks and sheds
// land after the submits they release, whichever segment each hashed to.
func TestSegmentedJournalRecoveryMergesByEpochSeq(t *testing.T) {
	// The even IDs are acked one record at a time, or in result-frame
	// batches of 8 (one group commit per touched segment); replay must
	// not tell the two apart.
	cases := []struct {
		name string
		ack  func(js *journalSet, n uint64) error
	}{
		{"per-ack", func(js *journalSet, n uint64) error {
			for id := uint64(2); id <= n; id += 2 {
				if err := js.seg(id).appendAck(id); err != nil {
					return err
				}
			}
			return nil
		}},
		{"ack-batch", func(js *journalSet, n uint64) error {
			var ids []uint64
			for id := uint64(2); id <= n; id += 2 {
				if ids = append(ids, id); len(ids) == 8 {
					if err := js.appendAckBatch(ids); err != nil {
						return err
					}
					ids = ids[:0]
				}
			}
			return js.appendAckBatch(ids)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { testSegmentedRecovery(t, tc.ack) })
	}
}

func testSegmentedRecovery(t *testing.T, ack func(js *journalSet, n uint64) error) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "wal")
	js, err := openJournalSet(jpath, 4, 1, 0, FsyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for id := uint64(1); id <= n; id++ {
		if err := js.seg(id).appendSubmit(frameTuple(id)); err != nil {
			t.Fatal(err)
		}
	}
	// Ack the even IDs, shed ID 1, resend ID 3 — records hash to arbitrary
	// segments but carry the set-wide sequence.
	if err := ack(js, n); err != nil {
		t.Fatal(err)
	}
	if err := js.appendShed(1, true); err != nil {
		t.Fatal(err)
	}
	if err := js.appendResend(3, 1); err != nil {
		t.Fatal(err)
	}
	if err := js.close(); err != nil {
		t.Fatal(err)
	}
	if segs := listJournalSegments(jpath); len(segs) != 4 {
		t.Fatalf("segments on disk = %d (%v), want 4", len(segs), segs)
	}

	rs, err := recoverState(jpath, filepath.Join(dir, "wal.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if rs.counters.Submitted != n {
		t.Errorf("Submitted = %d, want %d", rs.counters.Submitted, n)
	}
	if rs.counters.Acked != n/2 {
		t.Errorf("Acked = %d, want %d", rs.counters.Acked, n/2)
	}
	if rs.counters.Shed != 1 || rs.counters.ShedOverload != 1 {
		t.Errorf("Shed = %d (overload %d), want 1 (1)", rs.counters.Shed, rs.counters.ShedOverload)
	}
	if rs.counters.Retransmitted != 1 {
		t.Errorf("Retransmitted = %d, want 1", rs.counters.Retransmitted)
	}
	// Pending = odd IDs minus the shed one.
	if want := n/2 - 1; len(rs.pending) != want {
		t.Errorf("pending = %d, want %d", len(rs.pending), want)
	}
	if e, ok := rs.pending[3]; !ok || e.attempt != 1 {
		t.Errorf("pending[3] = %+v, want attempt 1", e)
	}
	if _, ok := rs.pending[1]; ok {
		t.Error("shed tuple 1 still pending")
	}
	if len(rs.acked) != n/2 {
		t.Errorf("dedup set = %d IDs, want %d", len(rs.acked), n/2)
	}
}

// TestSegmentedJournalRecoveryTornTailOneSegment tears the tail of exactly
// one segment: recovery must truncate that segment's torn record only and
// keep every intact record from the other segments.
func TestSegmentedJournalRecoveryTornTailOneSegment(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "wal")
	js, err := openJournalSet(jpath, 4, 1, 0, FsyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	for id := uint64(1); id <= n; id++ {
		if err := js.seg(id).appendSubmit(frameTuple(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := js.close(); err != nil {
		t.Fatal(err)
	}

	// Find a segment holding at least one submit and cut into its last
	// record, simulating a crash mid-append on that writer alone.
	segs := listJournalSegments(jpath)
	var victim string
	var victimRecs int
	for _, p := range segs {
		sr, err := replaySegment(p)
		if err != nil {
			t.Fatal(err)
		}
		if sr != nil && len(sr.recs) > 0 {
			victim, victimRecs = p, len(sr.recs)
			break
		}
	}
	if victim == "" {
		t.Fatal("no segment received a submit")
	}
	info, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	rs, err := recoverState(jpath, filepath.Join(dir, "wal.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !rs.journalTruncated {
		t.Error("torn tail not reported")
	}
	// Exactly one record (the torn one) is lost; its tuple was never
	// journaled complete, so it is simply absent from the backlog.
	if want := n - 1; len(rs.pending) != want || rs.counters.Submitted != int64(want) {
		t.Errorf("pending=%d submitted=%d after one-segment tear, want %d",
			len(rs.pending), rs.counters.Submitted, want)
	}
	// The victim segment kept its intact prefix.
	sr, err := replaySegment(victim)
	if err != nil {
		t.Fatal(err)
	}
	if sr == nil || len(sr.recs) != victimRecs-1 {
		t.Errorf("victim segment replays %d records after truncation, want %d",
			len(sr.recs), victimRecs-1)
	}
}

// TestSegmentedJournalRecoverySkipsStaleGeneration leaves one segment at an
// older generation (a crash mid-cut) and confirms its records are
// gated out individually while current-generation segments still replay.
func TestSegmentedJournalRecoverySkipsStaleGeneration(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "wal")

	// Segment 1 is stale: generation 1, holding a submit the checkpoint at
	// generation 2 already folded in. Segments 0 and 2 are current.
	stale, err := openJournal(segmentPath(jpath, 1), 1, 1, FsyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := stale.appendSubmit(frameTuple(1001)); err != nil {
		t.Fatal(err)
	}
	if err := stale.close(); err != nil {
		t.Fatal(err)
	}
	for i, id := range map[int]uint64{0: 1, 2: 2} {
		j, err := openJournal(segmentPath(jpath, i), 1, 2, FsyncNever, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.appendSubmit(frameTuple(id)); err != nil {
			t.Fatal(err)
		}
		if err := j.close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := saveCheckpoint(filepath.Join(dir, "wal.ckpt"), &checkpointState{
		Version: checkpointVersion, Epoch: 1, Generation: 2,
		Submitted: 10, Acked: 10,
	}); err != nil {
		t.Fatal(err)
	}

	rs, err := recoverState(jpath, filepath.Join(dir, "wal.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if rs.generation != 2 {
		t.Errorf("generation = %d, want 2", rs.generation)
	}
	if _, ok := rs.pending[1001]; ok {
		t.Error("stale-generation segment replayed; tuple 1001 double-counted")
	}
	if len(rs.pending) != 2 {
		t.Errorf("pending = %d, want 2 (current-generation submits)", len(rs.pending))
	}
	// 10 checkpointed + 2 replayed submits.
	if rs.counters.Submitted != 12 {
		t.Errorf("Submitted = %d, want 12", rs.counters.Submitted)
	}
}

// TestJournalSetSharedSequence confirms records drawn concurrently across
// segments carry unique set-wide sequence numbers — the property the
// (epoch, seq) merge depends on.
func TestJournalSetSharedSequence(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "wal")
	js, err := openJournalSet(jpath, 4, 1, 0, FsyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		per     = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = js.appendAckBatch([]uint64{uint64(w*per + i + 1)})
			}
		}(w)
	}
	wg.Wait()
	if err := js.close(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for _, p := range listJournalSegments(jpath) {
		sr, err := replaySegment(p)
		if err != nil {
			t.Fatal(err)
		}
		if sr == nil {
			continue
		}
		for _, r := range sr.recs {
			if seen[r.seq] {
				t.Fatalf("sequence %d appears twice across segments", r.seq)
			}
			seen[r.seq] = true
		}
	}
	if len(seen) != writers*per {
		t.Fatalf("recovered %d sequenced records, want %d", len(seen), writers*per)
	}
}

// TestLegacySingleFileJournalRecovers replays a v1-format single-file
// journal (16-byte meta, no sequence stamps) under the segmented recovery
// path: file order is its global order.
func TestLegacySingleFileJournalRecovers(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "wal")

	// Hand-write a v1 journal: meta without the format word, lifecycle
	// records without sequence prefixes.
	var raw []byte
	meta := make([]byte, 0, 16)
	meta = binary.LittleEndian.AppendUint64(meta, 1) // epoch
	meta = binary.LittleEndian.AppendUint64(meta, 0) // generation
	raw = append(raw, encodeJournalRecord(recMeta, meta)...)
	for id := uint64(1); id <= 3; id++ {
		tb, err := tuple.Marshal(frameTuple(id))
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, encodeJournalRecord(recSubmit, tb)...)
	}
	ack := binary.LittleEndian.AppendUint64(nil, 2)
	raw = append(raw, encodeJournalRecord(recAck, ack)...)
	if err := os.WriteFile(jpath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rs, err := recoverState(jpath, filepath.Join(dir, "wal.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if rs.counters.Submitted != 3 || rs.counters.Acked != 1 {
		t.Errorf("v1 replay: submitted=%d acked=%d, want 3/1", rs.counters.Submitted, rs.counters.Acked)
	}
	if len(rs.pending) != 2 {
		t.Errorf("v1 replay pending = %d, want 2", len(rs.pending))
	}
}
