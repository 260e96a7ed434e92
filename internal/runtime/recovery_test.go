package runtime

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/obs"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/testutil"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
)

// frameTuple builds one deterministic frame tuple for direct Submit calls.
func frameTuple(id uint64) *tuple.Tuple {
	t := tuple.New(id, id)
	t.Set(apps.FieldFrame, tuple.Bytes(make([]byte, 600)))
	return t
}

// ledgerBalanced checks the fault-tolerance invariant on a stats
// snapshot: every submitted tuple is acked, shed, in flight, or in a dead
// worker's backlog awaiting retransmission.
func ledgerBalanced(st MasterStats) bool {
	return st.Acked+st.Shed+int64(st.InFlight)+st.Retransmitting == st.Submitted
}

// replayJournal replays the one journal file at path, with no checkpoint
// gating.
func replayJournal(path string) (*journalReplay, error) {
	rep := newJournalReplay()
	return rep, rep.replayFile(path, 0)
}

// journalRecord is one lifecycle record read back from a journal file.
type journalRecord struct {
	typ     journalRecType
	payload []byte
}

// readJournalFile reads the journal file at path without modifying it.
// It returns the file's generation, its intact lifecycle records in file
// order, and the offset at which each intact record ends, the meta
// record's first.
func readJournalFile(t *testing.T, path string) (gen uint64, recs []journalRecord, ends []int64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	var off int64
	for {
		typ, payload, err := readJournalRecord(f)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, errTornRecord) {
				t.Fatal(err)
			}
			return gen, recs, ends
		}
		off += int64(4 + 1 + len(payload) + 4)
		ends = append(ends, off)
		if typ == recMeta {
			gen = binary.LittleEndian.Uint64(payload[8:])
			continue
		}
		recs = append(recs, journalRecord{typ, payload})
	}
}

func TestJournalReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, err := openJournal(path, 3, 7, FsyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 4; id++ {
		if err := j.appendSubmit(frameTuple(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.appendResend(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := j.appendAck(1); err != nil {
		t.Fatal(err)
	}
	if err := j.appendShed(3, true); err != nil {
		t.Fatal(err)
	}
	if err := j.appendShed(4, false); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	rep, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.truncated {
		t.Fatal("clean journal reported truncated")
	}
	if rep.epoch != 3 || rep.generation != 7 {
		t.Fatalf("meta = epoch %d gen %d, want 3/7", rep.epoch, rep.generation)
	}
	if len(rep.submits) != 4 {
		t.Fatalf("submits = %d, want 4", len(rep.submits))
	}
	if rep.attempts[2] != 1 || rep.resends != 1 {
		t.Fatalf("resend not replayed: attempts=%v resends=%d", rep.attempts, rep.resends)
	}
	if _, ok := rep.acked[1]; !ok {
		t.Fatal("ack of tuple 1 not replayed")
	}
	if overload, ok := rep.shed[3]; !ok || !overload {
		t.Fatalf("shed of tuple 3 = (%v,%v), want overload", overload, ok)
	}
	if overload, ok := rep.shed[4]; !ok || overload {
		t.Fatalf("shed of tuple 4 = (%v,%v), want non-overload", overload, ok)
	}

	// Merged view: tuple 2 pending at attempt 1, the rest released.
	rs, err := recoverState(path, filepath.Join(t.TempDir(), "none.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.pending) != 1 {
		t.Fatalf("pending = %d entries, want 1", len(rs.pending))
	}
	e, ok := rs.pending[2]
	if !ok || e.attempt != 1 {
		t.Fatalf("pending[2] = %+v, want attempt 1", e)
	}
	c := rs.counters
	if c.Submitted != 4 || c.Acked != 1 || c.Shed != 2 || c.ShedOverload != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if c.Acked+c.Shed+int64(len(rs.pending)) != c.Submitted {
		t.Fatalf("replayed ledger unbalanced: %+v with %d pending", c, len(rs.pending))
	}
	if c.NextSeq != 5 {
		t.Fatalf("NextSeq = %d, want 5", c.NextSeq)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, err := openJournal(path, 1, 1, FsyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 3; id++ {
		if err := j.appendSubmit(frameTuple(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.appendAck(2); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record (the ack): a crash mid-append leaves exactly
	// this — a partial record at the tail.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	rep, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.truncated {
		t.Fatal("torn tail not reported")
	}
	if len(rep.submits) != 3 || len(rep.acked) != 0 {
		t.Fatalf("replay after tear: %d submits, %d acks; want 3, 0", len(rep.submits), len(rep.acked))
	}

	// The tear must have been truncated in place: a second replay sees a
	// clean journal ending at the last intact record.
	rep2, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.truncated {
		t.Fatal("tail still torn after truncating replay")
	}
	if len(rep2.submits) != 3 {
		t.Fatalf("second replay: %d submits, want 3", len(rep2.submits))
	}
}

func TestJournalForeignFileTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.truncated || len(rep.submits) != 0 {
		t.Fatalf("foreign file: truncated=%v submits=%d", rep.truncated, len(rep.submits))
	}
}

func TestCheckpointRoundTripAndCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	pend, err := tuple.Marshal(frameTuple(7))
	if err != nil {
		t.Fatal(err)
	}
	st := &checkpointState{
		Version: checkpointVersion, Epoch: 2, Generation: 9,
		Counters: obs.Counters{Submitted: 100, Acked: 90, Shed: 4}, NextPlay: 88, NextSeq: 100,
		Estimates: []ckptEstimate{{ID: "w1", LatencyNanos: 5e6, ProcessingNanos: 2e6, Samples: 42}},
		Pending:   []ckptPending{{Tuple: pend, Attempt: 2}},
	}
	if err := saveCheckpoint(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 2 || got.Generation != 9 || got.Submitted != 100 || got.NextPlay != 88 {
		t.Fatalf("loaded checkpoint = %+v", got)
	}
	if len(got.Estimates) != 1 || got.Estimates[0].Samples != 42 {
		t.Fatalf("estimates = %+v", got.Estimates)
	}
	if len(got.Pending) != 1 || !bytes.Equal(got.Pending[0].Tuple, pend) || got.Pending[0].Attempt != 2 {
		t.Fatalf("pending = %+v", got.Pending)
	}
	// The pending tuple travels as a standard-base64 JSON string, the
	// format every earlier checkpoint was written in.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"tuple":"` + base64.StdEncoding.EncodeToString(pend) + `"`; !bytes.Contains(raw, []byte(want)) {
		t.Fatalf("checkpoint body lacks %s", want)
	}

	// Flip one body byte: the checksum must fail closed, not decode junk.
	raw[10] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(path); err == nil {
		t.Fatal("corrupt checkpoint loaded without error")
	}

	// Missing file is a clean fresh start.
	got, err = loadCheckpoint(filepath.Join(t.TempDir(), "absent"))
	if err != nil || got != nil {
		t.Fatalf("missing checkpoint: %v, %v", got, err)
	}

	// A version-1 body spelled its counters in camelCase; read as
	// version 2 they would all decode as zero, so it is refused.
	v1 := []byte(`{"version":1,"epoch":2,"generation":9,"submitted":100,"acked":90,"shedOverload":3,"workerDropped":1}`)
	if err := saveCheckpointBytes(path, v1); err != nil {
		t.Fatal(err)
	}
	if got, err := loadCheckpoint(path); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 checkpoint loaded: %+v, %v", got, err)
	}
}

// TestLedgerRecordRoundTrip gives every field of obs.Counters a distinct
// value and checks that the whole record survives the checkpoint path —
// snapshotState, encodeCheckpoint, loadCheckpoint, recoverState and the
// restarted master's seedLedger — and that Stats and StatusSnapshot both
// report it. The fields are set by reflection, so a counter added to the
// record is covered without editing this test.
func TestLedgerRecordRoundTrip(t *testing.T) {
	var want obs.Counters
	v := reflect.ValueOf(&want).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(101 * (i + 1)))
	}
	check := func(stage string, got obs.Counters) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: counters %+v, want %+v", stage, got, want)
		}
	}
	checkMaster := func(stage string, m *Master) {
		t.Helper()
		st := m.Stats()
		check(stage+" Stats", st.Counters)
		check(stage+" StatusSnapshot", m.StatusSnapshot().Ledger.Counters)
		if st.WorkerDropped != want.DropErrors+want.DropPanics+want.DropDeadlines {
			t.Fatalf("%s: WorkerDropped %d is not the sum of the drop reasons in %+v", stage, st.WorkerDropped, want)
		}
	}

	mem := transport.NewMem()
	jpath := filepath.Join(t.TempDir(), "wal")
	cfg := MasterConfig{
		App: benchApp(t), ListenAddr: "master", Transport: mem,
		JournalPath: jpath, CheckpointEvery: -1, Fsync: FsyncNever, Logger: quietLogger(),
	}
	m, err := StartMaster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.inflight.seedLedger(want)
	checkMaster("seeded", m)

	body, err := encodeCheckpoint(m.snapshotState())
	if err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if err := saveCheckpointBytes(jpath+".ckpt", body); err != nil {
		t.Fatal(err)
	}
	st, err := loadCheckpoint(jpath + ".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	check("loadCheckpoint", st.Counters)
	rs, err := recoverState(jpath, jpath+".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	check("recoverState", rs.counters.Counters)

	m2, err := StartMaster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Crash()
	checkMaster("restarted", m2)
}

// TestRecoverStateIgnoresStaleJournal gates journal files by generation:
// a file below the checkpoint's generation is wholly folded into it and
// must not replay, while a file at the checkpoint's generation replays
// on top of it.
func TestRecoverStateIgnoresStaleJournal(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "wal")
	cpath := filepath.Join(dir, "ckpt")

	// Checkpoint at generation 5; a set-aside file at generation 3 and
	// the live journal at generation 4 left behind, as a crash between a
	// restart's checkpoint and its opening of the new journal leaves
	// them: every record is already folded into the checkpoint, so
	// replaying either would double-count.
	if err := saveCheckpoint(cpath, &checkpointState{
		Version: checkpointVersion, Epoch: 2, Generation: 5,
		Counters: obs.Counters{Submitted: 10, Acked: 10}, NextSeq: 10,
	}); err != nil {
		t.Fatal(err)
	}
	writeJournalFile(t, setAsidePath(jpath, 3), 2, 3, submitOp(1001))
	writeJournalFile(t, jpath, 2, 4, submitOp(3))

	rs, err := recoverState(jpath, cpath)
	if err != nil {
		t.Fatal(err)
	}
	if rs.counters.Submitted != 10 {
		t.Fatalf("stale journal replayed: Submitted = %d, want 10", rs.counters.Submitted)
	}
	if len(rs.pending) != 0 {
		t.Fatalf("stale journal produced %d pending", len(rs.pending))
	}
	if rs.prevEpoch != 2 || rs.generation != 5 {
		t.Fatalf("recovered epoch/gen = %d/%d, want 2/5", rs.prevEpoch, rs.generation)
	}

	// A live file at the checkpoint's generation replays; the stale
	// set-aside file beside it still does not.
	writeJournalFile(t, jpath, 2, 5, submitOp(1), submitOp(2))
	rs, err = recoverState(jpath, cpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rs.pending[1001]; ok {
		t.Error("stale set-aside file replayed; tuple 1001 double-counted")
	}
	if got := sortedIDs(rs.pending); fmt.Sprint(got) != "[1 2]" {
		t.Errorf("pending = %v, want [1 2]", got)
	}
	if rs.counters.Submitted != 12 || rs.generation != 5 {
		t.Errorf("Submitted = %d, generation = %d; want 12, 5", rs.counters.Submitted, rs.generation)
	}
}

// TestJournalCutAtEveryRecordBoundary writes one generation of submit,
// resend, ack and shed records for 50 tuples, then crashes it at every
// record boundary and at one byte inside every record: a copy of the
// file truncated there must recover to exactly the ledger its intact
// records describe, and report a torn tail exactly when the cut falls
// mid-record.
func TestJournalCutAtEveryRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src")
	j, err := openJournal(src, 1, 1, FsyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Batch b submits tuples 5b+1..5b+5 and resends 5b+1; then the
	// previous batch's 5b+2 and 5b+4 are acked and its 5b+3 is shed, so
	// releases interleave with later submits. 5b+5 stays pending.
	const batches = 10
	release := func(b int) error {
		base := uint64(5 * b)
		if err := j.appendAckBatch([]uint64{base + 2, base + 4}); err != nil {
			return err
		}
		return j.appendShed(base+3, b%2 == 0)
	}
	for b := 0; b < batches; b++ {
		ts := make([]*tuple.Tuple, 5)
		for i := range ts {
			ts[i] = frameTuple(uint64(5*b + i + 1))
		}
		if err := j.appendRound(ts, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := j.appendResend(uint64(5*b+1), 1); err != nil {
			t.Fatal(err)
		}
		if b > 0 {
			if err := release(b - 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := release(batches - 1); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	_, recs, ends := readJournalFile(t, src)
	if want := 5*batches + batches + 2*batches + batches; len(recs) != want {
		t.Fatalf("journal holds %d lifecycle records, want %d", len(recs), want)
	}

	// Cut points: the empty file, every record's end, and the middle of
	// every record (the meta record's included).
	type cut struct {
		at   int64
		torn bool
		recs int // lifecycle records wholly before the cut
	}
	cuts := []cut{{0, false, 0}}
	for i, end := range ends {
		start := int64(0)
		if i > 0 {
			start = ends[i-1]
		}
		whole := max(i-1, 0) // records before this one, meta excluded
		cuts = append(cuts, cut{(start + end) / 2, true, whole}, cut{end, false, i})
	}
	for _, c := range cuts {
		jpath := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(jpath, raw[:c.at], 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := recoverState(jpath, jpath+".ckpt")
		if err != nil {
			t.Fatalf("cut at %d: %v", c.at, err)
		}

		// The oracle: what the intact records say.
		submitted := map[uint64]bool{}
		released := map[uint64]bool{}
		resent := map[uint64]bool{}
		var delivered []uint64
		for _, r := range recs[:c.recs] {
			switch r.typ {
			case recSubmit:
				tp, err := tuple.Unmarshal(r.payload)
				if err != nil {
					t.Fatal(err)
				}
				submitted[tp.ID] = true
			case recResend:
				resent[binary.LittleEndian.Uint64(r.payload)] = true
			case recAck:
				id := binary.LittleEndian.Uint64(r.payload)
				released[id] = true
				delivered = append(delivered, id)
			case recShed:
				released[binary.LittleEndian.Uint64(r.payload)] = true
			}
		}
		for id := range released {
			if _, ok := rs.pending[id]; ok {
				t.Fatalf("cut at %d: acked or shed tuple %d still pending", c.at, id)
			}
		}
		for id := range submitted {
			e, ok := rs.pending[id]
			if ok == released[id] {
				t.Fatalf("cut at %d: tuple %d pending = %v, released = %v", c.at, id, ok, released[id])
			}
			if ok && (e.attempt == 1) != resent[id] {
				t.Fatalf("cut at %d: tuple %d at attempt %d, resent = %v", c.at, id, e.attempt, resent[id])
			}
		}
		cn := rs.counters
		if cn.Submitted != int64(len(submitted)) || cn.Acked+cn.Shed+int64(len(rs.pending)) != cn.Submitted {
			t.Fatalf("cut at %d: submitted %d (want %d), acked %d + shed %d + pending %d unbalanced",
				c.at, cn.Submitted, len(submitted), cn.Acked, cn.Shed, len(rs.pending))
		}
		for _, id := range delivered {
			if _, ok := rs.acked[id]; !ok {
				t.Fatalf("cut at %d: delivered ack %d missing from the dedup set", c.at, id)
			}
		}
		if rs.journalTruncated != c.torn {
			t.Fatalf("cut at %d: journalTruncated = %v, want %v", c.at, rs.journalTruncated, c.torn)
		}
	}
}

// TestRecoverStateRejectsOtherFormats: recovery reads only the journal
// format this build writes. A meta record of another length fails it,
// and so does a segment file "<path>.s<i>" left by a build that split
// the journal, since replaying without it would lose its un-acked
// tuples.
func TestRecoverStateRejectsOtherFormats(t *testing.T) {
	for _, n := range []int{8, 24} {
		jpath := filepath.Join(t.TempDir(), "wal")
		meta := make([]byte, n)
		if err := os.WriteFile(jpath, encodeJournalRecord(recMeta, meta), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := recoverState(jpath, jpath+".ckpt"); err == nil {
			t.Errorf("%d-byte meta record recovered", n)
		}
	}
	for _, name := range []string{"wal.s1", "wal.s3.g7"} {
		dir := t.TempDir()
		jpath := filepath.Join(dir, "wal")
		writeJournalFile(t, jpath, 1, 1, submitOp(1))
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := recoverState(jpath, jpath+".ckpt")
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("leftover %s: recovery error %v, want one naming the file", name, err)
		}
	}
}

// startRecoverableMaster starts a journaling master on the shared mem
// transport. Periodic checkpoints are disabled so tests control exactly
// when state is snapshotted.
func startRecoverableMaster(t *testing.T, mem *transport.Mem, jpath string, col *resultCollector) *Master {
	t.Helper()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	cfg := MasterConfig{
		App:             app,
		Policy:          routing.LRS,
		ListenAddr:      "master",
		Transport:       mem,
		JournalPath:     jpath,
		CheckpointEvery: -1,
		Fsync:           FsyncNever,
		RetryDeadline:   5 * time.Second,
		Logger:          quietLogger(),
	}
	if col != nil {
		cfg.OnResult = col.add
	}
	m, err := StartMaster(cfg)
	if err != nil {
		t.Fatalf("StartMaster: %v", err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// startReconnectingWorker joins a worker that survives master restarts.
func startReconnectingWorker(t *testing.T, mem *transport.Mem, addr, id string) *Worker {
	t.Helper()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	w, err := StartWorker(WorkerConfig{
		DeviceID:         id,
		MasterAddr:       addr,
		App:              app,
		Transport:        mem,
		Reconnect:        true,
		ReconnectBackoff: 10 * time.Millisecond,
		Logger:           quietLogger(),
	})
	if err != nil {
		t.Fatalf("StartWorker(%s): %v", id, err)
	}
	t.Cleanup(func() { _ = w.Close() })
	return w
}

// TestMasterCrashRecovery is the headline crash-recovery scenario: kill
// the master mid-stream, restart it from journal + checkpoint, and verify
// the worker is re-adopted under the new epoch, the ledger invariant
// holds across incarnations, the sink plays every tuple at most once, and
// the router restarts from checkpointed latency estimates.
func TestMasterCrashRecovery(t *testing.T) {
	mem := transport.NewMem()
	jpath := filepath.Join(t.TempDir(), "wal")
	col1 := &resultCollector{}
	m1 := startRecoverableMaster(t, mem, jpath, col1)
	if m1.Epoch() != 1 {
		t.Fatalf("fresh master epoch = %d, want 1", m1.Epoch())
	}
	w := startReconnectingWorker(t, mem, m1.Addr(), "w1")
	waitFor(t, 2*time.Second, func() bool { return len(m1.Workers()) == 1 }, "worker join")

	src := apps.NewFrameSource(600, 7)
	const warm = 40
	for i := 0; i < warm; i++ {
		if err := m1.Submit(src.Next()); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return m1.Stats().Acked >= warm }, "warm batch acked")

	// Mid-stream checkpoint: persists the ledger, the sink playback
	// position and w1's latency estimate, and starts a new journal
	// generation.
	if err := m1.checkpointNow(); err != nil {
		t.Fatalf("checkpointNow: %v", err)
	}

	// Second batch rides only in the post-checkpoint journal generation;
	// crash before any of it can be fully acknowledged.
	const tail = 10
	for i := 0; i < tail; i++ {
		if err := m1.Submit(src.Next()); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	m1.Crash()
	st1 := m1.Stats()
	if !ledgerBalanced(st1) {
		t.Fatalf("incarnation 1 ledger unbalanced at crash: %+v", st1)
	}
	if st1.Submitted != warm+tail {
		t.Fatalf("incarnation 1 submitted = %d, want %d", st1.Submitted, warm+tail)
	}

	// Restart from the same journal path. The mem address is free again,
	// so the reconnecting worker's redial lands on the new incarnation.
	col2 := &resultCollector{}
	m2 := startRecoverableMaster(t, mem, jpath, col2)
	if m2.Epoch() != 2 {
		t.Fatalf("restarted master epoch = %d, want 2", m2.Epoch())
	}
	st2 := m2.Stats()
	if st2.Submitted != st1.Submitted {
		t.Fatalf("recovered submitted = %d, want %d", st2.Submitted, st1.Submitted)
	}
	if st2.Recovered != int64(st1.InFlight) {
		t.Fatalf("recovered backlog = %d, want the crashed incarnation's in-flight %d",
			st2.Recovered, st1.InFlight)
	}
	if !ledgerBalanced(st2) {
		t.Fatalf("recovered ledger unbalanced: %+v", st2)
	}
	if got := m2.NextSeq(); got != warm+tail {
		t.Fatalf("recovered NextSeq = %d, want %d", got, warm+tail)
	}

	// The checkpointed estimate is waiting for w1 before it even rejoins.
	m2.routerMu.Lock()
	est, warmOK := m2.router.SeededEstimate("w1")
	m2.routerMu.Unlock()
	if !warmOK || est.Samples == 0 {
		t.Fatalf("no warm estimate for w1 after recovery: %+v (ok=%v)", est, warmOK)
	}

	// Re-adoption: the worker reconnects on its own, echoes the old epoch,
	// and the new incarnation counts it.
	waitFor(t, 5*time.Second, func() bool { return len(m2.Workers()) == 1 }, "worker re-adopt")
	waitFor(t, 2*time.Second, func() bool { return w.MasterEpoch() == 2 }, "worker sees new epoch")
	if got := m2.Stats().Readopted; got != 1 {
		t.Fatalf("Readopted = %d, want 1", got)
	}
	m2.routerMu.Lock()
	adopted, err := m2.router.Estimate("w1")
	m2.routerMu.Unlock()
	if err != nil || adopted.Samples != est.Samples {
		t.Fatalf("router did not adopt warm estimate: %+v (%v), seeded %+v", adopted, err, est)
	}

	// The journaled backlog drains through the normal retransmit path.
	waitFor(t, 10*time.Second, func() bool { return m2.Stats().InFlight == 0 }, "backlog resolved")
	st2 = m2.Stats()
	if !ledgerBalanced(st2) {
		t.Fatalf("post-recovery ledger unbalanced: %+v", st2)
	}

	// Keep streaming on the resumed source: sequence numbers continue past
	// every burned slot.
	src.SeekTo(m2.NextSeq())
	const fresh = 20
	for i := 0; i < fresh; i++ {
		if err := m2.Submit(src.Next()); err != nil {
			t.Fatalf("Submit after recovery: %v", err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		st := m2.Stats()
		return st.InFlight == 0 && st.Submitted == warm+tail+fresh
	}, "fresh batch resolved")
	st2 = m2.Stats()
	if !ledgerBalanced(st2) {
		t.Fatalf("final ledger unbalanced: %+v", st2)
	}

	// At-most-once across incarnations: no tuple ID plays twice, crash or
	// not. (A process crash loses no journal bytes, so dedup is exact.)
	seen := make(map[uint64]int)
	for _, r := range col1.snapshot() {
		seen[r.Tuple.ID]++
	}
	for _, r := range col2.snapshot() {
		seen[r.Tuple.ID]++
	}
	for id, n := range seen {
		if n > 1 {
			t.Fatalf("tuple %d played %d times across incarnations", id, n)
		}
	}
}

// TestCheckpointWarmRestart closes the master cleanly and restarts it,
// verifying the final checkpoint alone (no journal replay, no backlog)
// restores counters, playback position, and exact latency estimates.
func TestCheckpointWarmRestart(t *testing.T) {
	mem := transport.NewMem()
	jpath := filepath.Join(t.TempDir(), "wal")
	m1 := startRecoverableMaster(t, mem, jpath, nil)
	startTestWorker(t, mem, m1, "w1", 1)
	waitFor(t, 2*time.Second, func() bool { return len(m1.Workers()) == 1 }, "worker join")

	src := apps.NewFrameSource(600, 7)
	const n = 30
	for i := 0; i < n; i++ {
		if err := m1.Submit(src.Next()); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	// A result is acked before it is played, so wait for both: the
	// counters compared below must not move after the snapshot.
	waitFor(t, 5*time.Second, func() bool {
		st := m1.Stats()
		return st.Acked == n && st.Played == n && st.InFlight == 0
	}, "all acked and played")
	m1.routerMu.Lock()
	want := m1.router.Estimates()["w1"]
	m1.routerMu.Unlock()
	if want.Samples == 0 {
		t.Fatal("worker estimate never warmed")
	}
	stClosed := m1.Stats()
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := startRecoverableMaster(t, mem, jpath, nil)
	if m2.Epoch() != 2 {
		t.Fatalf("epoch after clean restart = %d, want 2", m2.Epoch())
	}
	st := m2.Stats()
	if st.Submitted != stClosed.Submitted || st.Acked != stClosed.Acked ||
		st.Played != stClosed.Played || st.Recovered != 0 {
		t.Fatalf("restarted stats %+v, want counters of %+v with no backlog", st, stClosed)
	}
	// Quiesced shutdown makes the comparison exact: no ack raced the
	// final checkpoint, so the estimate must match to the nanosecond.
	m2.routerMu.Lock()
	got, ok := m2.router.SeededEstimate("w1")
	m2.routerMu.Unlock()
	// LastUpdate is a live-clock reading and deliberately not checkpointed;
	// the measured quantities must survive exactly.
	if !ok || got.Latency != want.Latency || got.Processing != want.Processing ||
		got.Samples != want.Samples {
		t.Fatalf("warm estimate = %+v (ok=%v), want %+v", got, ok, want)
	}

	// A same-ID worker joining the new incarnation adopts the estimate and
	// the stream resumes at the recovered sequence.
	col := &resultCollector{}
	m2.cfg.OnResult = col.add // safe: no traffic yet in this incarnation
	startTestWorker(t, mem, m2, "w1", 1)
	waitFor(t, 2*time.Second, func() bool { return len(m2.Workers()) == 1 }, "worker joins restart")
	src.SeekTo(m2.NextSeq())
	for i := 0; i < n; i++ {
		if err := m2.Submit(src.Next()); err != nil {
			t.Fatalf("Submit after restart: %v", err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return m2.Stats().Acked == 2*n }, "second batch acked")
	for _, r := range col.snapshot() {
		if r.Tuple.SeqNo < n {
			t.Fatalf("sequence %d replayed after clean restart", r.Tuple.SeqNo)
		}
	}
}

// TestTornJournalMasterRecovery boots a master from a journal with a torn
// tail: recovery truncates the tear, resurrects the intact records, and
// the ledger still balances once the orphaned backlog sheds (no worker
// ever joins the new incarnation).
func TestTornJournalMasterRecovery(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "wal")
	j, err := openJournal(jpath, 1, 1, FsyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 5; id++ {
		if err := j.appendSubmit(frameTuple(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.appendAck(0); err != nil {
		t.Fatal(err)
	}
	if err := j.appendAck(1); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the second ack mid-record.
	if err := os.Truncate(jpath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	m, err := StartMaster(MasterConfig{
		App:             app,
		ListenAddr:      "master",
		Transport:       transport.NewMem(),
		JournalPath:     jpath,
		CheckpointEvery: -1,
		Fsync:           FsyncNever,
		RetryDeadline:   150 * time.Millisecond,
		Logger:          quietLogger(),
	})
	if err != nil {
		t.Fatalf("StartMaster on torn journal: %v", err)
	}
	defer func() { _ = m.Close() }()
	if m.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", m.Epoch())
	}
	st := m.Stats()
	// The torn ack is discarded: 5 submits, 1 surviving ack, 4 pending.
	if st.Submitted != 5 || st.Acked != 1 || st.Recovered != 4 {
		t.Fatalf("recovered stats from torn journal: %+v", st)
	}
	// With no worker to adopt the backlog it sheds at the retry deadline,
	// and the ledger balances across the tear.
	// InFlight drops to zero as soon as the orphaned backlog leaves the
	// table for retransmission; it has shed only once Retransmitting
	// drains too.
	waitFor(t, 5*time.Second, func() bool {
		st := m.Stats()
		return st.InFlight == 0 && st.Retransmitting == 0
	}, "backlog shed")
	st = m.Stats()
	if !ledgerBalanced(st) {
		t.Fatalf("ledger unbalanced after torn-tail recovery: %+v", st)
	}
	if st.Shed != 4 {
		t.Fatalf("shed = %d, want 4", st.Shed)
	}
}

// TestMasterKillSoak is the seeded master-kill chaos soak behind
// scripts/soak.sh: two reconnecting workers stream frames while the
// master is repeatedly crashed at seeded intervals and restarted from its
// journal and periodic checkpoints. Every incarnation must re-adopt the
// swarm, drain the recovered backlog, keep the cumulative ledger
// invariant, and never play a tuple twice. Opt in with SWING_SOAK=1;
// SWING_SOAK_SECONDS overrides the default duration.
func TestMasterKillSoak(t *testing.T) {
	if os.Getenv("SWING_SOAK") == "" {
		t.Skip("set SWING_SOAK=1 (see scripts/soak.sh) to run the master-kill soak")
	}
	dur := 5 * time.Second
	if s := os.Getenv("SWING_SOAK_SECONDS"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil || secs <= 0 {
			t.Fatalf("bad SWING_SOAK_SECONDS %q", s)
		}
		dur = time.Duration(secs) * time.Second
	}
	baseline := testutil.LeakBaseline()

	mem := transport.NewMem()
	jpath := filepath.Join(t.TempDir(), "wal")
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}

	// plays counts deliveries per tuple ID across every incarnation; the
	// at-most-once guarantee is exact under process crashes.
	var playsMu sync.Mutex
	plays := make(map[uint64]int)
	record := func(r Result) {
		playsMu.Lock()
		plays[r.Tuple.ID]++
		playsMu.Unlock()
	}
	incarnate := func() *Master {
		m, err := StartMaster(MasterConfig{
			App:             app,
			Policy:          routing.LRS,
			ListenAddr:      "master",
			Transport:       mem,
			JournalPath:     jpath,
			CheckpointEvery: 200 * time.Millisecond,
			Fsync:           FsyncInterval,
			FsyncEvery:      20 * time.Millisecond,
			RetryDeadline:   2 * time.Second,
			OnResult:        record,
			Logger:          quietLogger(),
		})
		if err != nil {
			t.Fatalf("StartMaster: %v", err)
		}
		return m
	}

	m := incarnate()
	startReconnectingWorker(t, mem, m.Addr(), "w1")
	startReconnectingWorker(t, mem, m.Addr(), "w2")
	waitFor(t, 5*time.Second, func() bool { return len(m.Workers()) == 2 }, "workers join")

	rng := rand.New(rand.NewSource(4242))
	src := apps.NewFrameSource(600, 99)
	deadline := time.Now().Add(dur)
	nextKill := time.Now().Add(500 * time.Millisecond)
	var sent, refused, kills int
	for time.Now().Before(deadline) {
		if time.Now().After(nextKill) {
			m.Crash()
			kills++
			m = incarnate()
			src.SeekTo(m.NextSeq())
			nextKill = time.Now().Add(500*time.Millisecond +
				time.Duration(rng.Intn(700))*time.Millisecond)
		}
		if err := m.Submit(src.Next()); err != nil {
			refused++ // workers mid-reconnect after a kill
		} else {
			sent++
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("soak: %d submitted, %d refused, %d master kills over %v", sent, refused, kills, dur)
	if sent == 0 || kills == 0 {
		t.Fatalf("soak too quiet: sent=%d kills=%d", sent, kills)
	}
	if got := m.Epoch(); got != uint64(kills+1) {
		t.Fatalf("final epoch = %d after %d kills, want %d", got, kills, kills+1)
	}

	// Quiescence on the final incarnation: the cumulative ledger must
	// balance across every crash.
	var last MasterStats
	waitFor(t, 30*time.Second, func() bool {
		st := m.Stats()
		stable := st.Acked == last.Acked && st.Shed == last.Shed && st.InFlight == last.InFlight
		last = st
		return stable && ledgerBalanced(st)
	}, "cross-epoch ledger invariant at quiescence")

	playsMu.Lock()
	for id, n := range plays {
		if n > 1 {
			playsMu.Unlock()
			t.Fatalf("tuple %d played %d times across %d incarnations", id, n, kills+1)
		}
	}
	playsMu.Unlock()

	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Workers close via t.Cleanup; crashed incarnations already drained
	// their goroutines inside crash(). Everything else must drain now.
	t.Cleanup(func() {
		testutil.CheckLeaked(t, baseline, 15*time.Second)
	})
}

// TestLegacySingleFileJournalRecovers replays a journal written byte by
// byte rather than by the journal code — 16-byte meta, unstamped
// lifecycle records, the format builds before journal sharding wrote
// too — so the on-disk format cannot drift unnoticed.
func TestLegacySingleFileJournalRecovers(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "wal")

	// Hand-write the journal: meta, then lifecycle records.
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
		t.Errorf("replay: submitted=%d acked=%d, want 3/1", rs.counters.Submitted, rs.counters.Acked)
	}
	if len(rs.pending) != 2 {
		t.Errorf("replay pending = %d, want 2", len(rs.pending))
	}
}
