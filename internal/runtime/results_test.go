package runtime

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
	"github.com/swingframework/swing/internal/wire"
)

// startJournalMaster starts a worker-less journaling master, for driving
// the result path directly.
func startJournalMaster(t *testing.T, onResult func(Result)) *Master {
	t.Helper()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	m, err := StartMaster(MasterConfig{
		App:             app,
		ListenAddr:      "master",
		Transport:       transport.NewMem(),
		JournalPath:     filepath.Join(t.TempDir(), "wal"),
		CheckpointEvery: -1,
		Fsync:           FsyncNever,
		OnResult:        onResult,
		Logger:          quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// TestResultFrameOneFlushPerSegment: one result frame's acks reach the
// journal file as one group commit — one flush, not one write per ack —
// and every ack is still its own record.
func TestResultFrameOneFlushPerSegment(t *testing.T) {
	m := startJournalMaster(t, nil)
	const n = 128
	var rb wire.ResultBatch
	block := make([]inflightEntry, n)
	for id := uint64(1); id <= n; id++ {
		block[id-1] = inflightEntry{t: tuple.New(id, id)}
		rb.Add(wire.ResultMeta{TupleID: id, EmitNanos: time.Now().UnixNano()}, nil)
	}
	m.inflight.trackSubmitBatch(block)
	var flushes atomic.Int64
	m.journal.mu.Lock()
	m.journal.quiesceLocked()
	m.journal.tap = func([]byte) { flushes.Add(1) }
	m.journal.mu.Unlock()
	recordsBefore, _, _ := m.journal.depth()

	var sc resultScratch
	if err := m.handleResultBatch(&workerConn{id: "w"}, &sc, readBuf(rb.Payload()), time.Now()); err != nil {
		t.Fatal(err)
	}
	recordsAfter, _, _ := m.journal.depth()
	if f := flushes.Load(); f != 1 {
		t.Errorf("journal flushed %d times for one frame, want 1", f)
	}
	if records := recordsAfter - recordsBefore; records != n {
		t.Errorf("frame appended %d ack records, want %d", records, n)
	}
	if st := m.Stats(); st.Acked != n || st.InFlight != 0 {
		t.Errorf("after the frame: acked %d, in flight %d; want %d, 0", st.Acked, st.InFlight, n)
	}
}

// TestResultFrameSiblingBytesIndependent: the results of one frame are
// decoded into one shared copy, so appending to one result's bytes
// field inside OnResult must reallocate and leave its frame sibling
// untouched.
func TestResultFrameSiblingBytesIndependent(t *testing.T) {
	var played int
	m := startJournalMaster(t, func(r Result) {
		played++
		b, _ := r.Tuple.MustBytes("frame")
		switch r.Tuple.SeqNo {
		case 0:
			_ = append(b, make([]byte, 256)...)
		case 1:
			if string(b) != string([]byte{1, 1, 2, 3}) {
				t.Errorf("appending to the first result rewrote its sibling's bytes: %v", b)
			}
		}
	})
	m.nextSeq.Store(2) // seqs 0 and 1 were issued
	var rb wire.ResultBatch
	for seq := uint64(0); seq < 2; seq++ {
		b, err := tuple.Marshal(tuple.New(seq, seq).Set("frame", tuple.Bytes([]byte{byte(seq), 1, 2, 3})))
		if err != nil {
			t.Fatal(err)
		}
		rb.Add(wire.ResultMeta{TupleID: seq}, b)
	}
	var sc resultScratch
	if err := m.handleResultBatch(&workerConn{id: "w"}, &sc, readBuf(rb.Payload()), time.Now()); err != nil {
		t.Fatal(err)
	}
	if played != 2 {
		t.Fatalf("played %d results, want 2", played)
	}
}

// ackRecordsOnDisk reads every journal file at path without modifying
// it and returns the tuple IDs of the ack records found.
func ackRecordsOnDisk(t *testing.T, path string) map[uint64]bool {
	t.Helper()
	acked := make(map[uint64]bool)
	for _, jf := range journalFiles(path) {
		f, err := os.Open(jf.path)
		if err != nil {
			t.Error(err)
			continue
		}
		for {
			typ, payload, err := readJournalRecord(f)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, errTornRecord) {
					t.Error(err)
				}
				break
			}
			if typ == recAck && len(payload) == 8 {
				acked[binary.LittleEndian.Uint64(payload)] = true
			}
		}
		_ = f.Close()
	}
	return acked
}

// TestResultFrameAcksDurableBeforeSink checks WAL-before-sink for
// batched results end to end: when OnResult sees a result, its ack
// record is already in the primary's journal file and — with a standby
// attached — in the standby's mirror too.
func TestResultFrameAcksDurableBeforeSink(t *testing.T) {
	for _, withStandby := range []bool{false, true} {
		name := "journal"
		if withStandby {
			name = "standby"
		}
		t.Run(name, func(t *testing.T) {
			mem := transport.NewMem()
			dir := t.TempDir()
			pwal := filepath.Join(dir, "p-wal")
			swal := filepath.Join(dir, "s-wal")
			var played, early atomic.Int64
			cfg := primaryConfig(t, mem, pwal)
			cfg.OnResult = func(r Result) {
				if !ackRecordsOnDisk(t, pwal)[r.Tuple.ID] {
					early.Add(1)
				}
				if withStandby && !ackRecordsOnDisk(t, swal)[r.Tuple.ID] {
					early.Add(1)
				}
				played.Add(1)
			}
			m, err := StartMaster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = m.Close() })
			if withStandby {
				startHotStandby(t, mem, swal, nil, time.Hour)
				waitFor(t, 3*time.Second, func() bool { return len(standbys(m)) == 1 }, "standby attach")
			}
			startReconnectingWorker(t, mem, m.Addr(), "w1")
			waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "worker join")

			const n = 64
			src := apps.NewFrameSource(600, 7)
			batch := make([]*tuple.Tuple, n)
			for i := range batch {
				batch[i] = src.Next()
			}
			if err := m.SubmitBatch(batch); err != nil {
				t.Fatalf("SubmitBatch: %v", err)
			}
			// The detector filters some frames (ack-only entries), so wait
			// for the whole batch to ack and every released play to run.
			waitFor(t, 5*time.Second, func() bool {
				st := m.Stats()
				return st.Acked == n && st.InFlight == 0 && played.Load() == st.Played
			}, "batch acked and played")
			if played.Load() == 0 {
				t.Fatal("no result reached the sink")
			}
			t.Logf("%d of %d results played", played.Load(), n)
			if e := early.Load(); e != 0 {
				t.Fatalf("%d results reached the sink before their ack records were durable", e)
			}
		})
	}
}

// TestHostileResultSeqNotBuffered: a result carrying a seq this master
// never issued is counted as arrived but never enters the playback ring,
// so a corrupt entry far ahead of playback cannot grow the ring to cover
// the gap, and the issued results around it still play in order.
func TestHostileResultSeqNotBuffered(t *testing.T) {
	m := startJournalMaster(t, nil)
	m.nextSeq.Store(2) // seqs 0 and 1 were issued
	hostile := tuple.New(9, 2+1<<16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.deliverBatch(sinkResults(tuple.New(1, 1), hostile, tuple.New(0, 0)), nil)
	runtime.ReadMemStats(&after)
	st := m.Stats()
	if st.Arrived != 3 || st.Played != 2 || st.Skipped != 0 {
		t.Fatalf("arrived %d, played %d, skipped %d; want 3, 2, 0", st.Arrived, st.Played, st.Skipped)
	}
	m.sinkMu.Lock()
	buffered, next := m.sink.Len(), m.sink.Next()
	m.sinkMu.Unlock()
	if buffered != 0 || next != 2 {
		t.Fatalf("ring holds %d results with next seq %d; want 0 and 2", buffered, next)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("delivering a hostile seq allocated %d bytes", grew)
	}
}

// TestHostileTupleBatchCount: a tuple-batch frame whose count prefix
// claims far more entries than its payload holds must not make the
// worker allocate a tuple block of the claimed size, and an entry past
// the block's payload-derived size must fail cleanly, not index past it.
func TestHostileTupleBatchCount(t *testing.T) {
	entry, err := tuple.Marshal(tuple.New(1, 1).Set("frame", tuple.Bytes([]byte{1, 2, 3})))
	if err != nil {
		t.Fatal(err)
	}
	var tb wire.TupleBatch
	tb.Add(entry)
	tb.Add(nil) // an empty entry: framed, but too short to be a tuple
	payload := append([]byte(nil), tb.Payload()...)
	binary.LittleEndian.PutUint32(payload, 1<<30)

	var w Worker
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, err := w.decodeTupleBatch(payload)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("frame with a hostile count decoded without error")
	}
	if b == nil || len(b.tuples) != 1 || b.tuples[0].ID != 1 || len(b.res) != 1 {
		t.Fatal("batch does not hold exactly the one real entry")
	}
	if fit := (len(payload) - 4) / minTupleBatchEntry; cap(b.tuples) > fit {
		t.Fatalf("tuple block holds %d, more than the %d entries the payload fits", cap(b.tuples), fit)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding a hostile count allocated %d bytes", grew)
	}
}

// tupleBatchPayload encodes n tuples of a 600-byte frame field as one
// FrameTupleBatch payload.
func tupleBatchPayload(t *testing.T, n int) []byte {
	t.Helper()
	var tb wire.TupleBatch
	for i := 0; i < n; i++ {
		if err := appendTupleEntry(&tb, frameTuple(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	return append([]byte(nil), tb.Payload()...)
}

// TestTupleBlockReuse: the worker's decoded-tuple block rides its pooled
// batch from frame to frame. The last release clears the block, so a
// pooled batch pins no frame through it, and a block grown past
// maxPooledTupleBlock tuples is not pooled.
func TestTupleBlockReuse(t *testing.T) {
	var w Worker
	b, err := w.decodeTupleBatch(tupleBatchPayload(t, 64))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.tuples) != 64 || cap(b.tuples) != 64 || b.tuples[63].ID != 64 {
		t.Fatalf("decoded %d tuples (cap %d), want 64 ending at ID 64", len(b.tuples), cap(b.tuples))
	}
	block := b.block[:64]
	b.release()
	for i := range block {
		if block[i].ID != 0 || block[i].Len() != 0 {
			t.Fatalf("block slot %d still holds tuple %d after the last release", i, block[i].ID)
		}
	}

	// Field-less tuples pack the most entries into a payload.
	var tb wire.TupleBatch
	for i := 0; i <= maxPooledTupleBlock; i++ {
		if err := appendTupleEntry(&tb, tuple.New(uint64(i+1), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	b, err = w.decodeTupleBatch(tb.Payload())
	if err != nil {
		t.Fatal(err)
	}
	if cap(b.block) <= maxPooledTupleBlock {
		t.Fatalf("a %d-tuple frame decoded into a block of %d", maxPooledTupleBlock+1, cap(b.block))
	}
	b.release()
	var got []*procBatch
	for i := 0; i < 4; i++ {
		p := batchPool.Get().(*procBatch)
		got = append(got, p)
		if cap(p.block) > maxPooledTupleBlock {
			t.Fatalf("the pool holds a batch with a %d-tuple block", cap(p.block))
		}
	}
	for _, p := range got {
		batchPool.Put(p)
	}
}

// TestTupleBlockReuseAllocs: at steady state, decoding a 64-tuple frame
// and releasing its batch allocate nothing — block, verdicts and batch
// all come back from the pool.
func TestTupleBlockReuseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceiling holds for production builds only")
	}
	var w Worker
	payload := tupleBatchPayload(t, 64)
	allocs := testing.AllocsPerRun(100, func() {
		b, err := w.decodeTupleBatch(payload)
		if err != nil {
			t.Fatal(err)
		}
		b.release()
	})
	if allocs != 0 {
		t.Fatalf("a 64-tuple frame's decode and release cost %.1f allocations, want 0", allocs)
	}
}
