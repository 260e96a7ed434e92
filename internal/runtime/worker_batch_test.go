package runtime

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/graph"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
	"github.com/swingframework/swing/internal/wire"
)

// TestWorkerBatchStreamsFinishedResults: a batch's results leave as soon
// as they and their predecessors are finished, not when the whole batch
// is. The last tuple of a 16-tuple SubmitBatch holds its operator until
// the test has seen the first 15 acked (at most 5 s); with AckLinger 0 a
// worker that held results until the batch was done would ack nothing
// before the sleeper finished.
func TestWorkerBatchStreamsFinishedResults(t *testing.T) {
	gate := make(chan struct{})
	var sleeperDone atomic.Bool
	proc := func(em graph.Emitter, tp *tuple.Tuple) error {
		if _, err := tp.Get("sleep"); err == nil {
			select {
			case <-gate:
			case <-time.After(5 * time.Second):
			}
			sleeperDone.Store(true)
		}
		return containProcess(em, tp)
	}
	mem := transport.NewMem()
	col := &resultCollector{}
	m, err := StartMaster(MasterConfig{
		App:        containApp(t, proc),
		ListenAddr: "master",
		Transport:  mem,
		OnResult:   col.add,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	startContainWorker(t, mem, m, "w1", proc)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "join")

	const n = 16
	batch := make([]*tuple.Tuple, n)
	for i := range batch {
		batch[i] = plainTuple(uint64(i))
	}
	batch[n-1].Set("sleep", tuple.Bool(true))
	if err := m.SubmitBatch(batch); err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return m.Stats().Acked == n-1 }, "first 15 results acked")
	if sleeperDone.Load() {
		t.Fatal("the first 15 results were acked only after the sleeper finished")
	}
	close(gate)
	waitFor(t, 5*time.Second, func() bool { return len(col.snapshot()) == n }, "sleeper's result")
	for i, r := range col.snapshot() {
		if r.Tuple.SeqNo != uint64(i) {
			t.Fatalf("result %d has seq %d", i, r.Tuple.SeqNo)
		}
	}
}

// mixedApp is a one-operator app whose processor obeys the tuple fields
// "panic", "fail", "filter" and "two", and stamps every output with the
// number of the processor instance that made it, so a test can tell a
// rebuilt chain from the one it replaced.
func mixedApp(t *testing.T) *apps.App {
	t.Helper()
	var instances atomic.Int64
	g, err := graph.NewBuilder("mixed").
		Source("source").
		Operator("op",
			graph.WithWork(0.01),
			graph.WithProcessor(func() graph.Processor {
				inst := instances.Add(1)
				return graph.ProcessorFunc(func(em graph.Emitter, tp *tuple.Tuple) error {
					has := func(f string) bool { _, err := tp.Get(f); return err == nil }
					switch {
					case has("panic"):
						panic("injected operator panic")
					case has("fail"):
						return errors.New("injected operator error")
					case has("filter"):
						return nil
					}
					outs := 1
					if has("two") {
						outs = 2
					}
					for k := 0; k < outs; k++ {
						out := tuple.New(tp.ID, tp.SeqNo)
						out.Set("inst", tuple.Int64(inst))
						if err := em.Emit(out); err != nil {
							return err
						}
					}
					return nil
				})
			})).
		Sink("sink").
		Chain("source", "op", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return &apps.App{Graph: g, FrameBytes: 64, TargetFPS: 24, TotalWork: 0.01}
}

// wireMaster stands in for a master at addr: it completes one worker's
// hello/deploy/start handshake and returns the connection, over which a
// test writes frames and reads the worker's result frames directly.
func wireMaster(t *testing.T, mem *transport.Mem, app *apps.App, deploy wire.Deploy) (*Worker, net.Conn) {
	t.Helper()
	ln, err := mem.Listen("wire-master")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	started := make(chan *Worker, 1)
	go func() {
		w, err := StartWorker(WorkerConfig{
			DeviceID:   "w1",
			MasterAddr: "wire-master",
			App:        app,
			Transport:  mem,
			Logger:     quietLogger(),
		})
		if err != nil {
			t.Errorf("StartWorker: %v", err)
		}
		started <- w
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if typ, _, err := wire.ReadFrame(conn); err != nil || typ != wire.FrameHello {
		t.Fatalf("expected hello, got %v: %v", typ, err)
	}
	db, err := wire.EncodeJSON(deploy)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.FrameDeploy, db); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.FrameStart, nil); err != nil {
		t.Fatal(err)
	}
	w := <-started
	if w == nil {
		t.FailNow()
	}
	t.Cleanup(func() { _ = w.Close() })
	return w, conn
}

// sentResult is one result-frame entry as the worker sent it.
type sentResult struct {
	meta wire.ResultMeta
	out  *tuple.Tuple // nil for an ack-only entry
}

// readResults reads result frames from conn until n entries arrived,
// skipping stats frames.
func readResults(t *testing.T, conn net.Conn, n int) []sentResult {
	t.Helper()
	var got []sentResult
	for len(got) < n {
		typ, payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("after %d results: %v", len(got), err)
		}
		if typ != wire.FrameResultBatch {
			continue
		}
		err = wire.DecodeResultBatch(payload, func(entry []byte) error {
			meta, tb, err := wire.DecodeResult(entry)
			if err != nil {
				return err
			}
			r := sentResult{meta: meta}
			if len(tb) > 0 {
				if r.out, err = tuple.Unmarshal(tb); err != nil {
					return err
				}
			}
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return got
}

// TestWorkerBatchMixedOutcomes runs one batch that mixes plain, filtered,
// failing, panicking and two-output tuples through a worker: its result
// entries arrive in tuple order with each verdict's reason, the worker's
// counters are exact, and the tuples after the panic ran on a rebuilt
// chain.
func TestWorkerBatchMixedOutcomes(t *testing.T) {
	mem := transport.NewMem()
	w, conn := wireMaster(t, mem, mixedApp(t), wire.Deploy{
		Units:             []string{"op"},
		ReportEveryMillis: 60_000,
		Parallelism:       1,
	})
	fields := []string{"", "two", "filter", "fail", "", "panic", "", "two", "filter"}
	var tb wire.TupleBatch
	for i, f := range fields {
		tp := tuple.New(uint64(i), uint64(i))
		tp.Attempt = 2
		tp.EmitNanos = int64(1000 + i)
		if f != "" {
			tp.Set(f, tuple.Bool(true))
		}
		b, err := tuple.Marshal(tp)
		if err != nil {
			t.Fatal(err)
		}
		tb.Add(b)
	}
	if err := wire.WriteFrame(conn, wire.FrameTupleBatch, tb.Payload()); err != nil {
		t.Fatal(err)
	}

	type want struct {
		id      uint64
		dropped bool
		reason  wire.DropReason
		out     bool
	}
	ok := func(id uint64) want { return want{id: id, out: true} }
	wants := []want{
		ok(0), ok(1), ok(1),
		{id: 2, reason: wire.DropFiltered},
		{id: 3, dropped: true, reason: wire.DropError},
		ok(4),
		{id: 5, dropped: true, reason: wire.DropPanic},
		ok(6), ok(7), ok(7),
		{id: 8, reason: wire.DropFiltered},
	}
	got := readResults(t, conn, len(wants))
	insts := map[uint64]int64{}
	for i, g := range got {
		wt := wants[i]
		m := g.meta
		if m.TupleID != wt.id || m.Dropped != wt.dropped || m.Reason != wt.reason || (g.out != nil) != wt.out {
			t.Fatalf("entry %d = id %d dropped %v reason %v result %v; want %+v",
				i, m.TupleID, m.Dropped, m.Reason, g.out != nil, wt)
		}
		if m.Attempt != 2 || m.EmitNanos != int64(1000+m.TupleID) || m.ProcNanos < 0 {
			t.Fatalf("entry %d echoes attempt %d, emit %d, proc %d", i, m.Attempt, m.EmitNanos, m.ProcNanos)
		}
		if g.out != nil {
			v, err := g.out.Get("inst")
			if err != nil {
				t.Fatalf("entry %d: %v", i, err)
			}
			insts[m.TupleID], _ = v.AsInt64()
		}
	}
	if insts[0] != insts[1] || insts[1] != insts[4] {
		t.Fatalf("tuples before the panic ran on instances %v", insts)
	}
	if insts[6] == insts[4] || insts[6] != insts[7] {
		t.Fatalf("tuples after the panic ran on instances %d and %d, the panicked chain's was %d",
			insts[6], insts[7], insts[4])
	}
	if p, d, pn := w.Processed(), w.Dropped(), w.Panics(); p != 5 || d != 2 || pn != 1 {
		t.Fatalf("processed %d, dropped %d, panics %d; want 5, 2, 1", p, d, pn)
	}
}

// TestOpDeadlineMidBatch: with the watchdog armed, a tuple that hangs in
// the middle of a batch is abandoned with one DropDeadline notice while
// the batch's other seven tuples complete, and a later batch flows.
func TestOpDeadlineMidBatch(t *testing.T) {
	mem := transport.NewMem()
	col := &resultCollector{}
	m, err := StartMaster(MasterConfig{
		App:        containApp(t, containProcess),
		ListenAddr: "master",
		Transport:  mem,
		OnResult:   col.add,
		OpDeadline: 100 * time.Millisecond,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	w := startContainWorker(t, mem, m, "w1", containProcess)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "join")

	// The hung tuple never plays, so it takes a seq past every other:
	// a hole among them would stall in-order playback.
	batch := make([]*tuple.Tuple, 8)
	seq := uint64(0)
	for i := range batch {
		if i == 3 {
			batch[i] = plainTuple(1000)
			batch[i].Set("hang", tuple.Int64(1000))
			continue
		}
		batch[i] = plainTuple(seq)
		seq++
	}
	if err := m.SubmitBatch(batch); err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool {
		st := m.Stats()
		return st.Acked == 8 && st.InFlight == 0
	}, "the batch's eight tuples acked")
	if n := len(col.snapshot()); n != 7 {
		t.Fatalf("%d results played, want the 7 healthy ones", n)
	}
	if st := m.Stats(); st.DropDeadlines != 1 || st.WorkerDropped != 1 {
		t.Fatalf("DropDeadlines %d, WorkerDropped %d; want 1, 1", st.DropDeadlines, st.WorkerDropped)
	}
	if got := w.Deadlined(); got != 1 {
		t.Fatalf("worker abandoned %d tuples, want 1", got)
	}

	later := make([]*tuple.Tuple, 8)
	for i := range later {
		later[i] = plainTuple(seq)
		seq++
	}
	if err := m.SubmitBatch(later); err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return len(col.snapshot()) == 15 }, "the later batch's results")
}
