package runtime

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/graph"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
	"github.com/swingframework/swing/internal/wire"
)

// startFaultyWorker joins a worker whose link is fault-injected.
func startFaultyWorker(t *testing.T, mem *transport.Mem, m *Master, id string, fc transport.FaultConfig) *Worker {
	t.Helper()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	w, err := StartWorker(WorkerConfig{
		DeviceID:   id,
		MasterAddr: m.Addr(),
		App:        app,
		Transport:  transport.WithFaults(mem, fc),
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatalf("StartWorker(%s): %v", id, err)
	}
	t.Cleanup(func() { _ = w.Close() })
	return w
}

// TestRetransmitOnWorkerDeath kills a worker mid-stream and checks the
// fault-tolerance ledger: the dead worker's un-acked tuples are
// re-routed to the survivor (or shed at their deadline), no tuple is
// silently lost, and no result is played twice.
func TestRetransmitOnWorkerDeath(t *testing.T) {
	mem := transport.NewMem()
	col := &resultCollector{}
	m, err := StartMaster(MasterConfig{
		App:        containApp(t, containProcess),
		Policy:     routing.RR,
		ListenAddr: "master",
		Transport:  mem,
		OnResult:   col.add,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	startContainWorker(t, mem, m, "w1", containProcess)
	// w2's connection dies after 2 written frames: hello and the result
	// of the one tuple its operator lets through. Every later tuple waits
	// on gate, which opens only once the master has dropped w2, so the
	// break comes before any other ack and round-robin leaves w2 the rest
	// of its half of the stream to retransmit.
	gate := make(chan struct{})
	var passed atomic.Bool
	gated := func(em graph.Emitter, tp *tuple.Tuple) error {
		if passed.Swap(true) {
			<-gate
		}
		return containProcess(em, tp)
	}
	w2, err := StartWorker(WorkerConfig{
		DeviceID:   "w2",
		MasterAddr: m.Addr(),
		App:        containApp(t, gated),
		Transport:  transport.WithFaults(mem, transport.FaultConfig{Seed: 11, BreakAfterFrames: 2}),
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatalf("StartWorker(w2): %v", err)
	}
	t.Cleanup(func() { _ = w2.Close() })
	var openGate sync.Once
	t.Cleanup(func() { openGate.Do(func() { close(gate) }) }) // before w2.Close
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 2 }, "workers join")

	src := apps.NewFrameSource(600, 7)
	const n = 80
	for i := 0; i < n; i++ {
		if err := m.Submit(src.Next()); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}

	// Traffic re-routes: the broken worker leaves the routing table.
	waitFor(t, 5*time.Second, func() bool { return len(m.Workers()) == 1 }, "dead worker dropped")
	openGate.Do(func() { close(gate) })

	// Zero silent loss: every submitted tuple ends acked or shed, and
	// the in-flight table drains.
	waitFor(t, 15*time.Second, func() bool {
		st := m.Stats()
		return st.Acked+st.Shed == n && st.InFlight == 0
	}, "ledger balances (acked+shed == submitted, nothing in flight)")

	st := m.Stats()
	if st.Submitted != n {
		t.Fatalf("Submitted = %d, want %d (retries must not re-count)", st.Submitted, n)
	}
	if st.Retransmitted == 0 {
		t.Fatalf("no retransmissions despite mid-stream worker death: %+v", st)
	}
	// No result is delivered twice.
	seen := make(map[uint64]bool)
	for _, r := range col.snapshot() {
		if seen[r.Tuple.SeqNo] {
			t.Fatalf("seq %d delivered twice", r.Tuple.SeqNo)
		}
		seen[r.Tuple.SeqNo] = true
	}
}

// TestDeadlineShedding pins the retry deadline to (effectively) zero: a
// dead worker's backlog must be shed and accounted, not retried.
func TestDeadlineShedding(t *testing.T) {
	mem := transport.NewMem()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	m, err := StartMaster(MasterConfig{
		App:           app,
		ListenAddr:    "master",
		Transport:     mem,
		RetryDeadline: time.Nanosecond,
		Logger:        quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	// Break after hello + the first result batch, leaving a backlog on
	// the link (result batching acks many tuples per frame, so a higher
	// threshold would let the whole stream complete before the break).
	startFaultyWorker(t, mem, m, "w1", transport.FaultConfig{Seed: 3, BreakAfterFrames: 2})
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "worker joins")

	src := apps.NewFrameSource(600, 7)
	submitted := 0
	for i := 0; i < 40; i++ {
		if err := m.Submit(src.Next()); err != nil {
			break // worker died and nothing survives it
		}
		submitted++
	}
	waitFor(t, 5*time.Second, func() bool { return len(m.Workers()) == 0 }, "worker death")
	waitFor(t, 5*time.Second, func() bool {
		st := m.Stats()
		return st.Acked+st.Shed == int64(submitted) && st.InFlight == 0
	}, "backlog shed")
	st := m.Stats()
	if st.Retransmitted != 0 {
		t.Fatalf("expired tuples were retransmitted: %+v", st)
	}
	if st.Shed == 0 {
		t.Fatalf("nothing shed despite worker death with backlog: %+v", st)
	}
}

// TestWorkerReconnects breaks a worker's link mid-stream and checks it
// rejoins through backoff (including surviving injected dial failures)
// and resumes processing.
func TestWorkerReconnects(t *testing.T) {
	mem := transport.NewMem()
	col := &resultCollector{}
	m := startTestMaster(t, mem, col)
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	w, err := StartWorker(WorkerConfig{
		DeviceID:   "flaky",
		MasterAddr: m.Addr(),
		App:        app,
		// Every session dies after 6 frames; the first redial is also
		// rejected, exercising the backoff path. Counters are per
		// connection, so the rejoined session starts fresh.
		Transport: &failNthDial{
			Transport: transport.WithFaults(mem, transport.FaultConfig{Seed: 5, BreakAfterFrames: 6}),
			n:         2,
		},
		Reconnect:        true,
		ReconnectBackoff: 5 * time.Millisecond,
		Seed:             5,
		Logger:           quietLogger(),
	})
	if err != nil {
		t.Fatalf("StartWorker: %v", err)
	}
	t.Cleanup(func() { _ = w.Close() })
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "initial join")

	src := apps.NewFrameSource(600, 7)
	deadline := time.Now().Add(10 * time.Second)
	for w.Reconnects() < 2 && time.Now().Before(deadline) {
		_ = m.Submit(src.Next()) // ErrNoWorkers between sessions is expected
		time.Sleep(2 * time.Millisecond)
	}
	if w.Reconnects() < 2 {
		t.Fatalf("worker reconnected %d times, want >= 2", w.Reconnects())
	}
	// The rejoined worker is routable and processing again.
	processedAtRejoin := w.Processed()
	waitFor(t, 5*time.Second, func() bool {
		if len(m.Workers()) == 0 {
			return false
		}
		_ = m.Submit(src.Next())
		return w.Processed() > processedAtRejoin
	}, "processing resumes after rejoin")
}

// fakeMaster accepts one worker, completes the hello/deploy/start
// handshake, then vanishes without a Stop frame: an abrupt master death,
// as opposed to Master.Close's clean shutdown.
func fakeMaster(t *testing.T, mem *transport.Mem, addr string, app *apps.App) {
	t.Helper()
	ln, err := mem.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if typ, _, err := wire.ReadFrame(conn); err != nil || typ != wire.FrameHello {
			return
		}
		db, err := wire.EncodeJSON(wire.Deploy{Units: app.Graph.Operators(), ReportEveryMillis: 1000})
		if err != nil {
			return
		}
		_ = wire.WriteFrame(conn, wire.FrameDeploy, db)
		_ = wire.WriteFrame(conn, wire.FrameStart, nil)
		_ = conn.Close() // abrupt: no FrameStop
		_ = ln.Close()   // address released: every redial fails
	}()
}

// TestWorkerReconnectAttemptsExhausted bounds the rejoin budget: when the
// master vanishes for good (abruptly, with no clean Stop) the worker
// retries its budget and shuts down instead of spinning forever.
func TestWorkerReconnectAttemptsExhausted(t *testing.T) {
	mem := transport.NewMem()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	fakeMaster(t, mem, "fake-master", app)
	w, err := StartWorker(WorkerConfig{
		DeviceID:          "orphan",
		MasterAddr:        "fake-master",
		App:               app,
		Transport:         mem,
		Reconnect:         true,
		ReconnectBackoff:  time.Millisecond,
		ReconnectAttempts: 3,
		Logger:            quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })

	errCh := make(chan error, 1)
	go func() { errCh <- w.Wait() }()
	select {
	case err := <-errCh:
		// Giving up must be reported as a terminal error, not a silent
		// exit: callers (swingd) distinguish it from a clean stop.
		if !errors.Is(err, ErrReconnectExhausted) {
			t.Fatalf("Wait() = %v, want ErrReconnectExhausted", err)
		}
		if !errors.Is(w.Err(), ErrReconnectExhausted) {
			t.Fatalf("Err() = %v, want ErrReconnectExhausted", w.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not give up after exhausting reconnect attempts")
	}
}

// poisonApp builds a single-operator app whose processor fails on tuples
// carrying a "poison" field and filters (without error) tuples carrying a
// "filter" field.
func poisonApp(t *testing.T) *apps.App {
	t.Helper()
	g, err := graph.NewBuilder("poison").
		Source("source").
		Operator("op",
			graph.WithWork(0.01),
			graph.WithProcessor(func() graph.Processor {
				return graph.ProcessorFunc(func(em graph.Emitter, tp *tuple.Tuple) error {
					if _, err := tp.Get("poison"); err == nil {
						return errors.New("poisoned tuple")
					}
					if _, err := tp.Get("filter"); err == nil {
						return nil // swallow: stage emits nothing
					}
					out := tuple.New(tp.ID, tp.SeqNo)
					out.EmitNanos = tp.EmitNanos
					out.Set(apps.FieldResult, tuple.String("ok"))
					return em.Emit(out)
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

// TestProcessorDropsReported checks that processor errors and filtered
// tuples are acked rather than silently discarded: the master's ledger
// stays balanced and the drop count is surfaced in MasterStats.
func TestProcessorDropsReported(t *testing.T) {
	mem := transport.NewMem()
	app := poisonApp(t)
	col := &resultCollector{}
	m, err := StartMaster(MasterConfig{
		App:        app,
		ListenAddr: "master",
		Transport:  mem,
		OnResult:   col.add,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	w, err := StartWorker(WorkerConfig{
		DeviceID:   "w1",
		MasterAddr: m.Addr(),
		App:        app,
		Transport:  mem,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "join")

	const good, poisoned, filtered = 10, 4, 3
	seq := uint64(0)
	submit := func(field string) {
		tp := tuple.New(seq, seq)
		seq++
		tp.Set("x", tuple.Int64(1))
		if field != "" {
			tp.Set(field, tuple.Bool(true))
		}
		if err := m.Submit(tp); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	for i := 0; i < good; i++ {
		submit("")
	}
	for i := 0; i < poisoned; i++ {
		submit("poison")
	}
	for i := 0; i < filtered; i++ {
		submit("filter")
	}

	total := int64(good + poisoned + filtered)
	waitFor(t, 5*time.Second, func() bool {
		st := m.Stats()
		return st.Acked == total && st.InFlight == 0
	}, "every tuple acked, including drops and filtered")
	st := m.Stats()
	if st.WorkerDropped != poisoned {
		t.Fatalf("WorkerDropped = %d, want %d", st.WorkerDropped, poisoned)
	}
	if w.Dropped() != poisoned {
		t.Fatalf("worker Dropped() = %d, want %d", w.Dropped(), poisoned)
	}
	if st.Arrived != good {
		t.Fatalf("Arrived = %d, want %d (only real results deliver)", st.Arrived, good)
	}
}

// TestReorderCapFloor: a zero TargetFPS must not collapse the reorder
// buffer to one slot.
func TestReorderCapFloor(t *testing.T) {
	mem := transport.NewMem()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	app.TargetFPS = 0
	m, err := StartMaster(MasterConfig{
		App:        app,
		ListenAddr: "master",
		Transport:  mem,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	if c := m.sink.Cap(); c < minReorderCap {
		t.Fatalf("ring cap = %d, want >= %d", c, minReorderCap)
	}
	// Out-of-order arrivals within the floor are buffered, not skipped.
	m.nextSeq.Store(3) // seqs 0-2 were issued
	m.deliverBatch(sinkResults(tuple.New(1, 1), tuple.New(2, 2), tuple.New(0, 0)), nil)
	st := m.Stats()
	if st.Skipped != 0 || st.Played != 3 {
		t.Fatalf("stats = %+v, want 3 played and 0 skipped", st)
	}
}

// failNthDial rejects exactly the n-th Dial (1-indexed), delegating all
// others — targets one specific redial without touching the initial join.
type failNthDial struct {
	transport.Transport
	n     int32
	dials int32
}

func (f *failNthDial) Dial(addr string) (net.Conn, error) {
	if atomic.AddInt32(&f.dials, 1) == f.n {
		return nil, errors.New("injected redial failure")
	}
	return f.Transport.Dial(addr)
}

// flakyAcceptTransport fails the first N Accept calls with a transient
// error before delegating.
type flakyAcceptTransport struct {
	transport.Transport
	fails int32
}

func (f *flakyAcceptTransport) Listen(addr string) (net.Listener, error) {
	ln, err := f.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &flakyListener{Listener: ln, fails: &f.fails}, nil
}

type flakyListener struct {
	net.Listener
	fails *int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if atomic.AddInt32(l.fails, -1) >= 0 {
		return nil, errors.New("transient accept failure")
	}
	return l.Listener.Accept()
}

// TestAcceptLoopSurvivesTransientError: a spurious Accept error must not
// permanently lock new workers out of the swarm.
func TestAcceptLoopSurvivesTransientError(t *testing.T) {
	mem := transport.NewMem()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	m, err := StartMaster(MasterConfig{
		App:        app,
		ListenAddr: "master",
		Transport:  &flakyAcceptTransport{Transport: mem, fails: 3},
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	startTestWorker(t, mem, m, "w1", 1)
	waitFor(t, 5*time.Second, func() bool { return len(m.Workers()) == 1 },
		"worker joins despite transient accept errors")
}
