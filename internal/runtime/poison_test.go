package runtime

import (
	"errors"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/graph"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
)

// containProcess is the healthy containment-test operator: it obeys the
// "panic" and "hang" tuple fields (the two misbehaviors the worker
// sandbox must contain) and otherwise echoes a result.
func containProcess(em graph.Emitter, tp *tuple.Tuple) error {
	if _, err := tp.Get("panic"); err == nil {
		panic("injected operator panic")
	}
	if v, err := tp.Get("hang"); err == nil {
		if ms, ok := v.AsInt64(); ok && ms > 0 {
			time.Sleep(time.Duration(ms) * time.Millisecond)
		}
	}
	out := tuple.New(tp.ID, tp.SeqNo)
	out.EmitNanos = tp.EmitNanos
	out.Set(apps.FieldResult, tuple.String("ok"))
	return em.Emit(out)
}

// containApp builds the single-operator containment app around proc. All
// variants share the graph name "contain", so a master deploying the
// healthy variant admits workers running a sick or slow variant — which
// is exactly how a genuinely faulty device looks to the swarm.
func containApp(t *testing.T, proc func(graph.Emitter, *tuple.Tuple) error) *apps.App {
	t.Helper()
	g, err := graph.NewBuilder("contain").
		Source("source").
		Operator("op",
			graph.WithWork(0.01),
			graph.WithProcessor(func() graph.Processor { return graph.ProcessorFunc(proc) })).
		Sink("sink").
		Chain("source", "op", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return &apps.App{Graph: g, FrameBytes: 64, TargetFPS: 24, TotalWork: 0.01}
}

func startContainWorker(t *testing.T, mem *transport.Mem, m *Master, id string, proc func(graph.Emitter, *tuple.Tuple) error) *Worker {
	t.Helper()
	w, err := StartWorker(WorkerConfig{
		DeviceID:   id,
		MasterAddr: m.Addr(),
		App:        containApp(t, proc),
		Transport:  mem,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatalf("StartWorker(%s): %v", id, err)
	}
	t.Cleanup(func() { _ = w.Close() })
	return w
}

// TestOperatorPanicContained checks the sandbox half of failure
// containment: an operator panic becomes a typed DropPanic notice — the
// worker process survives, keeps its master connection, and processes
// the next tuple as if nothing happened.
func TestOperatorPanicContained(t *testing.T) {
	mem := transport.NewMem()
	col := &resultCollector{}
	m, err := StartMaster(MasterConfig{
		App:        containApp(t, containProcess),
		ListenAddr: "master",
		Transport:  mem,
		OnResult:   col.add,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	w := startContainWorker(t, mem, m, "w1", containProcess)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "join")

	// The dropped tuple never reaches the sink, so it gets a high seq: a
	// hole at seq 0 would (by design) hold in-order playback until the
	// reorder buffer overflows.
	bad := plainTuple(1000)
	bad.Set("panic", tuple.Bool(true))
	if err := m.Submit(bad); err != nil {
		t.Fatalf("Submit panic tuple: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return m.Stats().DropPanics == 1 }, "panic drop notice accounted")
	if got := w.Panics(); got != 1 {
		t.Fatalf("worker recovered %d panics, want 1", got)
	}
	if len(m.Workers()) != 1 {
		t.Fatal("worker lost its master connection after an operator panic")
	}

	// The panicked chain was retired; a fresh one handles the next tuple.
	if err := m.Submit(plainTuple(0)); err != nil {
		t.Fatalf("Submit after panic: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return len(col.snapshot()) == 1 }, "healthy tuple after panic")
	st := m.Stats()
	if st.WorkerDropped != 1 || st.DropPanics != 1 || st.DropErrors != 0 {
		t.Fatalf("drop accounting = dropped %d, panics %d, errors %d; want 1/1/0",
			st.WorkerDropped, st.DropPanics, st.DropDeadlines)
	}
}

// TestOpDeadlineAbandonsHungTuple checks the watchdog half: a tuple that
// hangs its operator past OpDeadline is abandoned with a DropDeadline
// notice instead of wedging the worker's pool slot forever.
func TestOpDeadlineAbandonsHungTuple(t *testing.T) {
	mem := transport.NewMem()
	col := &resultCollector{}
	m, err := StartMaster(MasterConfig{
		App:        containApp(t, containProcess),
		ListenAddr: "master",
		Transport:  mem,
		OnResult:   col.add,
		OpDeadline: 50 * time.Millisecond,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	w := startContainWorker(t, mem, m, "w1", containProcess)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "join")

	// High seq: the abandoned tuple never plays, and a hole at seq 0 would
	// stall in-order playback (see TestOperatorPanicContained).
	hung := plainTuple(1000)
	hung.Set("hang", tuple.Int64(400))
	if err := m.Submit(hung); err != nil {
		t.Fatalf("Submit hung tuple: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return m.Stats().DropDeadlines == 1 }, "deadline drop notice accounted")
	if got := w.Deadlined(); got != 1 {
		t.Fatalf("worker abandoned %d tuples, want 1", got)
	}

	// The slot respawned its runner; later tuples flow normally even while
	// the abandoned chain invocation is still sleeping.
	if err := m.Submit(plainTuple(0)); err != nil {
		t.Fatalf("Submit after deadline: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return len(col.snapshot()) == 1 }, "healthy tuple after deadline drop")
}

// TestPoisonQuarantineSparesHealthyBreakers is the issue's containment
// scenario: one poison tuple panics on three healthy workers in turn and
// must end up quarantined (ShedPoison) WITHOUT opening any of their
// breakers — only the first burned worker is charged, once.
func TestPoisonQuarantineSparesHealthyBreakers(t *testing.T) {
	mem := transport.NewMem()
	col := &resultCollector{}
	m, err := StartMaster(MasterConfig{
		App:              containApp(t, containProcess),
		ListenAddr:       "master",
		Transport:        mem,
		OnResult:         col.add,
		PoisonAttempts:   3,
		BreakerThreshold: 3,
		BreakerCooldown:  10 * time.Second,
		Logger:           quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	for _, id := range []string{"w1", "w2", "w3"} {
		startContainWorker(t, mem, m, id, containProcess)
	}
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 3 }, "three workers join")

	// High seq: the quarantined tuple never plays, and a hole at seq 0
	// would stall in-order playback of the healthy load below.
	bad := plainTuple(1000)
	bad.Set("panic", tuple.Bool(true))
	if err := m.Submit(bad); err != nil {
		t.Fatalf("Submit poison tuple: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return m.Stats().ShedPoison == 1 }, "poison tuple quarantined")

	st := m.Stats()
	if st.Shed < 1 {
		t.Fatalf("ShedPoison must be a subset of Shed: shed %d, poison %d", st.Shed, st.ShedPoison)
	}
	for _, ws := range st.Workers {
		if ws.Breaker != "closed" || ws.BreakerOpens != 0 {
			t.Fatalf("worker %s breaker %s (opened %d times): poison tuple tripped a healthy worker",
				ws.ID, ws.Breaker, ws.BreakerOpens)
		}
	}

	// The swarm is intact: healthy load is routable to all three workers
	// and delivers in full.
	const n = 12
	for i := uint64(0); i < n; i++ {
		if err := m.Submit(plainTuple(i)); err != nil {
			t.Fatalf("Submit healthy %d: %v", i, err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return len(col.snapshot()) == n }, "healthy load delivered after quarantine")
}

// TestPoisonQuarantinedWhenSwarmSmallerThanBudget: with fewer workers
// than PoisonAttempts, a poison tuple burns every worker before it can
// reach the budget. Its next re-dispatch finds no unburned worker and
// must quarantine it, not bounce it among the burned ones forever.
func TestPoisonQuarantinedWhenSwarmSmallerThanBudget(t *testing.T) {
	mem := transport.NewMem()
	m, err := StartMaster(MasterConfig{
		App:            containApp(t, containProcess),
		ListenAddr:     "master",
		Transport:      mem,
		PoisonAttempts: 3,
		Logger:         quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	for _, id := range []string{"w1", "w2"} {
		startContainWorker(t, mem, m, id, containProcess)
	}
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 2 }, "two workers join")

	bad := plainTuple(0)
	bad.Set("panic", tuple.Bool(true))
	if err := m.Submit(bad); err != nil {
		t.Fatalf("Submit poison tuple: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool {
		st := m.Stats()
		return st.ShedPoison == 1 && st.InFlight == 0 && ledgerBalanced(st)
	}, "poison tuple quarantined with a balanced ledger")
}

// TestSickWorkerStillTripsBreaker is the flip side of quarantine: a
// worker that fails EVERY tuple (fresh failures, not one bad tuple
// bouncing around) must still accumulate consecutive breaker charges and
// trip — quarantine's first-failure-only charging does not grant sick
// devices immunity. Each of its tuples re-dispatches to the healthy
// worker and is delivered, not quarantined.
func TestSickWorkerStillTripsBreaker(t *testing.T) {
	mem := transport.NewMem()
	col := &resultCollector{}
	m, err := StartMaster(MasterConfig{
		App:              containApp(t, containProcess),
		ListenAddr:       "master",
		Transport:        mem,
		OnResult:         col.add,
		PoisonAttempts:   3,
		BreakerThreshold: 3,
		BreakerCooldown:  10 * time.Second,
		Logger:           quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	sickProc := func(graph.Emitter, *tuple.Tuple) error {
		return errors.New("sick device: refusing every tuple")
	}
	startContainWorker(t, mem, m, "sick", sickProc)
	startContainWorker(t, mem, m, "healthy", containProcess)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 2 }, "both workers join")

	// Feed plain tuples until the sick worker's breaker opens. Every tuple
	// it touches is that tuple's FIRST failure, so each one charges it.
	var submitted int
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := m.Stats()
		var sick *WorkerStatus
		for i := range st.Workers {
			if st.Workers[i].ID == "sick" {
				sick = &st.Workers[i]
			}
		}
		if sick != nil && sick.Breaker == "open" {
			break
		}
		if submitted < 60 {
			if err := m.Submit(plainTuple(uint64(submitted))); err != nil {
				t.Fatalf("Submit %d: %v", submitted, err)
			}
			submitted++
		}
		time.Sleep(20 * time.Millisecond)
	}

	st := m.Stats()
	var sickOpens, healthyOpens int64
	for _, ws := range st.Workers {
		switch ws.ID {
		case "sick":
			sickOpens = ws.BreakerOpens
			if ws.Breaker != "open" {
				t.Fatalf("sick worker breaker %q after %d tuples, want open", ws.Breaker, submitted)
			}
		case "healthy":
			healthyOpens = ws.BreakerOpens
			if ws.Breaker != "closed" {
				t.Fatalf("healthy worker breaker %q, want closed", ws.Breaker)
			}
		}
	}
	if sickOpens != 1 || healthyOpens != 0 {
		t.Fatalf("breaker opens = sick %d, healthy %d; want 1, 0", sickOpens, healthyOpens)
	}

	// Worker-specific failures are NOT poison: every tuple that failed on
	// the sick worker re-dispatched to the healthy one and was delivered.
	waitFor(t, 10*time.Second, func() bool {
		return len(col.snapshot()) == submitted && m.Stats().InFlight == 0
	}, "all tuples delivered despite the sick worker")
	if got := m.Stats().ShedPoison; got != 0 {
		t.Fatalf("ShedPoison = %d: worker-specific failures were quarantined as poison", got)
	}
	seen := make(map[uint64]bool)
	for _, r := range col.snapshot() {
		if seen[r.Tuple.SeqNo] {
			t.Fatalf("seq %d delivered twice", r.Tuple.SeqNo)
		}
		seen[r.Tuple.SeqNo] = true
	}
}

// TestHedgedRetransmitStragglers pins the hedging tentpole: tuples stuck
// on a pathologically slow worker past the hedge bar are speculatively
// duplicated to the fast worker, the first result wins, and the sink's
// dedup keeps delivery at-most-once — so tail latency collapses without
// giving up the straggler's eventual answer.
func TestHedgedRetransmitStragglers(t *testing.T) {
	mem := transport.NewMem()
	col := &resultCollector{}
	m, err := StartMaster(MasterConfig{
		App:        containApp(t, containProcess),
		ListenAddr: "master",
		Transport:  mem,
		OnResult:   col.add,
		HedgeAfter: 60 * time.Millisecond,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	slowProc := func(em graph.Emitter, tp *tuple.Tuple) error {
		time.Sleep(500 * time.Millisecond)
		return containProcess(em, tp)
	}
	startContainWorker(t, mem, m, "slow", slowProc)
	startContainWorker(t, mem, m, "fast", containProcess)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 2 }, "both workers join")

	const n = 8
	for i := uint64(0); i < n; i++ {
		if err := m.Submit(plainTuple(i)); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Everything lands despite the straggler, well before the slow worker
	// could have drained its share serially, and at least one dispatch was
	// hedged.
	waitFor(t, 10*time.Second, func() bool {
		return len(col.snapshot()) == n && m.Stats().Hedged > 0
	}, "all delivered with hedged dispatches")
	waitFor(t, 10*time.Second, func() bool {
		st := m.Stats()
		return st.InFlight == 0 && st.Acked == n
	}, "ledger settles after hedging")
	seen := make(map[uint64]bool)
	for _, r := range col.snapshot() {
		if seen[r.Tuple.SeqNo] {
			t.Fatalf("seq %d delivered twice despite hedged duplicates", r.Tuple.SeqNo)
		}
		seen[r.Tuple.SeqNo] = true
	}
}
