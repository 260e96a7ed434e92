package runtime

import (
	"testing"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/graph"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
)

// runLiveSession drives a fixed frame budget through a master with one
// fast and one very slow worker and reports how many frames completed
// within the deadline.
func runLiveSession(t *testing.T, policy routing.PolicyKind) (completed int64, fast, slow int64) {
	t.Helper()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	mem := transport.NewMem()
	col := &resultCollector{}
	m, err := StartMaster(MasterConfig{
		App:        app,
		Policy:     policy,
		ListenAddr: "master",
		Transport:  mem,
		OnResult:   col.add,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	wFast := startTestWorker(t, mem, m, "fast", 1)
	wSlow := startTestWorker(t, mem, m, "slow", 80) // ~ the straggler E
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 2 }, "join")

	// Stream under a fixed wall-clock budget; under RR the straggler's
	// full queue blocks Submit (TCP backpressure), so fewer frames even
	// enter the swarm — the same mechanism the simulator models.
	src := apps.NewFrameSource(600, 5)
	deadline := time.After(2 * time.Second)
	ticker := time.NewTicker(3 * time.Millisecond)
	defer ticker.Stop()
stream:
	for {
		select {
		case <-ticker.C:
			done := make(chan error, 1)
			go func() { done <- m.Submit(src.Next()) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("submit: %v", err)
				}
			case <-deadline:
				break stream
			}
		case <-deadline:
			break stream
		}
	}
	// Short fixed drain window.
	time.Sleep(500 * time.Millisecond)
	st := m.Stats()
	return st.Arrived, wFast.Processed(), wSlow.Processed()
}

// TestLiveLRSBeatsRR: with a 25x-slower straggler in the swarm, the live
// LRS session completes more frames in the same wall-clock budget than RR,
// which keeps handing the straggler an equal share.
func TestLiveLRSBeatsRR(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live session in -short mode")
	}
	lrsDone, lrsFast, lrsSlow := runLiveSession(t, routing.LRS)
	rrDone, rrFast, rrSlow := runLiveSession(t, routing.RR)

	t.Logf("LRS: %d done (fast=%d slow=%d); RR: %d done (fast=%d slow=%d)",
		lrsDone, lrsFast, lrsSlow, rrDone, rrFast, rrSlow)
	if lrsDone <= rrDone {
		t.Fatalf("live LRS completed %d <= RR %d", lrsDone, rrDone)
	}
	// LRS shifts share decisively toward the fast worker; RR cannot.
	if lrsFast < 3*lrsSlow {
		t.Fatalf("LRS split fast=%d slow=%d, want heavy skew", lrsFast, lrsSlow)
	}
}

// TestSubmitBlockedOnDeselectedWorkerReroutes: a Submit blocked on the
// full send queue of the worker it drew goes round again as soon as a
// published table deselects that worker, instead of waiting for the
// queue to drain. The "stuck" worker's processor never finishes, and its
// send-queue slots are all taken by the test, so the Submit blocks
// deterministically and nothing sent to stuck is ever acked.
func TestSubmitBlockedOnDeselectedWorkerReroutes(t *testing.T) {
	mem := transport.NewMem()
	col := &resultCollector{}
	rc := routing.DefaultConfig(routing.LRS)
	rc.ReconfigurePeriod = time.Hour // the test flips the selection itself
	rc.ProbeEvery = 0
	m, err := StartMaster(MasterConfig{
		App:        containApp(t, containProcess),
		Policy:     routing.LRS,
		Routing:    &rc,
		ListenAddr: "master",
		Transport:  mem,
		OnResult:   col.add,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	release := make(chan struct{})
	startContainWorker(t, mem, m, "stuck", func(em graph.Emitter, tp *tuple.Tuple) error {
		<-release
		return containProcess(em, tp)
	})
	startContainWorker(t, mem, m, "free", containProcess)
	t.Cleanup(func() { close(release) })
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 2 }, "both workers join")

	selectOnly := func(id, other string) {
		m.withRouter(func(r *routing.Router) {
			r.SeedEstimates(map[string]routing.Estimate{
				id:    {Latency: time.Millisecond, Processing: time.Millisecond, Samples: 1},
				other: {Latency: time.Second, Processing: time.Second, Samples: 1},
			})
			r.Reconfigure(1) // Λ 1/s: the 1000/s worker alone covers it
		})
		for _, in := range m.Snapshot() {
			if in.Selected != (in.ID == id) {
				t.Fatalf("%s is not the only selected worker: %+v", id, m.Snapshot())
			}
		}
	}
	selectOnly("stuck", "free")
	stuck := m.workerMap()["stuck"]
	for len(stuck.slots) < cap(stuck.slots) {
		stuck.slots <- struct{}{}
	}

	done := make(chan error, 1)
	go func() { done <- m.Submit(plainTuple(0)) }()
	waitFor(t, 2*time.Second, func() bool { return m.inflight.size() == 1 }, "Submit tracked on stuck")
	selectOnly("free", "stuck")
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit still blocked on a worker the published table deselected")
	}
	waitFor(t, 5*time.Second, func() bool { return len(col.snapshot()) == 1 }, "the tuple acked")
	if got := col.snapshot()[0].Worker; got != "free" {
		t.Fatalf("tuple processed by %q, want free", got)
	}
	if st := m.Stats(); st.Acked != 1 || st.InFlight != 0 {
		t.Fatalf("ledger acked %d in flight %d, want 1 and 0", st.Acked, st.InFlight)
	}
}
