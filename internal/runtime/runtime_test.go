package runtime

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(discard{}, &slog.HandlerOptions{Level: slog.LevelError}))
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// resultCollector gathers playback deliveries. A Result's tuple is
// valid only during OnResult, so add keeps a clone.
type resultCollector struct {
	mu      sync.Mutex
	results []Result
}

func (c *resultCollector) add(r Result) {
	r.Tuple = r.Tuple.Clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results = append(c.results, r)
}

func (c *resultCollector) snapshot() []Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Result, len(c.results))
	copy(out, c.results)
	return out
}

func startTestMaster(t *testing.T, mem *transport.Mem, col *resultCollector) *Master {
	t.Helper()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	cfg := MasterConfig{
		App:        app,
		Policy:     routing.LRS,
		ListenAddr: "master",
		Transport:  mem,
		Logger:     quietLogger(),
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

func startTestWorker(t *testing.T, mem *transport.Mem, m *Master, id string, speed float64) *Worker {
	t.Helper()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	w, err := StartWorker(WorkerConfig{
		DeviceID:    id,
		MasterAddr:  m.Addr(),
		App:         app,
		Transport:   mem,
		SpeedFactor: speed,
		Logger:      quietLogger(),
	})
	if err != nil {
		t.Fatalf("StartWorker(%s): %v", id, err)
	}
	t.Cleanup(func() { _ = w.Close() })
	return w
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

func TestSubmitNoWorkers(t *testing.T) {
	mem := transport.NewMem()
	m := startTestMaster(t, mem, nil)
	tp := tuple.New(0, 0)
	tp.Set(apps.FieldFrame, tuple.Bytes(make([]byte, 100)))
	if err := m.Submit(tp); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("Submit with no workers: %v", err)
	}
}

func TestEndToEndPipeline(t *testing.T) {
	mem := transport.NewMem()
	col := &resultCollector{}
	m := startTestMaster(t, mem, col)
	startTestWorker(t, mem, m, "w1", 1)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "worker join")

	src := apps.NewFrameSource(600, 7) // small frames: fast test
	const n = 30
	for i := 0; i < n; i++ {
		if err := m.Submit(src.Next()); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return len(col.snapshot()) == n }, "all results")

	results := col.snapshot()
	for i, r := range results {
		if r.Tuple.SeqNo != uint64(i) {
			t.Fatalf("playback out of order at %d: seq %d", i, r.Tuple.SeqNo)
		}
		name, err := r.Tuple.MustString(apps.FieldResult)
		if err != nil {
			t.Fatalf("result %d missing name: %v", i, err)
		}
		if name == "" {
			t.Fatalf("empty recognition result")
		}
		if r.Worker != "w1" {
			t.Fatalf("result from %q", r.Worker)
		}
		if r.Latency <= 0 {
			t.Fatalf("non-positive latency")
		}
	}
	st := m.Stats()
	if st.Submitted != n || st.Arrived != n || st.Played != n {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMultiWorkerDistribution(t *testing.T) {
	mem := transport.NewMem()
	col := &resultCollector{}
	m := startTestMaster(t, mem, col)
	w1 := startTestWorker(t, mem, m, "w1", 1)
	w2 := startTestWorker(t, mem, m, "w2", 1)
	w3 := startTestWorker(t, mem, m, "w3", 1)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 3 }, "workers join")

	// Pace submissions so arrival disorder stays within the reorder
	// buffer (burst submission legitimately causes skips).
	src := apps.NewFrameSource(600, 7)
	const n = 90
	for i := 0; i < n; i++ {
		if err := m.Submit(src.Next()); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitFor(t, 10*time.Second, func() bool {
		st := m.Stats()
		return st.Arrived == n
	}, "all results arrive")
	total := w1.Processed() + w2.Processed() + w3.Processed()
	if total != n {
		t.Fatalf("workers processed %d, want %d", total, n)
	}
	// Playback delivers the overwhelming majority in order; skips only
	// happen when the buffer overflows.
	st := m.Stats()
	if st.Played+st.Skipped < n-5 {
		t.Fatalf("played %d + skipped %d out of %d", st.Played, st.Skipped, n)
	}
	plays := col.snapshot()
	for i := 1; i < len(plays); i++ {
		if plays[i].Tuple.SeqNo <= plays[i-1].Tuple.SeqNo {
			t.Fatalf("playback not in order at %d", i)
		}
	}
	// With equal speeds every worker should see some share.
	for _, w := range []*Worker{w1, w2, w3} {
		if w.Processed() == 0 {
			t.Fatal("a worker was never used")
		}
	}
}

func TestSlowWorkerGetsLessTraffic(t *testing.T) {
	mem := transport.NewMem()
	col := &resultCollector{}
	m := startTestMaster(t, mem, col)
	fast := startTestWorker(t, mem, m, "fast", 1)
	slow := startTestWorker(t, mem, m, "slow", 8) // 8x slower
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 2 }, "workers join")

	src := apps.NewFrameSource(600, 7)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(10 * time.Millisecond)
		defer ticker.Stop()
		for i := 0; i < 200; i++ {
			<-ticker.C
			if err := m.Submit(src.Next()); err != nil {
				return
			}
		}
	}()
	<-done
	waitFor(t, 10*time.Second, func() bool {
		return fast.Processed()+slow.Processed() >= 190
	}, "most frames processed")
	if fast.Processed() <= 2*slow.Processed() {
		t.Fatalf("fast=%d slow=%d: latency-based routing did not shift load",
			fast.Processed(), slow.Processed())
	}
}

func TestWorkerLeaveRecovery(t *testing.T) {
	mem := transport.NewMem()
	col := &resultCollector{}
	m := startTestMaster(t, mem, col)
	startTestWorker(t, mem, m, "w1", 1)
	w2 := startTestWorker(t, mem, m, "w2", 1)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 2 }, "workers join")

	src := apps.NewFrameSource(600, 7)
	for i := 0; i < 20; i++ {
		if err := m.Submit(src.Next()); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	_ = w2.Close() // abrupt leave
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "leave detected")

	// The swarm keeps processing on the survivor: the entire second
	// batch must arrive even though part of the first died with w2.
	arrivedAtLeave := m.Stats().Arrived
	for i := 0; i < 20; i++ {
		if err := m.Submit(src.Next()); err != nil {
			t.Fatalf("Submit after leave: %v", err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		return m.Stats().Arrived >= arrivedAtLeave+20
	}, "post-leave processing")
}

func TestWorkerJoinMidStream(t *testing.T) {
	mem := transport.NewMem()
	col := &resultCollector{}
	m := startTestMaster(t, mem, col)
	startTestWorker(t, mem, m, "w1", 1)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "first worker")

	src := apps.NewFrameSource(600, 7)
	for i := 0; i < 10; i++ {
		if err := m.Submit(src.Next()); err != nil {
			t.Fatal(err)
		}
	}
	w2 := startTestWorker(t, mem, m, "w2", 1)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 2 }, "join mid-stream")
	for i := 0; i < 60; i++ {
		if err := m.Submit(src.Next()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return m.Stats().Arrived == 70 }, "all processed")
	if w2.Processed() == 0 {
		t.Fatal("joiner never received traffic")
	}
}

func TestDuplicateWorkerIDRejected(t *testing.T) {
	mem := transport.NewMem()
	m := startTestMaster(t, mem, nil)
	startTestWorker(t, mem, m, "dup", 1)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "first join")

	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	// The second "dup" completes the handshake but is then dropped; its
	// connection closes shortly after.
	w2, err := StartWorker(WorkerConfig{
		DeviceID:   "dup",
		MasterAddr: m.Addr(),
		App:        app,
		Transport:  mem,
		Logger:     quietLogger(),
	})
	if err == nil {
		done := make(chan struct{})
		go func() {
			w2.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(3 * time.Second):
			t.Fatal("duplicate worker not disconnected")
		}
	}
	if got := len(m.Workers()); got != 1 {
		t.Fatalf("%d workers registered, want 1", got)
	}
}

func TestAppMismatchRejected(t *testing.T) {
	mem := transport.NewMem()
	m := startTestMaster(t, mem, nil)
	other, err := apps.VoiceTranslation()
	if err != nil {
		t.Fatal(err)
	}
	w, err := StartWorker(WorkerConfig{
		DeviceID:   "wrongapp",
		MasterAddr: m.Addr(),
		App:        other,
		Transport:  mem,
		Logger:     quietLogger(),
	})
	if err == nil {
		defer func() { _ = w.Close() }()
		// Handshake may race the close; either way, no registration.
	}
	time.Sleep(100 * time.Millisecond)
	if got := len(m.Workers()); got != 0 {
		t.Fatalf("%d workers, want 0", got)
	}
}

func TestMasterCloseStopsWorkers(t *testing.T) {
	mem := transport.NewMem()
	m := startTestMaster(t, mem, nil)
	w := startTestWorker(t, mem, m, "w1", 1)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "join")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		w.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("worker did not stop after master close")
	}
}

func TestOverTCPLoopback(t *testing.T) {
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	col := &resultCollector{}
	m, err := StartMaster(MasterConfig{
		App:        app,
		ListenAddr: "127.0.0.1:0",
		Transport:  transport.TCP{},
		OnResult:   col.add,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatalf("StartMaster: %v", err)
	}
	defer func() { _ = m.Close() }()

	w, err := StartWorker(WorkerConfig{
		DeviceID:   "tcp1",
		MasterAddr: m.Addr(),
		App:        app,
		Transport:  transport.TCP{},
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatalf("StartWorker: %v", err)
	}
	defer func() { _ = w.Close() }()
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "tcp join")

	src := apps.NewFrameSource(6000, 1)
	for i := 0; i < 10; i++ {
		if err := m.Submit(src.Next()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return len(col.snapshot()) == 10 }, "tcp results")
}

func TestStartWorkerErrors(t *testing.T) {
	mem := transport.NewMem()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StartWorker(WorkerConfig{DeviceID: "", MasterAddr: "x", App: app, Transport: mem}); err == nil {
		t.Fatal("empty device id accepted")
	}
	if _, err := StartWorker(WorkerConfig{DeviceID: "w", MasterAddr: "nowhere", App: app, Transport: mem}); err == nil {
		t.Fatal("dial to nowhere succeeded")
	}
	if _, err := StartWorker(WorkerConfig{DeviceID: "w", MasterAddr: "x", App: nil, Transport: mem}); err == nil {
		t.Fatal("nil app accepted")
	}
}

func TestStartMasterErrors(t *testing.T) {
	if _, err := StartMaster(MasterConfig{App: nil}); err == nil {
		t.Fatal("nil app accepted")
	}
}

// TestSubmitRightAfterStartWorker: the master registers a worker before
// it sends FrameStart, so once StartWorker returns, a Submit must find
// the worker routable — never ErrNoWorkers.
func TestSubmitRightAfterStartWorker(t *testing.T) {
	app := benchApp(t)
	mem := transport.NewMem()
	for i := 0; i < 200; i++ {
		m, err := StartMaster(MasterConfig{
			App:        app,
			ListenAddr: fmt.Sprintf("master-%d", i),
			Transport:  mem,
			Logger:     quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		w, err := StartWorker(WorkerConfig{
			DeviceID:   "w",
			MasterAddr: m.Addr(),
			App:        app,
			Transport:  mem,
			Logger:     quietLogger(),
		})
		if err != nil {
			_ = m.Close()
			t.Fatalf("iteration %d: StartWorker: %v", i, err)
		}
		err = m.Submit(plainTuple(0))
		_ = w.Close()
		_ = m.Close()
		if err != nil {
			t.Fatalf("iteration %d: Submit right after StartWorker: %v", i, err)
		}
	}
}
