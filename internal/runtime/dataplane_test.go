package runtime

import (
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/wire"
)

// TestCoalescedMasterWrites proves the master's per-connection writer
// batches queued frames into shared Write calls: a burst submitted
// faster than the link drains must reach the worker in noticeably fewer
// writes than frames. The fault transport (no faults configured) wraps
// the master's listener purely for its frame/write counters.
func TestCoalescedMasterWrites(t *testing.T) {
	mem := transport.NewMem()
	mf := transport.WithFaults(mem, transport.FaultConfig{})
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	col := &resultCollector{}
	m, err := StartMaster(MasterConfig{
		App:        app,
		Policy:     routing.LRS,
		ListenAddr: "master",
		Transport:  mf,
		OnResult:   col.add,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	startTestWorker(t, mem, m, "w1", 1)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "join")

	src := apps.NewFrameSource(600, 7)
	const n = 120
	for i := 0; i < n; i++ {
		if err := m.Submit(src.Next()); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	waitFor(t, 15*time.Second, func() bool {
		st := m.Stats()
		return st.Acked+st.Shed == n
	}, "all acked")

	frames, calls := mf.FramesWritten(), mf.WriteCalls()
	// Deploy + Start + n tuple frames, before any Stop.
	if frames < n+2 {
		t.Fatalf("FramesWritten = %d, want >= %d", frames, n+2)
	}
	if calls >= frames {
		t.Fatalf("WriteCalls = %d >= FramesWritten = %d: no coalescing", calls, frames)
	}
	if saved := frames - calls; saved < n/4 {
		t.Fatalf("only %d writes saved over %d frames: coalescing too weak", saved, frames)
	}
	t.Logf("master frames=%d writes=%d (%.1f frames/write)",
		frames, calls, float64(frames)/float64(calls))
}

// TestAckBatchingReducesUpstreamFrames: with a linger window, a worker
// must pack many results per FrameResultBatch, so the upstream frame
// count stays far below the result count. Counters ride the worker's
// fault-wrapped (but fault-free) transport.
func TestAckBatchingReducesUpstreamFrames(t *testing.T) {
	mem := transport.NewMem()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	col := &resultCollector{}
	m, err := StartMaster(MasterConfig{
		App:        app,
		Policy:     routing.LRS,
		ListenAddr: "master",
		Transport:  mem,
		AckLinger:  5 * time.Millisecond,
		OnResult:   col.add,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	wf := transport.WithFaults(mem, transport.FaultConfig{})
	w, err := StartWorker(WorkerConfig{
		DeviceID:   "w1",
		MasterAddr: m.Addr(),
		App:        app,
		Transport:  wf,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "join")

	src := apps.NewFrameSource(600, 7)
	const n = 120
	for i := 0; i < n; i++ {
		if err := m.Submit(src.Next()); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	waitFor(t, 15*time.Second, func() bool { return m.Stats().Arrived == n }, "all arrive")

	// Worker frames: hello + a stats report or two + result batches. If
	// every result rode its own frame this would exceed n; batching must
	// keep it far under.
	frames := wf.FramesWritten()
	if frames >= n {
		t.Fatalf("worker wrote %d frames for %d results: no ack batching", frames, n)
	}
	if frames > n/2+10 {
		t.Fatalf("worker wrote %d frames for %d results: batching too weak", frames, n)
	}
	t.Logf("worker frames=%d for %d results", frames, n)
}

// runLingerLatencySession submits widely spaced lone tuples (no
// successor ever completes within the linger window) and returns the
// mean end-to-end latency — the worst case for linger-induced delay.
func runLingerLatencySession(t *testing.T, linger time.Duration) time.Duration {
	t.Helper()
	mem := transport.NewMem()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	col := &resultCollector{}
	m, err := StartMaster(MasterConfig{
		App:        app,
		Policy:     routing.LRS,
		ListenAddr: "master",
		Transport:  mem,
		AckLinger:  linger,
		OnResult:   col.add,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
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
	defer func() { _ = w.Close() }()
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "join")

	src := apps.NewFrameSource(600, 7)
	const n = 12
	for i := 0; i < n; i++ {
		if err := m.Submit(src.Next()); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		// Same pacing for every session, comfortably past the widest
		// linger window under test: each result flushes alone.
		time.Sleep(150 * time.Millisecond)
	}
	waitFor(t, 10*time.Second, func() bool { return len(col.snapshot()) == n }, "all results")
	var total time.Duration
	for _, r := range col.snapshot() {
		total += r.Latency
	}
	return total / n
}

// TestAckLingerLatencyBound pins the ack-batching latency contract: a
// linger window d may inflate a result's end-to-end latency by at most
// ~d (plus scheduling noise), and must actually engage — a lone result
// waits out the window before its batch flushes.
func TestAckLingerLatencyBound(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second paced sessions in -short mode")
	}
	const d = 60 * time.Millisecond
	plain := runLingerLatencySession(t, 0)
	lingered := runLingerLatencySession(t, d)
	t.Logf("mean latency: linger=0 %v, linger=%v %v", plain, d, lingered)
	diff := lingered - plain
	if diff > d+40*time.Millisecond {
		t.Fatalf("linger %v inflated latency by %v, bound is ~%v", d, diff, d)
	}
	if diff < d/4 {
		t.Fatalf("linger %v inflated latency by only %v: window never engaged", d, diff)
	}
}

// lingerSlowWeightMax bounds the slow worker's share of the published
// routing weights: the fast worker must carry at least three times the
// slow one's share, the 3:1 skew the LRS split has to show.
const lingerSlowWeightMax = 0.25

// runLingerPolicySession streams frames under LRS at ~333/s against one
// fast and one 40x-slower worker under the given linger window, with a
// 200 ms reconfigure period. Once the router first publishes weights
// from measured latencies (the warm-up), it samples the selection every
// 20 ms for 1.2 s — six reconfigures, one of them a probe round — and
// fails on any sample that leaves the fast worker out or gives the slow
// one more than lingerSlowWeightMax.
func runLingerPolicySession(t *testing.T, linger time.Duration) {
	t.Helper()
	mem := transport.NewMem()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	rc := routing.DefaultConfig(routing.LRS)
	rc.ReconfigurePeriod = 200 * time.Millisecond
	m, err := StartMaster(MasterConfig{
		App:        app,
		Policy:     routing.LRS,
		Routing:    &rc,
		ListenAddr: "master",
		Transport:  mem,
		AckLinger:  linger,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	startTestWorker(t, mem, m, "fast", 1)
	startTestWorker(t, mem, m, "slow", 40)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 2 }, "join")

	src := apps.NewFrameSource(600, 5)
	stop := make(chan struct{})
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		ticker := time.NewTicker(3 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if err := m.Submit(src.Next()); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			case <-stop:
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-submitted
	}()

	slowWeight := func() (routing.Info, bool) {
		var slow routing.Info
		fastSelected := false
		for _, in := range m.Snapshot() {
			if in.ID == "slow" {
				slow = in
			} else {
				fastSelected = in.Selected
			}
		}
		return slow, fastSelected
	}
	// Until both workers are measured the router splits evenly.
	waitFor(t, 2*time.Second, func() bool { slow, _ := slowWeight(); return slow.Weight < 0.5 }, "weights from measured latencies")
	maxSlow := 0.0
	for end := time.Now().Add(1200 * time.Millisecond); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
		slow, fastSelected := slowWeight()
		if !fastSelected || slow.Weight > lingerSlowWeightMax {
			t.Fatalf("linger %v: fast selected=%v, slow selected=%v weight=%.3f latency=%v after warm-up; want the fast worker selected and the slow one at most %.2f",
				linger, fastSelected, slow.Selected, slow.Weight, slow.Estimate.Latency, lingerSlowWeightMax)
		}
		maxSlow = max(maxSlow, slow.Weight)
	}
	t.Logf("linger %v: slow worker's published weight at most %.3f", linger, maxSlow)
}

// TestLRSSelectionUnchangedByLinger: ack batching delays when feedback
// arrives, but must not change what it says — LRS under heterogeneous
// worker profiles routes to the fast worker just as decisively with a
// linger window as without one. The check reads the published routing
// weights, not a throughput ratio, so it does not depend on how many
// tuples each worker happened to finish. The window is part of the
// measured latency (see Worker.sendLoop), so at this load a 10 ms
// linger lowers the fast worker's estimated rate below the offered load
// and LRS adds the slow worker with a small weight; the bound allows
// that, and nothing larger.
func TestLRSSelectionUnchangedByLinger(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live sessions in -short mode")
	}
	for _, linger := range []time.Duration{0, 10 * time.Millisecond} {
		runLingerPolicySession(t, linger)
	}
}

// TestPoolPreservesOrder: a multi-goroutine processor pool may finish
// tuples in any order, but the worker must still emit results in tuple
// arrival order — under a floor-sized reorder buffer, a burst through a
// parallel worker plays back completely, in order, with zero skips.
func TestPoolPreservesOrder(t *testing.T) {
	mem := transport.NewMem()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	col := &resultCollector{}
	m, err := StartMaster(MasterConfig{
		App:           app,
		Policy:        routing.LRS,
		ListenAddr:    "master",
		Transport:     mem,
		Parallelism:   4,
		ReorderBuffer: time.Millisecond, // collapses to the rcap floor
		OnResult:      col.add,
		Logger:        quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	startTestWorker(t, mem, m, "w1", 1)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "join")

	src := apps.NewFrameSource(600, 7)
	const n = 100
	for i := 0; i < n; i++ {
		if err := m.Submit(src.Next()); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	waitFor(t, 15*time.Second, func() bool { return m.Stats().Played == n }, "all played")
	st := m.Stats()
	if st.Skipped != 0 {
		t.Fatalf("skipped %d frames: pool broke result order", st.Skipped)
	}
	plays := col.snapshot()
	for i := 1; i < len(plays); i++ {
		if plays[i].Tuple.SeqNo <= plays[i-1].Tuple.SeqNo {
			t.Fatalf("playback out of order at %d: %d after %d",
				i, plays[i].Tuple.SeqNo, plays[i-1].Tuple.SeqNo)
		}
	}
}

// TestFrameWriterFlushes: a flush delivers its frames whole and in
// order whichever way it writes them — one frame from its own buffer,
// several as one writev on a TCP connection, several copied into the
// scratch for one Write elsewhere.
func TestFrameWriterFlushes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	pipeW, pipeR := net.Pipe()
	defer pipeW.Close()
	defer pipeR.Close()

	for _, c := range []struct {
		name string
		w, r net.Conn
	}{{"tcp", client, server}, {"pipe", pipeW, pipeR}} {
		_, tcp := c.w.(*net.TCPConn)
		if tcp != (c.name == "tcp") {
			t.Fatalf("%s: connection is a TCPConn: %v", c.name, tcp)
		}
		fw := &frameWriter{conn: c.w, tcp: tcp}
		for _, n := range []int{1, 3} {
			var frames []*wire.Buf
			for i := 0; i < n; i++ {
				fb := wire.GetBuf(0)
				fb.B, err = wire.AppendFrame(fb.B, wire.FrameStats, []byte(fmt.Sprintf("%s-%d-%d", c.name, n, i)))
				if err != nil {
					t.Fatal(err)
				}
				frames = append(frames, fb)
			}
			done := make(chan error, 1)
			go func() { done <- fw.flush(frames) }()
			for i := 0; i < n; i++ {
				typ, payload, err := wire.ReadFrame(c.r)
				if err != nil {
					t.Fatalf("%s: read frame %d of %d: %v", c.name, i, n, err)
				}
				if want := fmt.Sprintf("%s-%d-%d", c.name, n, i); typ != wire.FrameStats || string(payload) != want {
					t.Fatalf("%s: frame %d of %d = %v %q, want stats %q", c.name, i, n, typ, payload, want)
				}
			}
			if err := <-done; err != nil {
				t.Fatalf("%s: flush of %d: %v", c.name, n, err)
			}
		}
		fw.scratch.Release()
	}
}
