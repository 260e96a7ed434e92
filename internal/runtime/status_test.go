package runtime

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/obs"
	"github.com/swingframework/swing/internal/transport"
)

// pollStatus fetches and decodes one /statusz JSON sample, asserting the
// exact ledger invariant — Acked + Shed + InFlight + Retransmitting ==
// Submitted — which must hold on EVERY poll, not only at quiescence.
func pollStatus(t *testing.T, base string) (obs.Snapshot, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/statusz?format=json")
	if err != nil {
		t.Fatalf("poll status: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("poll status read: %v", err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("poll status decode: %v\n%s", err, body)
	}
	if !snap.Ledger.Balanced || !snap.Ledger.CheckBalance() {
		t.Fatalf("unbalanced ledger in live sample: %+v", snap.Ledger)
	}
	return snap, body
}

// TestStatusEndpointE2E drives a live swarm with the observability plane
// enabled: two workers join, one hangs and is evicted, and every poll of
// the HTTP endpoint — taken concurrently with submits, acks, eviction and
// retransmission — must show a balanced ledger. The eviction must surface
// in the worker view, the eviction counter, and the event log.
func TestStatusEndpointE2E(t *testing.T) {
	mem := transport.NewMem()
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	m, err := StartMaster(MasterConfig{
		App:          app,
		ListenAddr:   "master",
		Transport:    mem,
		StatusAddr:   "127.0.0.1:0",
		Heartbeat:    20 * time.Millisecond,
		SuspectAfter: 60 * time.Millisecond,
		DeadAfter:    150 * time.Millisecond,
		Logger:       quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	if m.StatusAddr() == "" {
		t.Fatal("StatusAddr empty with status endpoint configured")
	}
	base := "http://" + m.StatusAddr()

	startTestWorker(t, mem, m, "w1", 1)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "w1 joins")
	// Every frame the hung worker writes stalls 250 ms — longer than
	// DeadAfter, so the silence detector must evict it.
	startFaultyWorker(t, mem, m, "lagged", transport.FaultConfig{Seed: 9, Delay: 250 * time.Millisecond})
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 2 }, "lagged joins")

	snap, _ := pollStatus(t, base)
	if len(snap.Workers) != 2 {
		t.Fatalf("workers in status = %+v, want w1 and lagged", snap.Workers)
	}
	if snap.Epoch != 1 || snap.Routing.Policy != "LRS" {
		t.Fatalf("status header: epoch %d policy %q", snap.Epoch, snap.Routing.Policy)
	}

	src := apps.NewFrameSource(600, 7)
	const n = 40
	for i := 0; i < n; i++ {
		if err := m.Submit(src.Next()); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if i%8 == 0 {
			pollStatus(t, base) // sample mid-traffic: invariant must hold
		}
	}

	// Poll through the eviction window; every sample stays balanced.
	waitFor(t, 5*time.Second, func() bool {
		snap, _ = pollStatus(t, base)
		return snap.Ledger.Evicted == 1 && len(snap.Workers) == 1
	}, "eviction surfaces in status endpoint")
	if snap.Workers[0].ID != "w1" {
		t.Fatalf("surviving worker = %+v, want w1", snap.Workers)
	}

	// Drain: everything submitted ends acked or shed, nothing in limbo.
	waitFor(t, 10*time.Second, func() bool {
		snap, _ = pollStatus(t, base)
		return snap.Ledger.Acked+snap.Ledger.Shed == n &&
			snap.Ledger.InFlight == 0 && snap.Ledger.Retransmitting == 0
	}, "ledger drains after eviction")
	if snap.Ledger.Submitted != n {
		t.Fatalf("Submitted = %d, want %d", snap.Ledger.Submitted, n)
	}
	if snap.Sink.Played == 0 {
		t.Fatal("no frames played through the sink")
	}
	if snap.UptimeMillis <= 0 || snap.EventsTotal == 0 {
		t.Fatalf("uptime %dms, events %d", snap.UptimeMillis, snap.EventsTotal)
	}

	// The event log must carry both joins and the eviction.
	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []obs.Event
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	evicted := ""
	for _, e := range events {
		kinds[e.Kind]++
		if e.Kind == obs.EventEvicted {
			evicted = e.Worker
		}
	}
	if kinds[obs.EventWorkerJoin] != 2 {
		t.Fatalf("worker-join events = %d, want 2 (events: %+v)", kinds[obs.EventWorkerJoin], events)
	}
	if evicted != "lagged" {
		t.Fatalf("worker-evicted event for %q, want lagged (events: %+v)", evicted, events)
	}

	// The endpoint and Stats render the same snapshot path: they agree.
	st := m.Stats()
	snap, _ = pollStatus(t, base)
	if snap.Ledger.Counters != st.Counters {
		t.Fatalf("endpoint %+v disagrees with Stats %+v", snap.Ledger.Counters, st.Counters)
	}
}

// TestShapedDegradedLink runs a two-worker swarm over a shaped transport:
// the first link degrades from a strong signal to the paper's weak-spot
// RSSI shortly after start while the second stays strong. LRS must shift
// routing probability mass off the degraded link, and the shaping report
// must show where the injected delay went.
func TestShapedDegradedLink(t *testing.T) {
	mem := transport.NewMem()
	scn, err := transport.ParseScenario("walk:-28@150ms,-82@60s")
	if err != nil {
		t.Fatal(err)
	}
	shaped := transport.WithShaping(mem, scn, 5)
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	m, err := StartMaster(MasterConfig{
		App:               app,
		ListenAddr:        "master",
		Transport:         shaped, // shapes the downlink of accepted conns
		StatusAddr:        "127.0.0.1:0",
		OutboxCap:         16,
		InflightHighWater: 128,
		Logger:            quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })

	// Join order fixes link numbering: "degraded" is link 0 (the walk),
	// "healthy" is link 1 (strong forever).
	startTestWorker(t, mem, m, "degraded", 1)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "degraded joins")
	startTestWorker(t, mem, m, "healthy", 1)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 2 }, "healthy joins")

	src := apps.NewFrameSource(600, 11)
	deadline := time.Now().Add(2500 * time.Millisecond)
	var sent int64
	for time.Now().Before(deadline) {
		if err := m.Submit(src.Next()); err == nil {
			sent++
		}
		time.Sleep(2 * time.Millisecond)
	}
	if sent == 0 {
		t.Fatal("nothing submitted through the shaped swarm")
	}

	// The endpoint and the weights: probability mass leaves the degraded
	// link once its inflated latency estimate feeds a reconfigure.
	var snap obs.Snapshot
	waitFor(t, 10*time.Second, func() bool {
		snap, _ = pollStatus(t, "http://"+m.StatusAddr())
		var deg, ok obs.Worker
		for _, w := range snap.Workers {
			switch w.ID {
			case "degraded":
				deg = w
			case "healthy":
				ok = w
			}
		}
		return deg.Samples > 0 && ok.Samples > 0 && deg.Weight < ok.Weight
	}, "LRS shifts weight off the degraded link")

	r := shaped.Report()
	if len(r.Links) < 2 {
		t.Fatalf("shaping report has %d links, want >= 2: %+v", len(r.Links), r)
	}
	if r.Links[0].DelayMillis <= r.Links[1].DelayMillis {
		t.Fatalf("degraded link 0 injected %.1fms <= healthy link 1 %.1fms",
			r.Links[0].DelayMillis, r.Links[1].DelayMillis)
	}
}

// TestShapedSoak is the scripted Wi-Fi-degradation soak behind
// scripts/soak.sh: three workers under the wifi-degrade pack, polling the
// status endpoint throughout (every sample must balance) and asserting
// the routing mass ends up off the degraded link. The final endpoint JSON
// is archived to SWING_SOAK_STATUS when set — the artifact soak.sh stores
// next to the log. Opt in with SWING_SOAK=1.
func TestShapedSoak(t *testing.T) {
	if os.Getenv("SWING_SOAK") == "" {
		t.Skip("set SWING_SOAK=1 (see scripts/soak.sh) to run the shaped soak")
	}
	dur := 10 * time.Second
	if s := os.Getenv("SWING_SOAK_SECONDS"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil || secs <= 0 {
			t.Fatalf("bad SWING_SOAK_SECONDS %q", s)
		}
		dur = time.Duration(secs) * time.Second
	}
	mem := transport.NewMem()
	// Three legs over the soak: link 0 good, then fair, then bad.
	scn, err := transport.ParseScenario(fmt.Sprintf("wifi-degrade:%s", dur/3))
	if err != nil {
		t.Fatal(err)
	}
	shaped := transport.WithShaping(mem, scn, 42)
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	m, err := StartMaster(MasterConfig{
		App:               app,
		ListenAddr:        "master",
		Transport:         shaped,
		StatusAddr:        "127.0.0.1:0",
		Heartbeat:         50 * time.Millisecond,
		SuspectAfter:      200 * time.Millisecond,
		DeadAfter:         2 * time.Second,
		OutboxCap:         16,
		InflightHighWater: 256,
		Logger:            quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	for i, id := range []string{"degraded", "h1", "h2"} {
		startTestWorker(t, mem, m, id, 1)
		waitFor(t, 5*time.Second, func() bool { return len(m.Workers()) == i+1 }, id+" joins")
	}

	base := "http://" + m.StatusAddr()
	type sample struct {
		at     time.Duration
		weight float64
	}
	var series []sample
	var lastJSON []byte
	start := time.Now()
	src := apps.NewFrameSource(600, 13)
	deadline := start.Add(dur)
	var sent int64
	nextPoll := start
	for time.Now().Before(deadline) {
		if err := m.Submit(src.Next()); err == nil {
			sent++
		}
		if now := time.Now(); now.After(nextPoll) {
			snap, body := pollStatus(t, base) // asserts balance every poll
			lastJSON = body
			for _, w := range snap.Workers {
				if w.ID == "degraded" {
					series = append(series, sample{at: now.Sub(start), weight: w.Weight})
				}
			}
			nextPoll = now.Add(200 * time.Millisecond)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("shaped soak: %d submitted, %d status samples over %v", sent, len(series), dur)
	if sent == 0 || len(series) < 4 {
		t.Fatalf("soak too thin: %d submitted, %d samples", sent, len(series))
	}

	// Weight mass must shift off the degraded link: compare the first
	// leg's average weight (signal still strong) to the final quarter's.
	var early, late float64
	var nEarly, nLate int
	for _, s := range series {
		if s.at < dur/3 {
			early += s.weight
			nEarly++
		} else if s.at > 3*dur/4 {
			late += s.weight
			nLate++
		}
	}
	if nEarly == 0 || nLate == 0 {
		t.Fatalf("sample windows empty: early %d late %d", nEarly, nLate)
	}
	early /= float64(nEarly)
	late /= float64(nLate)
	t.Logf("degraded link weight: early %.3f -> late %.3f", early, late)
	if late >= early {
		t.Fatalf("weight mass did not shift off the degraded link: early %.3f late %.3f", early, late)
	}

	// Final poll is the archived artifact.
	snap, body := pollStatus(t, base)
	lastJSON = body
	for _, w := range snap.Workers {
		if w.ID == "degraded" {
			for _, h := range snap.Workers {
				if h.ID != "degraded" && w.Weight >= h.Weight {
					t.Fatalf("final weights: degraded %.3f >= %s %.3f", w.Weight, h.ID, h.Weight)
				}
			}
		}
	}
	if path := os.Getenv("SWING_SOAK_STATUS"); path != "" {
		if err := os.WriteFile(path, lastJSON, 0o644); err != nil {
			t.Fatalf("archive status JSON: %v", err)
		}
		t.Logf("archived final status JSON to %s", path)
	}
}
