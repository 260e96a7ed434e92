package routing

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }

func newTestRouter(t *testing.T, p PolicyKind) *Router {
	t.Helper()
	r, err := NewRouter(DefaultConfig(p), testRNG())
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	return r
}

// feed gives the downstream a stable latency/processing estimate.
func feed(t *testing.T, r *Router, id string, latency, proc time.Duration) {
	t.Helper()
	for i := 0; i < 20; i++ {
		if err := r.ObserveAck(id, latency, proc, time.Duration(i)*time.Millisecond); err != nil {
			t.Fatalf("ObserveAck(%s): %v", id, err)
		}
	}
}

func TestPolicyParse(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%s) = %v, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("lrs"); err != nil {
		t.Error("lowercase not accepted")
	}
	if _, err := ParsePolicy("bogus"); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("err = %v", err)
	}
}

func TestPolicyTraits(t *testing.T) {
	cases := []struct {
		p                  PolicyKind
		latency, selection bool
	}{
		{RR, false, false},
		{PR, false, false},
		{LR, true, false},
		{PRS, false, true},
		{LRS, true, true},
	}
	for _, c := range cases {
		if c.p.UsesLatency() != c.latency || c.p.UsesSelection() != c.selection {
			t.Errorf("%s traits wrong", c.p)
		}
	}
	if PolicyKind(0).Valid() || PolicyKind(9).Valid() {
		t.Error("invalid kinds report Valid")
	}
}

func TestConfigValidate(t *testing.T) {
	ok := DefaultConfig(LRS)
	if err := ok.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Policy = 0 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1.5 },
		func(c *Config) { c.ReconfigurePeriod = 0 },
		func(c *Config) { c.ProbeEvery = -1 },
		func(c *Config) { c.ProbeTuples = -1 },
		func(c *Config) { c.Headroom = -0.1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig(LRS)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d passed validation", i)
		}
	}
}

func TestNewRouterNilRNG(t *testing.T) {
	if _, err := NewRouter(DefaultConfig(RR), nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestAddRemoveDownstream(t *testing.T) {
	r := newTestRouter(t, LRS)
	if err := r.AddDownstream("B"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddDownstream("B"); !errors.Is(err, ErrDupDownstream) {
		t.Fatalf("dup err = %v", err)
	}
	if err := r.AddDownstream(""); err == nil {
		t.Fatal("empty id accepted")
	}
	if !r.Has("B") || r.Has("C") {
		t.Fatal("Has wrong")
	}
	if err := r.RemoveDownstream("C"); !errors.Is(err, ErrUnknownDownstream) {
		t.Fatalf("remove unknown err = %v", err)
	}
	if err := r.RemoveDownstream("B"); err != nil {
		t.Fatal(err)
	}
	if len(r.Downstreams()) != 0 {
		t.Fatal("downstream not removed")
	}
}

func TestRouteNoDownstream(t *testing.T) {
	r := newTestRouter(t, LRS)
	if _, err := r.Route(); !errors.Is(err, ErrNoDownstream) {
		t.Fatalf("err = %v", err)
	}
}

func TestRRCyclesEvenly(t *testing.T) {
	r := newTestRouter(t, RR)
	cfg := DefaultConfig(RR)
	cfg.ProbeEvery = 0 // probing is redundant under RR
	r, err := NewRouter(cfg, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"B", "C", "D"} {
		if err := r.AddDownstream(id); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		id, err := r.Route()
		if err != nil {
			t.Fatal(err)
		}
		counts[id]++
	}
	for _, id := range []string{"B", "C", "D"} {
		if counts[id] != 100 {
			t.Fatalf("RR counts = %v", counts)
		}
	}
}

func TestLatencyRoutingPrefersFast(t *testing.T) {
	r := newTestRouter(t, LR)
	for _, id := range []string{"fast", "slow"} {
		if err := r.AddDownstream(id); err != nil {
			t.Fatal(err)
		}
	}
	feed(t, r, "fast", 100*time.Millisecond, 90*time.Millisecond)
	feed(t, r, "slow", 400*time.Millisecond, 390*time.Millisecond)
	r.Reconfigure(10)

	ids, ws := r.Selected()
	if len(ids) != 2 {
		t.Fatalf("LR selected %v, want both", ids)
	}
	wf := map[string]float64{}
	for i, id := range ids {
		wf[id] = ws[i]
	}
	// p_fast = (1/100)/(1/100 + 1/400) = 0.8
	if math.Abs(wf["fast"]-0.8) > 1e-9 || math.Abs(wf["slow"]-0.2) > 1e-9 {
		t.Fatalf("weights = %v", wf)
	}
}

func TestWeightedRandomMatchesWeights(t *testing.T) {
	r := newTestRouter(t, LR)
	cfg := DefaultConfig(LR)
	cfg.ProbeEvery = 0
	r, err := NewRouter(cfg, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fast", "slow"} {
		if err := r.AddDownstream(id); err != nil {
			t.Fatal(err)
		}
	}
	feed(t, r, "fast", 100*time.Millisecond, 100*time.Millisecond)
	feed(t, r, "slow", 300*time.Millisecond, 300*time.Millisecond)
	r.Reconfigure(10)

	const n = 20000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		id, err := r.Route()
		if err != nil {
			t.Fatal(err)
		}
		counts[id]++
	}
	// p_fast = 0.75; allow 3 sigma ≈ 0.01.
	frac := float64(counts["fast"]) / n
	if math.Abs(frac-0.75) > 0.015 {
		t.Fatalf("fast fraction = %v, want ~0.75", frac)
	}
}

// TestZeroLatencyEstimatesRouteFinite: a sampled delay of zero (a coarse
// or virtual clock, or a backward wall-clock step) must not rank a worker
// slowest or poison the weights. With every estimate at zero the table
// still publishes finite weights summing to 1 and reports no overload;
// beside a measured worker a zero-delay one ranks as fast as the fastest.
func TestZeroLatencyEstimatesRouteFinite(t *testing.T) {
	for _, p := range []PolicyKind{LRS, LR, PRS} {
		r := newTestRouter(t, p)
		for _, id := range []string{"B", "C"} {
			if err := r.AddDownstream(id); err != nil {
				t.Fatal(err)
			}
			feed(t, r, id, 0, 0)
		}
		r.Reconfigure(10)
		ids, ws := r.Selected()
		if len(ids) == 0 || r.Overloaded() {
			t.Fatalf("%v: selected %v, overloaded %v", p, ids, r.Overloaded())
		}
		sum := 0.0
		for _, w := range ws {
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				t.Fatalf("%v: weights %v", p, ws)
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%v: weights %v sum to %v", p, ws, sum)
		}
	}

	r := newTestRouter(t, LRS)
	for id, l := range map[string]time.Duration{"B": 0, "C": 100 * time.Millisecond, "D": 500 * time.Millisecond} {
		if err := r.AddDownstream(id); err != nil {
			t.Fatal(err)
		}
		feed(t, r, id, l, l)
	}
	// Λ = 15 needs two 10/s workers: B reads as fast as C, not slowest.
	r.Reconfigure(15)
	ids, _ := r.Selected()
	if len(ids) != 2 || !slices.Contains(ids, "B") || !slices.Contains(ids, "C") {
		t.Fatalf("selected %v, want B and C", ids)
	}
}

func TestWorkerSelectionMinimal(t *testing.T) {
	r := newTestRouter(t, LRS)
	// Rates: 10, 8, 5, 2 tuples/s.
	lat := map[string]time.Duration{
		"B": 100 * time.Millisecond,
		"C": 125 * time.Millisecond,
		"D": 200 * time.Millisecond,
		"E": 500 * time.Millisecond,
	}
	for id, l := range lat {
		if err := r.AddDownstream(id); err != nil {
			t.Fatal(err)
		}
		feed(t, r, id, l, l)
	}
	// Λ = 12: the two fastest (10 + 8 = 18 ≥ 12) suffice.
	r.Reconfigure(12)
	ids, _ := r.Selected()
	if len(ids) != 2 || ids[0] != "B" || ids[1] != "C" {
		t.Fatalf("selected %v, want [B C]", ids)
	}
	// Λ = 20: need B, C, D (10+8+5 = 23 ≥ 20).
	r.Reconfigure(20)
	ids, _ = r.Selected()
	if len(ids) != 3 {
		t.Fatalf("selected %v, want 3", ids)
	}
	// Λ = 50: infeasible, select all (§V-A).
	r.Reconfigure(50)
	ids, _ = r.Selected()
	if len(ids) != 4 {
		t.Fatalf("selected %v, want all 4", ids)
	}
}

func TestSelectionHeadroom(t *testing.T) {
	cfg := DefaultConfig(LRS)
	cfg.Headroom = 0.5
	r, err := NewRouter(cfg, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	for id, l := range map[string]time.Duration{
		"B": 100 * time.Millisecond, // 10/s
		"C": 100 * time.Millisecond, // 10/s
		"D": 100 * time.Millisecond, // 10/s
	} {
		if err := r.AddDownstream(id); err != nil {
			t.Fatal(err)
		}
		feed(t, r, id, l, l)
	}
	// Λ = 12; with 50% headroom the target is 18, needing two workers.
	r.Reconfigure(12)
	ids, _ := r.Selected()
	if len(ids) != 2 {
		t.Fatalf("selected %v, want 2 with headroom", ids)
	}
}

func TestPRSIgnoresNetworkDelay(t *testing.T) {
	// A downstream with fast processing but a slow network keeps high
	// weight under PRS (the failure mode Figure 4 demonstrates) and low
	// weight under LRS.
	for _, p := range []PolicyKind{PRS, LRS} {
		r := newTestRouter(t, p)
		for _, id := range []string{"weaklink", "good"} {
			if err := r.AddDownstream(id); err != nil {
				t.Fatal(err)
			}
		}
		// weaklink: 80ms processing but 1s latency (bad Wi-Fi).
		feed(t, r, "weaklink", time.Second, 80*time.Millisecond)
		// good: 100ms processing, 120ms latency.
		feed(t, r, "good", 120*time.Millisecond, 100*time.Millisecond)
		r.Reconfigure(9)
		ids, ws := r.Selected()
		w := map[string]float64{}
		for i, id := range ids {
			w[id] = ws[i]
		}
		if p == PRS {
			if w["weaklink"] <= w["good"] {
				t.Errorf("PRS: weaklink weight %v not above good %v", w["weaklink"], w["good"])
			}
		} else {
			if w["weaklink"] >= w["good"] {
				t.Errorf("LRS: weaklink weight %v not below good %v", w["weaklink"], w["good"])
			}
		}
	}
}

func TestProbeModeCyclesAll(t *testing.T) {
	cfg := DefaultConfig(LRS)
	cfg.ProbeEvery = 2
	cfg.ProbeTuples = 6
	r, err := NewRouter(cfg, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"B", "C", "E"} {
		if err := r.AddDownstream(id); err != nil {
			t.Fatal(err)
		}
	}
	feed(t, r, "B", 100*time.Millisecond, 100*time.Millisecond)
	feed(t, r, "C", 110*time.Millisecond, 110*time.Millisecond)
	feed(t, r, "E", 5*time.Second, 5*time.Second) // straggler, never selected
	r.Reconfigure(15)
	ids, _ := r.Selected()
	if len(ids) != 2 {
		t.Fatalf("selected %v, want B,C only", ids)
	}
	if r.Probing() {
		t.Fatal("probing after first reconfigure")
	}
	r.Reconfigure(15) // rounds=2 → probe mode
	if !r.Probing() {
		t.Fatal("not probing after ProbeEvery rounds")
	}
	counts := map[string]int{}
	for i := 0; i < 6; i++ {
		id, err := r.Route()
		if err != nil {
			t.Fatal(err)
		}
		counts[id]++
	}
	if counts["E"] != 2 || counts["B"] != 2 || counts["C"] != 2 {
		t.Fatalf("probe counts = %v, want 2 each", counts)
	}
	if r.Probing() {
		t.Fatal("still probing after ProbeTuples routes")
	}
	// Post-probe routing excludes the straggler again.
	for i := 0; i < 50; i++ {
		id, err := r.Route()
		if err != nil {
			t.Fatal(err)
		}
		if id == "E" {
			t.Fatal("straggler routed outside probe mode")
		}
	}
}

func TestJoinGetsTrafficImmediately(t *testing.T) {
	r := newTestRouter(t, LRS)
	for _, id := range []string{"B", "D"} {
		if err := r.AddDownstream(id); err != nil {
			t.Fatal(err)
		}
	}
	feed(t, r, "B", 100*time.Millisecond, 100*time.Millisecond)
	feed(t, r, "D", 150*time.Millisecond, 150*time.Millisecond)
	r.Reconfigure(30) // infeasible: selects all
	if err := r.AddDownstream("G"); err != nil {
		t.Fatal(err)
	}
	// G has no estimate yet but must receive traffic without waiting for
	// the next reconfigure (paper: joins take effect within a second).
	got := false
	for i := 0; i < 100; i++ {
		id, err := r.Route()
		if err != nil {
			t.Fatal(err)
		}
		if id == "G" {
			got = true
			break
		}
	}
	if !got {
		t.Fatal("joined downstream receives no traffic")
	}
}

func TestLeaveStopsTraffic(t *testing.T) {
	r := newTestRouter(t, LRS)
	for _, id := range []string{"B", "G", "H"} {
		if err := r.AddDownstream(id); err != nil {
			t.Fatal(err)
		}
		feed(t, r, id, 100*time.Millisecond, 100*time.Millisecond)
	}
	r.Reconfigure(30)
	if err := r.RemoveDownstream("G"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		id, err := r.Route()
		if err != nil {
			t.Fatal(err)
		}
		if id == "G" {
			t.Fatal("removed downstream still routed")
		}
	}
	// Late ACK from the departed device is rejected but harmless.
	if err := r.ObserveAck("G", time.Second, time.Second, 0); !errors.Is(err, ErrUnknownDownstream) {
		t.Fatalf("late ack err = %v", err)
	}
}

func TestSWRRDeterministicSplit(t *testing.T) {
	cfg := DefaultConfig(LR)
	cfg.Deterministic = true
	cfg.ProbeEvery = 0
	r, err := NewRouter(cfg, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fast", "slow"} {
		if err := r.AddDownstream(id); err != nil {
			t.Fatal(err)
		}
	}
	feed(t, r, "fast", 100*time.Millisecond, 100*time.Millisecond) // weight 0.75
	feed(t, r, "slow", 300*time.Millisecond, 300*time.Millisecond) // weight 0.25
	r.Reconfigure(10)
	counts := map[string]int{}
	for i := 0; i < 400; i++ {
		id, err := r.Route()
		if err != nil {
			t.Fatal(err)
		}
		counts[id]++
	}
	if counts["fast"] != 300 || counts["slow"] != 100 {
		t.Fatalf("SWRR counts = %v, want exact 3:1", counts)
	}
}

func TestEstimateEWMA(t *testing.T) {
	var e Estimate
	e.Observe(100*time.Millisecond, 90*time.Millisecond, 0.3, 0)
	if e.Latency != 100*time.Millisecond {
		t.Fatalf("first sample not adopted: %v", e.Latency)
	}
	e.Observe(200*time.Millisecond, 90*time.Millisecond, 0.3, time.Second)
	want := time.Duration(0.3*200e6 + 0.7*100e6)
	if e.Latency != want {
		t.Fatalf("EWMA = %v, want %v", e.Latency, want)
	}
	if e.Samples != 2 || e.LastUpdate != time.Second {
		t.Fatalf("bookkeeping: %+v", e)
	}
}

func TestEstimateRates(t *testing.T) {
	var e Estimate
	if e.LatencyRate() != 0 || e.ProcessingRate() != 0 {
		t.Fatal("zero estimate has nonzero rate")
	}
	e.Observe(100*time.Millisecond, 50*time.Millisecond, 1, 0)
	if math.Abs(e.LatencyRate()-10) > 1e-9 {
		t.Fatalf("LatencyRate = %v", e.LatencyRate())
	}
	if math.Abs(e.ProcessingRate()-20) > 1e-9 {
		t.Fatalf("ProcessingRate = %v", e.ProcessingRate())
	}
}

func TestSnapshot(t *testing.T) {
	r := newTestRouter(t, LRS)
	for _, id := range []string{"B", "E"} {
		if err := r.AddDownstream(id); err != nil {
			t.Fatal(err)
		}
	}
	feed(t, r, "B", 100*time.Millisecond, 90*time.Millisecond)
	feed(t, r, "E", 2*time.Second, 1900*time.Millisecond)
	r.Reconfigure(5)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	if snap[0].ID != "B" || !snap[0].Selected || snap[0].Weight <= 0 {
		t.Fatalf("B info = %+v", snap[0])
	}
	if snap[1].ID != "E" || snap[1].Selected {
		t.Fatalf("E info = %+v (straggler must be filtered)", snap[1])
	}
}

// TestWeightsSumToOneProperty: after arbitrary estimate feeds and a
// reconfigure, routing weights always form a probability distribution.
func TestWeightsSumToOneProperty(t *testing.T) {
	f := func(latMs []uint16, lambda uint8) bool {
		if len(latMs) == 0 {
			return true
		}
		if len(latMs) > 12 {
			latMs = latMs[:12]
		}
		r, err := NewRouter(DefaultConfig(LRS), testRNG())
		if err != nil {
			return false
		}
		for i, ms := range latMs {
			id := string(rune('a' + i))
			if err := r.AddDownstream(id); err != nil {
				return false
			}
			lat := time.Duration(int(ms)%2000+1) * time.Millisecond
			r.ObserveAck(id, lat, lat, 0)
		}
		r.Reconfigure(float64(lambda))
		ids, ws := r.Selected()
		if len(ids) == 0 || len(ids) != len(ws) {
			return false
		}
		sum := 0.0
		for _, w := range ws {
			if w < 0 || w > 1 {
				return false
			}
			sum += w
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSelectionMinimalityProperty: the selected set is the minimal prefix
// meeting the rate target — dropping its slowest member must violate the
// target (unless everything was selected because the target is
// infeasible).
func TestSelectionMinimalityProperty(t *testing.T) {
	f := func(latMs []uint16, lambdaRaw uint8) bool {
		if len(latMs) < 2 {
			return true
		}
		if len(latMs) > 10 {
			latMs = latMs[:10]
		}
		lambda := float64(lambdaRaw%50) + 1
		r, err := NewRouter(DefaultConfig(LRS), testRNG())
		if err != nil {
			return false
		}
		rates := map[string]float64{}
		for i, ms := range latMs {
			id := string(rune('a' + i))
			if err := r.AddDownstream(id); err != nil {
				return false
			}
			lat := time.Duration(int(ms)%3000+50) * time.Millisecond
			r.ObserveAck(id, lat, lat, 0)
			rates[id] = float64(time.Second) / float64(lat)
		}
		r.Reconfigure(lambda)
		ids, _ := r.Selected()
		sum := 0.0
		for _, id := range ids {
			sum += rates[id]
		}
		if len(ids) == len(latMs) {
			return true // either infeasible or genuinely needs all
		}
		if sum < lambda {
			return false // selected set misses the target while more exist
		}
		// Minimality: without the last (slowest) selected worker the
		// target must not be met.
		sumButLast := sum - rates[ids[len(ids)-1]]
		return sumButLast < lambda
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRouteLRS(b *testing.B) {
	r, err := NewRouter(DefaultConfig(LRS), testRNG())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		id := string(rune('B' + i))
		if err := r.AddDownstream(id); err != nil {
			b.Fatal(err)
		}
		lat := time.Duration(80+17*i) * time.Millisecond
		r.ObserveAck(id, lat, lat, 0)
	}
	r.Reconfigure(24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Route(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconfigureLRS(b *testing.B) {
	r, err := NewRouter(DefaultConfig(LRS), testRNG())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		id := string(rune('B' + i))
		if err := r.AddDownstream(id); err != nil {
			b.Fatal(err)
		}
		lat := time.Duration(80+17*i) * time.Millisecond
		r.ObserveAck(id, lat, lat, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reconfigure(24)
	}
}

// TestOverloadedSignal: the router reports saturation (Λ > Σμ with every
// downstream selected) only when all capacity is measured and genuinely
// insufficient — the runtime's admission control keys off this.
func TestOverloadedSignal(t *testing.T) {
	r := newTestRouter(t, LRS)
	if err := r.AddDownstream("B"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddDownstream("C"); err != nil {
		t.Fatal(err)
	}
	// Unsampled downstreams are optimistically infinite: never overloaded.
	r.Reconfigure(1e6)
	if r.Overloaded() {
		t.Fatal("overloaded with unmeasured downstreams")
	}
	// 100 ms latency each → μ = 10/s per worker, Σμ = 20/s.
	feed(t, r, "B", 100*time.Millisecond, 80*time.Millisecond)
	feed(t, r, "C", 100*time.Millisecond, 80*time.Millisecond)
	r.Reconfigure(15) // feasible: Λ < Σμ
	if r.Overloaded() {
		t.Fatal("overloaded despite Σμ ≥ Λ")
	}
	r.Reconfigure(30) // infeasible: Λ > Σμ = 20
	if !r.Overloaded() {
		t.Fatal("saturation not reported with Λ > Σμ")
	}
	ids, _ := r.Selected()
	if len(ids) != 2 {
		t.Fatalf("infeasible selection chose %d of 2 downstreams", len(ids))
	}
	// Recovery: load drops back under capacity.
	r.Reconfigure(5)
	if r.Overloaded() {
		t.Fatal("overload flag stuck after load dropped")
	}
	// Policies without selection never report overload.
	rr := newTestRouter(t, RR)
	if err := rr.AddDownstream("B"); err != nil {
		t.Fatal(err)
	}
	feed(t, rr, "B", 100*time.Millisecond, 80*time.Millisecond)
	rr.Reconfigure(1e6)
	if rr.Overloaded() {
		t.Fatal("RR reported overload")
	}
}
