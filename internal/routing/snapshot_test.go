package routing

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTableEmpty(t *testing.T) {
	r := newTestRouter(t, LRS)
	tbl := r.Table()
	if !tbl.Empty() || tbl.Size() != 0 {
		t.Fatal("empty router produced non-empty table")
	}
	if _, err := tbl.Pick(0.5, nil); !errors.Is(err, ErrNoDownstream) {
		t.Fatalf("Pick on empty table: %v", err)
	}
}

func TestTableRRCyclesEvenly(t *testing.T) {
	cfg := DefaultConfig(RR)
	cfg.ProbeEvery = 0
	r, err := NewRouter(cfg, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"B", "C", "D"} {
		if err := r.AddDownstream(id); err != nil {
			t.Fatal(err)
		}
	}
	tbl := r.Table()
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		id, err := tbl.Pick(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		counts[id]++
	}
	for _, id := range []string{"B", "C", "D"} {
		if counts[id] != 100 {
			t.Fatalf("table RR counts = %v", counts)
		}
	}
}

// TestTableWeightedMatchesWeights draws through the snapshot's lock-free
// weighted path and checks the empirical split tracks the frozen weights.
func TestTableWeightedMatchesWeights(t *testing.T) {
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
	feed(t, r, "fast", 10*time.Millisecond, 5*time.Millisecond)
	feed(t, r, "slow", 40*time.Millisecond, 20*time.Millisecond)
	r.Reconfigure(0)
	tbl := r.Table()
	tbl.probeLeft.Store(0) // isolate the weighted path

	want := map[string]float64{}
	for i, id := range tbl.selected {
		want[id] = tbl.weights[i]
	}
	rng := rand.New(rand.NewPCG(7, 9))
	const n = 20000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		id, err := tbl.Pick(rng.Float64(), nil)
		if err != nil {
			t.Fatal(err)
		}
		counts[id]++
	}
	for id, w := range want {
		got := float64(counts[id]) / n
		if math.Abs(got-w) > 0.02 {
			t.Errorf("%s: empirical share %.3f, weight %.3f", id, got, w)
		}
	}
	if counts["fast"] <= counts["slow"] {
		t.Errorf("fast worker not preferred: %v", counts)
	}
}

// TestTableProbeBudgetMigrates rebuilds the snapshot mid-probe-window: the
// un-consumed budget must carry over rather than re-arm, and a Reconfigure
// must re-arm a fresh window.
func TestTableProbeBudgetMigrates(t *testing.T) {
	cfg := DefaultConfig(LRS)
	cfg.ProbeEvery = 1 // every reconfigure arms a probe window
	cfg.ProbeTuples = 8
	r, err := NewRouter(cfg, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"B", "C"} {
		if err := r.AddDownstream(id); err != nil {
			t.Fatal(err)
		}
	}
	r.Reconfigure(0) // arms an 8-tuple probe window
	tbl := r.Table()
	if got := tbl.probeLeft.Load(); got != 8 {
		t.Fatalf("armed budget = %d, want 8", got)
	}
	for i := 0; i < 5; i++ {
		tbl.Shadow(nil) // each claims one slot; B and C are both selected
	}
	// Mid-window rebuild (a membership change): 3 slots remain.
	if err := r.AddDownstream("D"); err != nil {
		t.Fatal(err)
	}
	tbl2 := r.Table()
	if tbl2 == tbl {
		t.Fatal("AddDownstream did not rebuild the table")
	}
	if got := tbl2.probeLeft.Load(); got != 3 {
		t.Fatalf("migrated budget = %d, want 3", got)
	}
	// Reconfigure re-arms; the fresh window wins over the stale remainder.
	r.Reconfigure(0)
	tbl3 := r.Table()
	if got := tbl3.probeLeft.Load(); got != 8 {
		t.Fatalf("re-armed budget = %d, want 8", got)
	}
}

// TestTablePickConcurrent hammers one snapshot from many goroutines — the
// lock-free guarantee the Submit path depends on. Run with -race.
func TestTablePickConcurrent(t *testing.T) {
	cfg := DefaultConfig(LRS)
	r, err := NewRouter(cfg, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"B", "C", "D", "E"} {
		if err := r.AddDownstream(id); err != nil {
			t.Fatal(err)
		}
	}
	r.Reconfigure(0)
	tbl := r.Table()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 11))
			for i := 0; i < 2000; i++ {
				if _, err := tbl.Pick(rng.Float64(), nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestObserveBatchMatchesRepeatedObserve checks the closed-form batched
// EWMA equals n successive per-sample updates with the batch mean.
func TestObserveBatchMatchesRepeatedObserve(t *testing.T) {
	mk := func() *Router {
		r, err := NewRouter(DefaultConfig(LRS), testRNG())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.AddDownstream("B"); err != nil {
			t.Fatal(err)
		}
		return r
	}
	single, batched := mk(), mk()
	// Seed both with an initial estimate, then apply 7 samples of the same
	// value — one at a time vs. one batch.
	if err := single.ObserveAck("B", 20*time.Millisecond, 10*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if err := batched.ObserveBatch("B", 20*time.Millisecond, 10*time.Millisecond, 1, 0); err != nil {
		t.Fatal(err)
	}
	const n = 7
	for i := 0; i < n; i++ {
		if err := single.ObserveAck("B", 50*time.Millisecond, 25*time.Millisecond, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := batched.ObserveBatch("B", 50*time.Millisecond, 25*time.Millisecond, n, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	es, eb := single.Estimates()["B"], batched.Estimates()["B"]
	if es.Samples != eb.Samples {
		t.Fatalf("samples: single %d, batched %d", es.Samples, eb.Samples)
	}
	if d := math.Abs(float64(es.Latency - eb.Latency)); d > float64(10*time.Microsecond) {
		t.Errorf("latency drift %v: single %v, batched %v", time.Duration(d), es.Latency, eb.Latency)
	}
	if d := math.Abs(float64(es.Processing - eb.Processing)); d > float64(10*time.Microsecond) {
		t.Errorf("processing drift %v: single %v, batched %v", time.Duration(d), es.Processing, eb.Processing)
	}
	if err := batched.ObserveBatch("nope", time.Millisecond, time.Millisecond, 1, 0); !errors.Is(err, ErrUnknownDownstream) {
		t.Errorf("unknown downstream err = %v", err)
	}
}

// TestTableProbeBudgetNeverNegative hammers Shadow from many goroutines
// against one armed window while a sampler watches the counter: the total
// number of successful probe claims must equal the armed budget exactly,
// and the CAS-decrement loop must never let the counter go below zero
// (the old blind Add(-1) let losers drive it arbitrarily negative). Only
// B is selected, so exactly the claims that name C, D or E — three of
// every four — return a shadow target.
func TestTableProbeBudgetNeverNegative(t *testing.T) {
	cfg := DefaultConfig(LRS)
	cfg.ProbeEvery = 1
	cfg.ProbeTuples = 64
	r, err := NewRouter(cfg, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"B", "C", "D", "E"} {
		if err := r.AddDownstream(id); err != nil {
			t.Fatal(err)
		}
	}
	r.Reconfigure(1) // unsampled B alone covers Λ
	tbl := r.Table()
	if ids, _ := r.Selected(); len(ids) != 1 || ids[0] != "B" {
		t.Fatalf("selected %v, want [B]", ids)
	}

	done := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if got := tbl.probeLeft.Load(); got < 0 {
				t.Errorf("probe budget went negative: %d", got)
				return
			}
		}
	}()

	var claims atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, ok := tbl.Shadow(nil); ok {
					claims.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	sampler.Wait()
	if got := claims.Load(); got != 48 {
		t.Fatalf("shadow targets = %d, want 48: the armed budget 64 less the 16 slots naming B", got)
	}
	if got := tbl.probeLeft.Load(); got != 0 {
		t.Fatalf("drained budget = %d, want 0", got)
	}
	if got := tbl.ProbeLeft(); got != 0 {
		t.Fatalf("ProbeLeft() = %d, want 0", got)
	}
}

// TestTableAbandonSurvivesRebuild abandons a probe window (every
// downstream congested) while the avoid callback itself triggers a
// snapshot rebuild that migrates the remaining budget — the historical
// resurrection bug: Store(0) on the old snapshot landed after the budget
// had already moved, so the "abandoned" window lived on in the successor.
// Abandonment must follow the migration chain; a window re-armed by
// Reconfigure must stay immune to stale abandonments.
func TestTableAbandonSurvivesRebuild(t *testing.T) {
	cfg := DefaultConfig(LRS)
	cfg.ProbeEvery = 1
	cfg.ProbeTuples = 8
	r, err := NewRouter(cfg, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"B", "C"} {
		if err := r.AddDownstream(id); err != nil {
			t.Fatal(err)
		}
	}
	r.Reconfigure(0)
	t1 := r.Table()

	var t2 *Table
	avoidAll := func(id string) bool {
		if t2 == nil {
			// A mid-scan membership change rebuilds the table and migrates
			// the window.
			if err := r.AddDownstream("D"); err != nil {
				t.Fatal(err)
			}
			t2 = r.Table()
		}
		return true
	}
	// The shadow claims a slot, finds every downstream congested, and
	// abandons the window without naming a target.
	if _, ok := t1.Shadow(avoidAll); ok {
		t.Fatal("shadow target named although every downstream is congested")
	}
	if t2 == nil {
		t.Fatal("avoid callback never ran: probe path not taken")
	}
	if t2 == t1 {
		t.Fatal("AddDownstream did not rebuild the table")
	}
	if got := t2.ProbeLeft(); got != 0 {
		t.Fatalf("abandoned window resurrected in successor: budget %d, want 0", got)
	}
	if _, ok := t2.Shadow(nil); ok {
		t.Fatal("successor handed out a probe from an abandoned window")
	}

	// Reconfigure arms a fresh window in an unlinked snapshot: stale
	// abandonments of the dead chain must not reach it.
	r.Reconfigure(0)
	t3 := r.Table()
	if got := t3.ProbeLeft(); got != 8 {
		t.Fatalf("re-armed budget = %d, want 8", got)
	}
	t1.abandonProbes()
	if got := t3.ProbeLeft(); got != 8 {
		t.Fatalf("stale abandonment clipped a fresh window: budget %d, want 8", got)
	}
}

// TestPickIgnoresProbeWindow: Pick draws by policy even while a probe
// window is open — its draws follow the frozen weights and spend no
// budget — while Shadow names each unselected downstream exactly once per
// len(order) slots and never a selected one.
func TestPickIgnoresProbeWindow(t *testing.T) {
	cfg := DefaultConfig(LRS)
	cfg.ProbeEvery = 1
	cfg.ProbeTuples = 12
	r, err := NewRouter(cfg, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	order := []string{"B", "C", "D", "E"}
	for _, id := range order {
		if err := r.AddDownstream(id); err != nil {
			t.Fatal(err)
		}
	}
	feed(t, r, "B", 10*time.Millisecond, 5*time.Millisecond)  // μ 100/s
	feed(t, r, "C", 20*time.Millisecond, 10*time.Millisecond) // μ 50/s
	feed(t, r, "D", 200*time.Millisecond, 100*time.Millisecond)
	feed(t, r, "E", 400*time.Millisecond, 200*time.Millisecond)
	r.Reconfigure(120) // needs B and C: 100 < 120 ≤ 150
	tbl := r.Table()
	if ids, _ := r.Selected(); !slices.Equal(ids, []string{"B", "C"}) {
		t.Fatalf("selected %v, want [B C]", ids)
	}
	if got := tbl.ProbeLeft(); got != 12 {
		t.Fatalf("armed budget = %d, want 12", got)
	}

	want := map[string]float64{}
	for i, id := range tbl.selected {
		want[id] = tbl.weights[i]
	}
	rng := rand.New(rand.NewPCG(3, 5))
	const n = 20000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		id, err := tbl.Pick(rng.Float64(), func(string) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		counts[id]++
	}
	if len(counts) != len(want) {
		t.Fatalf("Pick drew outside the selected set in a probe window: %v", counts)
	}
	for id, w := range want {
		if got := float64(counts[id]) / n; math.Abs(got-w) > 0.02 {
			t.Errorf("%s: empirical share %.3f, weight %.3f", id, got, w)
		}
	}
	if got := tbl.ProbeLeft(); got != 12 {
		t.Fatalf("Pick spent probe budget: %d left, want 12", got)
	}

	for cycle := 0; cycle < 3; cycle++ {
		var named []string
		for i := 0; i < len(order); i++ {
			if id, ok := tbl.Shadow(nil); ok {
				named = append(named, id)
			}
		}
		slices.Sort(named)
		if !slices.Equal(named, []string{"D", "E"}) {
			t.Fatalf("cycle %d: shadow targets %v, want each unselected id once: [D E]", cycle, named)
		}
	}
	if _, ok := tbl.Shadow(nil); ok || tbl.ProbeLeft() != 0 {
		t.Fatalf("shadow outlived the window: budget %d", tbl.ProbeLeft())
	}
}

// TestObserveBatchFreshSeedEquivalence pins the cold-start contract: for a
// fresh estimator (Samples == 0), ObserveBatch(n) must land exactly where
// n consecutive Observe calls with the batch mean land — first sample
// seeds, the rest fold through the EWMA — for n ∈ {1, 2, 10}, including a
// warm follow-up batch at a different value.
func TestObserveBatchFreshSeedEquivalence(t *testing.T) {
	mk := func() *Router {
		r, err := NewRouter(DefaultConfig(LRS), testRNG())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.AddDownstream("B"); err != nil {
			t.Fatal(err)
		}
		return r
	}
	check := func(n int64, single, batched *Router) {
		t.Helper()
		es, eb := single.Estimates()["B"], batched.Estimates()["B"]
		if es.Samples != eb.Samples {
			t.Fatalf("n=%d: samples single %d, batched %d", n, es.Samples, eb.Samples)
		}
		if d := math.Abs(float64(es.Latency - eb.Latency)); d > float64(time.Microsecond) {
			t.Errorf("n=%d: latency drift %v (single %v, batched %v)", n, time.Duration(d), es.Latency, eb.Latency)
		}
		if d := math.Abs(float64(es.Processing - eb.Processing)); d > float64(time.Microsecond) {
			t.Errorf("n=%d: processing drift %v (single %v, batched %v)", n, time.Duration(d), es.Processing, eb.Processing)
		}
	}
	for _, n := range []int64{1, 2, 10} {
		single, batched := mk(), mk()
		for i := int64(0); i < n; i++ {
			if err := single.ObserveAck("B", 30*time.Millisecond, 12*time.Millisecond, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := batched.ObserveBatch("B", 30*time.Millisecond, 12*time.Millisecond, n, 0); err != nil {
			t.Fatal(err)
		}
		check(n, single, batched)
		// Warm continuation: a second batch at a new value must also track.
		for i := int64(0); i < n; i++ {
			if err := single.ObserveAck("B", 55*time.Millisecond, 21*time.Millisecond, time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		if err := batched.ObserveBatch("B", 55*time.Millisecond, 21*time.Millisecond, n, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		check(n, single, batched)
	}
}

// TestTableCursorsCarryOver: a rebuilt table continues its predecessor's
// round-robin cycle and SWRR credits instead of starting over, so the
// live pick spreads tuples across reconfigures exactly as the
// simulator's does.
func TestTableCursorsCarryOver(t *testing.T) {
	for _, det := range []bool{false, true} {
		cfg := DefaultConfig(RR)
		if det {
			cfg = DefaultConfig(LR) // two unsampled workers weigh 0.5 each
			cfg.Deterministic = true
		}
		cfg.ProbeEvery = 0
		r, err := NewRouter(cfg, testRNG())
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"B", "C"} {
			if err := r.AddDownstream(id); err != nil {
				t.Fatal(err)
			}
		}
		var got []string
		for i := 0; i < 4; i++ {
			tbl := r.Table()
			id, err := tbl.Pick(0, nil)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, id)
			r.Reconfigure(0)
			if r.Table() == tbl {
				t.Fatal("Reconfigure did not rebuild the table")
			}
		}
		if want := []string{"B", "C", "B", "C"}; !slices.Equal(got, want) {
			t.Fatalf("deterministic=%v: one pick per table gave %v, want %v", det, got, want)
		}
	}
}
