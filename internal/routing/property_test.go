package routing

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// propCase is one routing-property scenario: a router configuration, a
// starting swarm and the seed of the operations driven through it.
type propCase struct {
	cfg  Config
	lats []int64 // per-worker latency in ms at the start; <0 leaves it unsampled
	seed uint64  // 0 runs no random operations
	// lambda is the input rate of every Reconfigure.
	lambda float64
}

// TestRoutingProperties checks the routing table against the paper's
// definition after every Reconfigure and membership change, over random
// worker counts (1–16), rates (zero, equal and unsampled latencies
// included), Λ, Headroom and policies:
//   - the selection is the minimum μ-sorted prefix with Σμ ≥ (1+h)·Λ,
//     or every worker with Overloaded;
//   - weights are finite, sum to 1 and are ∝ μ, an unsampled worker
//     weighing as the best sampled rate selected;
//   - with ProbeEvery > 0, every unselected worker is named as a Shadow
//     target within ⌈N/ProbeTuples⌉ probe windows.
func TestRoutingProperties(t *testing.T) {
	lrs := DefaultConfig(LRS)
	cases := map[string]propCase{
		// More workers than probe tuples: each window must start where the
		// last one stopped, or the workers past ProbeTuples are never
		// probed. w00 alone covers Λ.
		"probe-coverage-12x8": {cfg: lrs, lats: []int64{1, 500, 500, 500, 500, 500, 500, 500, 500, 500, 500, 500}, lambda: 100},
	}
	for seed := uint64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		cfg := DefaultConfig(Policies()[rng.IntN(len(Policies()))])
		cfg.Headroom = []float64{0, 0, 0.1, 0.5}[rng.IntN(4)]
		cfg.Deterministic = rng.IntN(4) == 0
		cfg.ProbeEvery = rng.IntN(4)
		cfg.ProbeTuples = 1 + rng.IntN(8)
		n := 1 + rng.IntN(16)
		lats := make([]int64, n)
		for i := range lats {
			lats[i] = randLatency(rng)
		}
		lambda := []float64{0, 1, 5, 20, 100, 1000}[rng.IntN(6)]
		cases[fmt.Sprintf("seed-%03d", seed)] = propCase{cfg: cfg, lats: lats, seed: seed, lambda: lambda}
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) { runPropCase(t, c) })
	}
}

// randLatency draws a worker latency in ms: unsampled (-1), zero, one of
// a few equal values, or anything up to 2 s.
func randLatency(rng *rand.Rand) int64 {
	switch rng.IntN(5) {
	case 0:
		return -1
	case 1:
		return 0
	case 2:
		return []int64{10, 20}[rng.IntN(2)]
	default:
		return 1 + rng.Int64N(2000)
	}
}

func runPropCase(t *testing.T, c propCase) {
	r, err := NewRouter(c.cfg, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	observe := func(id string, ms int64) {
		if ms >= 0 {
			d := time.Duration(ms) * time.Millisecond
			if err := r.ObserveAck(id, d, d/2, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	next := 0
	add := func() string {
		id := fmt.Sprintf("w%02d", next)
		next++
		if err := r.AddDownstream(id); err != nil {
			t.Fatal(err)
		}
		return id
	}
	for _, ms := range c.lats {
		observe(add(), ms)
	}
	r.Reconfigure(c.lambda)
	checkTable(t, r, c.lambda, "start")

	rng := rand.New(rand.NewPCG(c.seed, 23))
	for op := 0; c.seed != 0 && op < 40; op++ {
		ids := r.Downstreams()
		var what string
		switch k := rng.IntN(6); {
		case k == 0 && len(ids) < 16:
			add() // unsampled until a later reconfigure observes it
			what = "add"
		case k == 1 && len(ids) > 1:
			if err := r.RemoveDownstream(ids[rng.IntN(len(ids))]); err != nil {
				t.Fatal(err)
			}
			what = "remove"
		case k == 2:
			d := time.Duration(rng.Int64N(50)) * time.Millisecond
			r.SeedEstimates(map[string]Estimate{ids[rng.IntN(len(ids))]: {Latency: d, Processing: d, Samples: 1}})
			what = "seed"
		default:
			observe(ids[rng.IntN(len(ids))], randLatency(rng))
			r.Reconfigure(c.lambda)
			what = "reconfigure"
		}
		// Spend a few picks and probe slots between rebuilds.
		for i := rng.IntN(4); i > 0; i-- {
			if _, err := r.RouteAvoiding(func(string) bool { return rng.IntN(3) == 0 }); err != nil {
				t.Fatal(err)
			}
			r.Table().Shadow(nil)
		}
		checkTable(t, r, c.lambda, fmt.Sprintf("op %d (%s)", op, what))
	}
	if c.cfg.ProbeEvery > 0 {
		checkProbeCoverage(t, r, c.lambda)
	}
}

// checkTable checks the router's current selection and weights against
// the definition, recomputing each μ from the router's estimates.
func checkTable(t *testing.T, r *Router, lambda float64, when string) {
	t.Helper()
	cfg := r.cfg
	order := r.Downstreams()
	rates := make(map[string]float64, len(order))
	sampled := make(map[string]bool, len(order))
	fastest := 0.0
	for _, id := range order {
		est, err := r.Estimate(id)
		if err != nil {
			t.Fatal(err)
		}
		delay := est.Processing
		if cfg.Policy.UsesLatency() {
			delay = est.Latency
		}
		switch {
		case !est.HasSample():
			rates[id] = math.Inf(1) // tried before any measured worker
		case delay > 0:
			rates[id] = float64(time.Second) / float64(delay)
			sampled[id] = true
			fastest = max(fastest, rates[id])
		default:
			sampled[id] = true
		}
	}
	if fastest == 0 {
		fastest = float64(time.Second) // the clock's 1 ns resolution
	}
	for id := range sampled {
		if rates[id] == 0 {
			rates[id] = fastest // a delay ≤ 0 is as fast as the fastest
		}
	}

	sel, ws := r.Selected()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s\nselected %v weights %v overloaded %v\nrates %v", when,
			fmt.Sprintf(format, args...), sel, ws, r.Overloaded(), rates)
	}
	if len(sel) != len(ws) || len(sel) == 0 {
		fail("selection and weights do not match")
	}
	if cfg.Policy == RR {
		if !slices.Equal(sel, order) {
			fail("RR selects %v, want every worker %v", sel, order)
		}
	} else {
		// A prefix of the μ-sorted order: μ non-increasing along the
		// selection, and no unselected worker faster than the slowest
		// selected one.
		for i := 1; i < len(sel); i++ {
			if rates[sel[i]] > rates[sel[i-1]] {
				fail("selection not sorted by μ")
			}
		}
		for _, id := range order {
			if !slices.Contains(sel, id) && rates[id] > rates[sel[len(sel)-1]] {
				fail("unselected %s is faster than the slowest selected", id)
			}
		}
		target := lambda * (1 + cfg.Headroom)
		sum, sumButLast := 0.0, 0.0
		for i, id := range sel {
			if i == len(sel)-1 {
				sumButLast = sum
			}
			sum += rates[id]
		}
		switch {
		case !cfg.Policy.UsesSelection() || lambda == 0:
			if len(sel) != len(order) || r.Overloaded() {
				fail("without selection every worker is routable and none overloaded")
			}
		case r.Overloaded():
			if len(sel) != len(order) || sum >= target {
				fail("Overloaded with Σμ %v ≥ %v or a worker left out", sum, target)
			}
		default:
			if sum < target || sumButLast >= target {
				fail("not the minimum prefix: Σμ %v, without the slowest %v, target %v", sum, sumButLast, target)
			}
		}
	}

	// Weights ∝ μ, an unsampled worker weighing as the best sampled rate
	// selected (1 if none is sampled); RR weighs every worker equally.
	best, total := 0.0, 0.0
	for _, id := range sel {
		if sampled[id] {
			best = max(best, rates[id])
		}
	}
	want := make([]float64, len(sel))
	for i, id := range sel {
		switch {
		case cfg.Policy == RR:
			want[i] = 1
		case sampled[id]:
			want[i] = rates[id]
		case best > 0:
			want[i] = best
		default:
			want[i] = 1
		}
		total += want[i]
	}
	sumW := 0.0
	for i, w := range ws {
		if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
			fail("weight %v of %s is not a positive finite number", w, sel[i])
		}
		if math.Abs(w-want[i]/total) > 1e-12 {
			fail("weight of %s is %v, want %v", sel[i], w, want[i]/total)
		}
		sumW += w
	}
	if math.Abs(sumW-1) > 1e-9 {
		fail("weights sum to %v", sumW)
	}
}

// checkProbeCoverage holds estimates and membership still and runs probe
// windows, drawing every slot as a Shadow: each unselected worker must be
// named within ⌈N/ProbeTuples⌉ windows.
func checkProbeCoverage(t *testing.T, r *Router, lambda float64) {
	t.Helper()
	for r.Table().ProbeLeft() > 0 {
		r.Table().Shadow(nil) // finish the window the operations left open
	}
	sel, _ := r.Selected()
	n := len(r.Downstreams())
	windows := (n + r.cfg.ProbeTuples - 1) / r.cfg.ProbeTuples
	named := map[string]bool{}
	for w := 0; w < windows; w++ {
		for r.Table().ProbeLeft() == 0 {
			r.Reconfigure(lambda)
		}
		tbl := r.Table()
		for tbl.ProbeLeft() > 0 {
			if id, ok := tbl.Shadow(nil); ok {
				named[id] = true
			}
		}
	}
	for _, id := range r.Downstreams() {
		if !slices.Contains(sel, id) && !named[id] {
			t.Fatalf("unselected %s not probed within %d windows of %d tuples over %d workers (probed %v)",
				id, windows, r.cfg.ProbeTuples, n, named)
		}
	}
}
