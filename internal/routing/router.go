package routing

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"
)

// Config parameterizes a Router. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Policy selects the resource-management algorithm.
	Policy PolicyKind
	// Alpha is the EWMA smoothing factor for delay estimates in (0, 1].
	Alpha float64
	// ReconfigurePeriod is how often the routing table is recomputed
	// from fresh estimates (paper: every 1 s).
	ReconfigurePeriod time.Duration
	// ProbeEvery makes every Nth reconfiguration enter probe mode, in
	// which the next ProbeTuples tuples round-robin across *all*
	// downstreams so unselected workers keep fresh estimates (§V-B).
	// Zero disables probing.
	ProbeEvery int
	// ProbeTuples is the probe-mode length in tuples.
	ProbeTuples int
	// Headroom over-provisions Worker Selection: select until
	// Σμ ≥ (1+Headroom)·Λ. The paper uses zero headroom.
	Headroom float64
	// Deterministic switches probabilistic routing to smooth weighted
	// round-robin (an ablation; the paper uses weighted random draws).
	Deterministic bool
}

// DefaultConfig returns the paper's operating parameters for a policy.
func DefaultConfig(p PolicyKind) Config {
	return Config{
		Policy:            p,
		Alpha:             0.3,
		ReconfigurePeriod: time.Second,
		ProbeEvery:        5,
		ProbeTuples:       8,
	}
}

// Validate checks config invariants.
func (c Config) Validate() error {
	if !c.Policy.Valid() {
		return fmt.Errorf("routing: invalid policy %d", c.Policy)
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("routing: alpha %v outside (0,1]", c.Alpha)
	}
	if c.ReconfigurePeriod <= 0 {
		return fmt.Errorf("routing: non-positive reconfigure period %v", c.ReconfigurePeriod)
	}
	if c.ProbeEvery < 0 || c.ProbeTuples < 0 {
		return errors.New("routing: negative probe parameters")
	}
	if c.Headroom < 0 {
		return fmt.Errorf("routing: negative headroom %v", c.Headroom)
	}
	return nil
}

// Router executes one upstream function unit's share of the distributed
// algorithm: it maintains delay estimates for its downstream units,
// rebuilds its routing table (selection + weights) on every reconfigure
// and membership change, and answers per-tuple routing queries from that
// table — the same Table the live runtime publishes for its Submit path.
//
// Router is not safe for concurrent use; the runtime serializes access per
// upstream (matching the paper's one-router-per-upstream-thread design).
type Router struct {
	cfg Config
	rng *rand.Rand

	downs map[string]*Estimate
	// order is every downstream in insertion order, for deterministic
	// iteration. It is copy-on-write: each Table shares the slice it was
	// built from, so membership changes replace it instead of editing it.
	order []string

	// warm holds checkpointed estimates from a previous incarnation of the
	// coordinator, applied when the matching downstream re-joins so the
	// router resumes routing on measured rates instead of re-learning from
	// scratch (master crash recovery). Entries are consumed on use.
	warm map[string]Estimate

	// table is the current routing table, replaced by every rebuild.
	table *Table
	// credits keeps each downstream's SWRR credit (Deterministic only)
	// across rebuilds, also while it is deselected for a while.
	credits map[string]float64

	// Scratch buffers reused across recomputes.
	candScratch []cand
	rateScratch []float64

	rounds     int
	lastLambda float64
}

// Errors returned by Router operations.
var (
	ErrDupDownstream     = errors.New("routing: downstream already present")
	ErrUnknownDownstream = errors.New("routing: unknown downstream")
	ErrNoDownstream      = errors.New("routing: no downstream available")
)

// NewRouter returns a Router for the given config using rng for
// probabilistic draws. rng must not be shared concurrently.
func NewRouter(cfg Config, rng *rand.Rand) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("routing: nil rng")
	}
	return &Router{
		cfg:     cfg,
		rng:     rng,
		downs:   make(map[string]*Estimate),
		table:   &Table{policy: cfg.Policy, deterministic: cfg.Deterministic},
		credits: make(map[string]float64),
	}, nil
}

// Policy returns the router's policy kind.
func (r *Router) Policy() PolicyKind { return r.cfg.Policy }

// AddDownstream registers a new downstream unit. It becomes routable at
// the next Reconfigure — or immediately if no routing table exists yet.
// This is the paper's join path: the master activates function units on a
// joining device and upstreams add its thread ID to their routing tables.
func (r *Router) AddDownstream(id string) error {
	if id == "" {
		return errors.New("routing: empty downstream id")
	}
	if _, dup := r.downs[id]; dup {
		return fmt.Errorf("%w: %q", ErrDupDownstream, id)
	}
	est := r.warm[id]
	// A re-adopted worker resumes with its checkpointed estimate; new ACKs
	// fold into it through the usual EWMA.
	delete(r.warm, id)
	r.downs[id] = &est
	r.order = append(r.order[:len(r.order):len(r.order)], id)
	// Fold the newcomer into the live table right away so it receives
	// traffic within one reconfigure period ("within a second of G's
	// arrival, throughput rises", §VI-C). It starts with no estimate and
	// is treated optimistically by recompute.
	r.rebuild(r.lastLambda, false)
	return nil
}

// RemoveDownstream drops a downstream (device left or link broke) and
// immediately recomputes the routing table so no further tuples route to
// it (§IV-C "Handling Joining and Leaving").
func (r *Router) RemoveDownstream(id string) error {
	est, ok := r.downs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDownstream, id)
	}
	if est.Samples > 0 {
		// Park the estimate: a worker that drops and rejoins (or rejoins a
		// restarted master that checkpointed this table) resumes warm
		// instead of re-probing from scratch.
		if r.warm == nil {
			r.warm = make(map[string]Estimate, 1)
		}
		r.warm[id] = *est
	}
	delete(r.downs, id)
	delete(r.credits, id)
	i := slices.Index(r.order, id)
	r.order = slices.Delete(slices.Clone(r.order), i, i+1)
	r.rebuild(r.lastLambda, false)
	return nil
}

// Downstreams returns the registered downstream IDs in insertion order.
func (r *Router) Downstreams() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Has reports whether the downstream is registered.
func (r *Router) Has(id string) bool {
	_, ok := r.downs[id]
	return ok
}

// SeedEstimates primes the router with per-downstream estimates from a
// previous incarnation (crash recovery). Each estimate is applied — once —
// when a downstream with a matching ID joins; IDs that never re-join
// simply age out with the map. Downstreams already registered are updated
// in place.
func (r *Router) SeedEstimates(ests map[string]Estimate) {
	if len(ests) == 0 {
		return
	}
	if r.warm == nil {
		r.warm = make(map[string]Estimate, len(ests))
	}
	for id, est := range ests {
		if d, ok := r.downs[id]; ok {
			*d = est
			continue
		}
		r.warm[id] = est
	}
	r.rebuild(r.lastLambda, false)
}

// SeededEstimate reports the warm estimate waiting for a downstream that
// has not re-joined yet (crash-recovery introspection).
func (r *Router) SeededEstimate(id string) (Estimate, bool) {
	est, ok := r.warm[id]
	return est, ok
}

// Estimates returns a copy of every known estimate keyed by ID — the
// export side of checkpointing. Warm estimates still waiting for their
// worker to re-join are included, so checkpoints survive crash-restart
// cycles shorter than a worker's reconnect backoff.
func (r *Router) Estimates() map[string]Estimate {
	out := make(map[string]Estimate, len(r.downs)+len(r.warm))
	for id, est := range r.warm {
		out[id] = est
	}
	for id, est := range r.downs {
		out[id] = *est
	}
	return out
}

// ObserveAck folds a downstream ACK into its delay estimates. latency is
// the upstream-measured end-to-end delay (now − tuple emit timestamp);
// processing is the downstream-reported processing delay.
func (r *Router) ObserveAck(id string, latency, processing time.Duration, now time.Duration) error {
	est, ok := r.downs[id]
	if !ok {
		// The downstream may have just been removed; late ACKs are
		// expected and ignored.
		return fmt.Errorf("%w: %q", ErrUnknownDownstream, id)
	}
	est.Observe(latency, processing, r.cfg.Alpha, now)
	return nil
}

// Estimate returns the current estimate for a downstream.
func (r *Router) Estimate(id string) (Estimate, error) {
	est, ok := r.downs[id]
	if !ok {
		return Estimate{}, fmt.Errorf("%w: %q", ErrUnknownDownstream, id)
	}
	return *est, nil
}

// Reconfigure recomputes the routing table from current estimates, given
// the measured input tuple rate lambda (Λ). The runtime calls this every
// ReconfigurePeriod.
func (r *Router) Reconfigure(lambda float64) {
	r.rounds++
	r.rebuild(lambda, r.cfg.ProbeEvery > 0 && r.rounds%r.cfg.ProbeEvery == 0)
}

// rebuild replaces the current table with one recomputed for lambda. The
// new table carries over its predecessor's round-robin and probe cursors
// and SWRR credits, and — unless arm opens a fresh probe window of
// ProbeTuples — its un-consumed probe budget. The budget migrates by
// linking the successor first, then claiming the remainder with Swap:
// an abandonment racing on the old table either zeroes the budget before
// the Swap (0 migrates) or walks the chain into the successor after it
// (abandonProbes re-loads next after its stores, so a walk that misses
// the link happened entirely before the Swap and already drained the
// budget). Either way the budget is spent at most once, and the
// successor's abandoned latch makes the kill stick even if the Store
// below lands after a chained zeroing. A fresh window is not linked, so
// stale abandonments cannot reach it.
func (r *Router) rebuild(lambda float64, arm bool) {
	prev := r.table
	t := &Table{policy: r.cfg.Policy, deterministic: r.cfg.Deterministic, order: r.order}
	r.recompute(t, lambda)
	t.weight = make(map[string]float64, len(t.selected))
	for i, id := range t.selected {
		t.weight[id] = t.weights[i]
	}
	if t.deterministic {
		prev.swrrMu.Lock()
		for i, id := range prev.selected {
			if _, ok := r.downs[id]; ok {
				r.credits[id] = prev.swrrCredits[i]
			}
		}
		prev.swrrMu.Unlock()
		t.swrrCredits = make([]float64, len(t.selected))
		for i, id := range t.selected {
			t.swrrCredits[i] = r.credits[id]
		}
	}
	if arm {
		t.probeLeft.Store(int64(r.cfg.ProbeTuples))
	} else {
		prev.next.Store(t)
		t.probeLeft.Store(max(prev.probeLeft.Swap(0), 0))
	}
	t.rrIdx.Store(prev.rrIdx.Load())
	t.probeIdx.Store(prev.probeIdx.Load())
	r.table = t
}

// rateFor returns the service-rate estimate the policy uses for a
// downstream. Downstreams with no samples are treated optimistically with
// an infinite rate so they are tried first (and measured) before being
// relied upon.
func (r *Router) rateFor(est *Estimate) float64 {
	if !est.HasSample() {
		return float64(1<<62) / float64(time.Second)
	}
	if r.cfg.Policy.UsesLatency() {
		return est.LatencyRate()
	}
	return est.ProcessingRate()
}

// cand is one downstream candidate during table recomputation.
type cand struct {
	id   string
	rate float64
}

// recompute fills t's selection, weights, cumulative weights and
// overload flag from the current estimates. Its candidate and
// rate buffers are the router's reusable scratch.
func (r *Router) recompute(t *Table, lambda float64) {
	r.lastLambda = lambda
	if len(r.order) == 0 {
		return
	}
	if r.cfg.Policy == RR {
		// Round-robin routes over all downstreams with equal weight.
		t.selected = r.order
		t.weights = make([]float64, len(r.order))
		for i := range t.weights {
			t.weights[i] = 1 / float64(len(r.order))
		}
		return
	}

	cands := r.candScratch[:0]
	fastest := 0.0
	for _, id := range r.order {
		est := r.downs[id]
		rate := r.rateFor(est)
		if est.HasSample() && rate > fastest {
			fastest = rate
		}
		cands = append(cands, cand{id: id, rate: rate})
	}
	r.candScratch = cands
	// A sampled delay of zero or less (a coarse or virtual clock, or a
	// backward wall-clock step) has no finite rate: rateOf reads it as 0,
	// which would rank the fastest worker slowest. Read it as the fastest
	// finite rate measured, or as the clock's 1 ns resolution when no
	// downstream has a positive delay.
	if fastest == 0 {
		fastest = rateOf(time.Nanosecond)
	}
	for i := range cands {
		if cands[i].rate == 0 {
			cands[i].rate = fastest
		}
	}
	// Stable insertion sort by descending service rate; ties keep
	// insertion order, which keeps runs deterministic. Downstream sets
	// are small (the paper's testbed has eight workers), so this beats
	// sort.SliceStable and avoids its closure/interface allocations.
	for i := 1; i < len(cands); i++ {
		x := cands[i]
		j := i - 1
		for j >= 0 && cands[j].rate < x.rate {
			cands[j+1] = cands[j]
			j--
		}
		cands[j+1] = x
	}

	chosen := cands
	if r.cfg.Policy.UsesSelection() && lambda > 0 {
		// Worker Selection: the minimum prefix with Σμ ≥ (1+h)·Λ. If the
		// constraint is infeasible, all downstreams are selected (§V-A)
		// and the infeasibility itself is surfaced via Overloaded so the
		// runtime can shed instead of letting Submit back up. Unsampled
		// downstreams carry an optimistic (effectively infinite) rate, so
		// a swarm is never declared overloaded while unmeasured capacity
		// remains.
		target := lambda * (1 + r.cfg.Headroom)
		sum := 0.0
		cut := len(cands)
		for i, c := range cands {
			sum += c.rate
			if sum >= target {
				cut = i + 1
				break
			}
		}
		t.overloaded = sum < target
		chosen = cands[:cut]
	}

	// Routing weights p_i ∝ μ_i over the selected set (§V-A "Data
	// Routing"). Unsampled downstreams (infinite rate) would swallow the
	// whole distribution, so they are capped at the best sampled rate —
	// or share equally when nothing is sampled yet.
	best := 0.0
	for _, c := range chosen {
		if r.downs[c.id].HasSample() && c.rate > best {
			best = c.rate
		}
	}
	total := 0.0
	rates := r.rateScratch[:0]
	for _, c := range chosen {
		rate := c.rate
		if !r.downs[c.id].HasSample() {
			if best > 0 {
				rate = best
			} else {
				rate = 1
			}
		}
		rates = append(rates, rate)
		total += rate
	}
	r.rateScratch = rates
	if total == 0 {
		// No rate to weigh by: share equally rather than divide by zero.
		for i := range rates {
			rates[i] = 1
		}
		total = float64(len(rates))
	}
	t.selected = make([]string, len(chosen))
	t.weights = make([]float64, len(chosen))
	t.cum = make([]float64, len(chosen))
	acc := 0.0
	for i, c := range chosen {
		w := rates[i] / total
		acc += w
		t.selected[i], t.weights[i], t.cum[i] = c.id, w, acc
	}
}

// Table returns the current routing table. The caller must serialize
// Table with the router's other methods (the usual single-writer
// discipline); the returned table itself is free of that requirement and
// stays valid — though no longer current — after the next rebuild.
func (r *Router) Table() *Table { return r.table }

// Selected returns the IDs in the current routing table and their weights.
func (r *Router) Selected() ([]string, []float64) {
	return slices.Clone(r.table.selected), slices.Clone(r.table.weights)
}

// Probing reports whether the router is currently in probe mode.
func (r *Router) Probing() bool { return r.table.ProbeLeft() > 0 }

// Overloaded reports whether the last recompute found Worker Selection
// infeasible: even with every downstream selected, the measured input
// rate Λ exceeds the swarm's estimated service capacity Σμ. This is the
// saturation signal behind the runtime's Submit-side admission control.
// Always false for policies without selection.
func (r *Router) Overloaded() bool { return r.table.overloaded }

// Route picks the downstream for the next tuple. During probe mode it
// cycles all downstreams round-robin; otherwise it follows the policy
// (cyclic for RR, weighted draw for the probabilistic policies).
func (r *Router) Route() (string, error) {
	return r.RouteAvoiding(nil)
}

// RouteAvoiding is Route with a congestion hint: during probe mode,
// downstreams for which avoid reports true (typically: their send queue is
// already full) are skipped rather than probed — a backed-up connection is
// itself a fresh signal, and blocking the upstream on a probe would stall
// the pipeline. Outside probe mode the hint is ignored: policy-routed
// traffic experiences normal backpressure. A probe tuple is routed to the
// slot the table's probe cursor names; any other tuple is the table's
// policy pick, with the uniform draw taken from the router's rng.
func (r *Router) RouteAvoiding(avoid func(id string) bool) (string, error) {
	t := r.table
	if t.Empty() {
		return "", ErrNoDownstream
	}
	if id, ok := t.pickProbe(avoid); ok {
		return id, nil
	}
	u := 0.0
	if t.policy != RR && !t.deterministic {
		u = r.rng.Float64()
	}
	return t.Pick(u, nil)
}

// Info is a read-only snapshot of one downstream's routing state for
// reports and debugging.
type Info struct {
	ID       string
	Estimate Estimate
	Selected bool
	Weight   float64
}

// Snapshot returns per-downstream routing state in insertion order.
func (r *Router) Snapshot() []Info {
	return r.AppendSnapshot(make([]Info, 0, len(r.order)))
}

// AppendSnapshot appends per-downstream routing state in insertion order
// to dst and returns it. Callers sampling every tick can reuse one Info
// slice across snapshots (dst = buf[:0]) so steady-state sampling does
// not allocate.
func (r *Router) AppendSnapshot(dst []Info) []Info {
	for _, id := range r.order {
		w, ok := r.table.weight[id]
		dst = append(dst, Info{ID: id, Estimate: *r.downs[id], Selected: ok, Weight: w})
	}
	return dst
}
