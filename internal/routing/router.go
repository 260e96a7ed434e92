package routing

import (
	"errors"
	"fmt"
	"math/rand/v2"
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

// downState is the router's bookkeeping for one downstream function unit.
type downState struct {
	id  string
	est Estimate
	// swrrCredit accumulates weight for deterministic smooth weighted
	// round-robin.
	swrrCredit float64
}

// Router executes one upstream function unit's share of the distributed
// algorithm: it maintains delay estimates for its downstream units,
// periodically recomputes the routing table (selection + weights), and
// answers per-tuple routing queries.
//
// Router is not safe for concurrent use; the runtime serializes access per
// upstream (matching the paper's one-router-per-upstream-thread design).
type Router struct {
	cfg Config
	rng *rand.Rand

	downs map[string]*downState
	order []string // insertion order, for deterministic iteration

	// warm holds checkpointed estimates from a previous incarnation of the
	// coordinator, applied when the matching downstream re-joins so the
	// router resumes routing on measured rates instead of re-learning from
	// scratch (master crash recovery). Entries are consumed on use.
	warm map[string]Estimate

	// Routing table (recomputed on Reconfigure).
	selected []string
	weights  []float64 // parallel to selected; sums to 1
	cum      []float64 // cumulative weights, for binary-search draws

	// selWeight mirrors selected→weight for O(1) Snapshot lookups; it is
	// rebuilt in recompute so per-tick snapshots allocate nothing.
	selWeight map[string]float64

	// Scratch buffers reused across recomputes so the per-second
	// reconfigure path stops allocating in steady state.
	candScratch []cand
	rateScratch []float64

	rrIdx      int
	rounds     int
	probeLeft  int
	probeIdx   int
	lastLambda float64
	infeasible bool

	// lastTable is the most recently built immutable snapshot (see
	// snapshot.go); Table consults it to migrate un-consumed probe budget
	// into the next snapshot. probeArmed marks that Reconfigure opened a
	// fresh probe window since the last snapshot, which must not be
	// clipped by the (drained) budget of the previous one.
	lastTable  *Table
	probeArmed bool
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
		cfg:       cfg,
		rng:       rng,
		downs:     make(map[string]*downState),
		selWeight: make(map[string]float64),
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
	d := &downState{id: id}
	if est, ok := r.warm[id]; ok {
		// A re-adopted worker resumes with its checkpointed estimate; new
		// ACKs fold into it through the usual EWMA.
		d.est = est
		delete(r.warm, id)
	}
	r.downs[id] = d
	r.order = append(r.order, id)
	// Fold the newcomer into the live table right away so it receives
	// traffic within one reconfigure period ("within a second of G's
	// arrival, throughput rises", §VI-C). It starts with no estimate and
	// is treated optimistically by recompute.
	r.recompute(r.lastLambda)
	return nil
}

// RemoveDownstream drops a downstream (device left or link broke) and
// immediately recomputes the routing table so no further tuples route to
// it (§IV-C "Handling Joining and Leaving").
func (r *Router) RemoveDownstream(id string) error {
	d, ok := r.downs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDownstream, id)
	}
	if d.est.Samples > 0 {
		// Park the estimate: a worker that drops and rejoins (or rejoins a
		// restarted master that checkpointed this table) resumes warm
		// instead of re-probing from scratch.
		if r.warm == nil {
			r.warm = make(map[string]Estimate, 1)
		}
		r.warm[id] = d.est
	}
	delete(r.downs, id)
	for i, d := range r.order {
		if d == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.recompute(r.lastLambda)
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
			d.est = est
			continue
		}
		r.warm[id] = est
	}
	r.recompute(r.lastLambda)
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
	for id, d := range r.downs {
		out[id] = d.est
	}
	return out
}

// ObserveAck folds a downstream ACK into its delay estimates. latency is
// the upstream-measured end-to-end delay (now − tuple emit timestamp);
// processing is the downstream-reported processing delay.
func (r *Router) ObserveAck(id string, latency, processing time.Duration, now time.Duration) error {
	d, ok := r.downs[id]
	if !ok {
		// The downstream may have just been removed; late ACKs are
		// expected and ignored.
		return fmt.Errorf("%w: %q", ErrUnknownDownstream, id)
	}
	d.est.Observe(latency, processing, r.cfg.Alpha, now)
	return nil
}

// Estimate returns the current estimate for a downstream.
func (r *Router) Estimate(id string) (Estimate, error) {
	d, ok := r.downs[id]
	if !ok {
		return Estimate{}, fmt.Errorf("%w: %q", ErrUnknownDownstream, id)
	}
	return d.est, nil
}

// Reconfigure recomputes the routing table from current estimates, given
// the measured input tuple rate lambda (Λ). The runtime calls this every
// ReconfigurePeriod.
func (r *Router) Reconfigure(lambda float64) {
	r.rounds++
	if r.cfg.ProbeEvery > 0 && r.rounds%r.cfg.ProbeEvery == 0 {
		r.probeLeft = r.cfg.ProbeTuples
		r.probeArmed = true
	}
	r.recompute(lambda)
}

// rateFor returns the service-rate estimate the policy uses for a
// downstream. Downstreams with no samples are treated optimistically with
// an infinite rate so they are tried first (and measured) before being
// relied upon.
func (r *Router) rateFor(d *downState) float64 {
	if !d.est.HasSample() {
		return float64(1<<62) / float64(time.Second)
	}
	if r.cfg.Policy.UsesLatency() {
		return d.est.LatencyRate()
	}
	return d.est.ProcessingRate()
}

// cand is one downstream candidate during table recomputation.
type cand struct {
	id   string
	rate float64
}

// recompute rebuilds selection, weights and the cumulative-weight table.
// It runs every reconfigure period per upstream, so it draws entirely on
// the router's reusable scratch buffers and allocates nothing in steady
// state.
func (r *Router) recompute(lambda float64) {
	r.lastLambda = lambda
	r.selected = r.selected[:0]
	r.weights = r.weights[:0]
	r.cum = r.cum[:0]
	clear(r.selWeight)
	defer func() {
		for i, id := range r.selected {
			r.selWeight[id] = r.weights[i]
		}
	}()
	if len(r.order) == 0 {
		return
	}
	if r.cfg.Policy == RR {
		// Round-robin routes over all downstreams with equal weight.
		r.selected = append(r.selected, r.order...)
		w := 1 / float64(len(r.selected))
		for range r.selected {
			r.weights = append(r.weights, w)
		}
		return
	}

	cands := r.candScratch[:0]
	fastest := 0.0
	for _, id := range r.order {
		d := r.downs[id]
		rate := r.rateFor(d)
		if d.est.HasSample() && rate > fastest {
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
	r.infeasible = false
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
		r.infeasible = sum < target
		chosen = cands[:cut]
	}

	// Routing weights p_i ∝ μ_i over the selected set (§V-A "Data
	// Routing"). Unsampled downstreams (infinite rate) would swallow the
	// whole distribution, so they are capped at the best sampled rate —
	// or share equally when nothing is sampled yet.
	best := 0.0
	for _, c := range chosen {
		if r.downs[c.id].est.HasSample() && c.rate > best {
			best = c.rate
		}
	}
	total := 0.0
	rates := r.rateScratch[:0]
	for _, c := range chosen {
		rate := c.rate
		if !r.downs[c.id].est.HasSample() {
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
	acc := 0.0
	for i, c := range chosen {
		w := rates[i] / total
		acc += w
		r.selected = append(r.selected, c.id)
		r.weights = append(r.weights, w)
		r.cum = append(r.cum, acc)
	}
}

// Selected returns the IDs in the current routing table and their weights.
func (r *Router) Selected() ([]string, []float64) {
	ids, ws := r.AppendSelected(nil, nil)
	return ids, ws
}

// AppendSelected appends the current routing table to the given slices
// and returns them, letting per-tick callers reuse their buffers instead
// of allocating fresh copies every sample.
func (r *Router) AppendSelected(ids []string, ws []float64) ([]string, []float64) {
	return append(ids, r.selected...), append(ws, r.weights...)
}

// Probing reports whether the router is currently in probe mode.
func (r *Router) Probing() bool { return r.probeLeft > 0 }

// Overloaded reports whether the last recompute found Worker Selection
// infeasible: even with every downstream selected, the measured input
// rate Λ exceeds the swarm's estimated service capacity Σμ. This is the
// saturation signal behind the runtime's Submit-side admission control.
// Always false for policies without selection.
func (r *Router) Overloaded() bool { return r.infeasible }

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
// traffic experiences normal backpressure.
func (r *Router) RouteAvoiding(avoid func(id string) bool) (string, error) {
	if len(r.order) == 0 {
		return "", ErrNoDownstream
	}
	if len(r.selected) == 0 {
		r.recompute(r.lastLambda)
	}
	if r.probeLeft > 0 {
		for tries := 0; tries < len(r.order); tries++ {
			id := r.order[r.probeIdx%len(r.order)]
			r.probeIdx++
			if avoid != nil && avoid(id) {
				continue
			}
			r.probeLeft--
			return id, nil
		}
		// Every downstream is congested; give up on this probe window
		// and route normally.
		r.probeLeft = 0
	}
	switch {
	case r.cfg.Policy == RR:
		id := r.selected[r.rrIdx%len(r.selected)]
		r.rrIdx++
		return id, nil
	case r.cfg.Deterministic:
		return r.routeSWRR(), nil
	default:
		return r.routeWeightedRandom(), nil
	}
}

// routeWeightedRandom draws a downstream with probability equal to its
// routing weight (the paper's per-tuple weighted random number, §V-A),
// resolved against the precomputed cumulative-weight table by binary
// search: the first bucket whose cumulative weight exceeds the draw.
func (r *Router) routeWeightedRandom() string {
	u := r.rng.Float64()
	lo, hi := 0, len(r.cum)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u < r.cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return r.selected[lo]
}

// routeSWRR implements smooth weighted round-robin: each downstream
// accrues credit equal to its weight per tuple; the highest-credit
// downstream is picked and debited. Deterministic ablation of the paper's
// probabilistic routing.
func (r *Router) routeSWRR() string {
	bestIdx := 0
	var best *downState
	for i, id := range r.selected {
		d := r.downs[id]
		d.swrrCredit += r.weights[i]
		if best == nil || d.swrrCredit > best.swrrCredit {
			best, bestIdx = d, i
		}
	}
	best.swrrCredit--
	return r.selected[bestIdx]
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
// not allocate; selection weights resolve through the table maintained
// by recompute rather than a per-call map.
func (r *Router) AppendSnapshot(dst []Info) []Info {
	for _, id := range r.order {
		w, ok := r.selWeight[id]
		dst = append(dst, Info{ID: id, Estimate: r.downs[id].est, Selected: ok, Weight: w})
	}
	return dst
}
