package routing

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Table is one router's routing table: the selection, weights and
// cursors every pick reads. The Router replaces its table on every
// reconfigure or membership change and routes the simulator's tuples
// through the current one (Router.RouteAvoiding); the live runtime
// publishes each new table RCU-style (it swaps an atomic.Pointer[Table])
// and picks from it on the Submit path. Pick and Shadow are safe for
// unlimited concurrent callers without any lock on the weighted-random
// and round-robin paths: the selection, weights and cumulative-weight
// slices are frozen at build time, and the only mutable state — the
// shared probe budget and the round-robin and probe cursors — is atomic.
// The deterministic SWRR ablation alone takes a small internal mutex
// (credit accounting is inherently sequential).
//
// A Table never observes later estimate updates: the router folds those
// in (ObserveBatch) and its next table carries the new weights. The
// cursors, SWRR credits and un-consumed probe budget carry from a table
// to its successor (Router.rebuild), so a mid-window rebuild neither
// re-arms probing nor restarts the probe cycle at the first downstream.
type Table struct {
	policy        PolicyKind
	deterministic bool
	overloaded    bool

	selected []string           // routing targets, frozen
	weights  []float64          // parallel to selected; sums to 1
	cum      []float64          // cumulative weights for binary-search draws
	weight   map[string]float64 // selected id → weight
	order    []string           // every downstream, for probe round-robin

	probeLeft atomic.Int64
	probeIdx  atomic.Uint64
	rrIdx     atomic.Uint64

	// next points at the successor table that inherited this one's
	// un-consumed probe budget (set by Router.rebuild before the budget is
	// claimed). Window abandonment follows the chain so that "every
	// downstream is congested" kills the logical probe window wherever its
	// remaining budget currently lives, instead of resurrecting a drained
	// counter a concurrent rebuild already migrated. Tables whose budget
	// came from a fresh Reconfigure arm are deliberately not linked.
	// abandoned latches once the window is given up; it is monotonic, so
	// a migration racing with abandonment can never revive the window by
	// overwriting probeLeft.
	next      atomic.Pointer[Table]
	abandoned atomic.Bool

	swrrMu      sync.Mutex
	swrrCredits []float64
}

// Empty reports whether the table has no routable downstream.
func (t *Table) Empty() bool { return len(t.order) == 0 }

// Overloaded mirrors Router.Overloaded at build time.
func (t *Table) Overloaded() bool { return t.overloaded }

// Size returns the number of downstreams the table routes over.
func (t *Table) Size() int { return len(t.order) }

// Pick chooses the downstream for one tuple by policy alone: cyclic for
// RR, smooth weighted round-robin for the deterministic ablation, and
// otherwise the first bucket of the cumulative-weight table above u (the
// paper's per-tuple weighted random draw, §V-A). u must be uniform in
// [0, 1); the caller owns randomness so the table stays lock-free. Pick
// never spends probe budget, and avoid is ignored. Concurrent callers
// share the round-robin cursor atomically.
func (t *Table) Pick(u float64, avoid func(id string) bool) (string, error) {
	if len(t.selected) == 0 {
		return "", ErrNoDownstream
	}
	switch {
	case t.policy == RR:
		return t.selected[int((t.rrIdx.Add(1)-1)%uint64(len(t.selected)))], nil
	case t.deterministic:
		return t.pickSWRR(), nil
	default:
		return t.pickWeighted(u), nil
	}
}

// Shadow claims one probe slot for a shadow copy: while the window lasts,
// each tuple routed by Pick may also be copied to the worker its slot
// names, so an unselected worker's estimate stays fresh (§V-B step 1)
// without the tuple waiting on it. The slot is the one the simulator's
// routed probes claim (pickProbe). The id is returned only if that worker
// is outside the selected set — a slot that names a selected worker is
// used up without a copy, since its estimate is fed by policy traffic
// anyway.
func (t *Table) Shadow(avoid func(id string) bool) (string, bool) {
	id, ok := t.pickProbe(avoid)
	if !ok || t.Selects(id) {
		return "", false
	}
	return id, true
}

// Selects reports whether id is in the table's selected set.
func (t *Table) Selects(id string) bool {
	_, ok := t.weight[id]
	return ok
}

// pickProbe claims one probe slot and cycles the full downstream set,
// skipping avoided entries. A false return means the budget was already
// drained by concurrent picks — or every downstream is congested, which
// abandons the window.
func (t *Table) pickProbe(avoid func(id string) bool) (string, bool) {
	// CAS-decrement: the counter can never go below zero, so the total
	// number of successful claims is bounded by the armed budget even
	// under arbitrary contention (a blind Add(-1) after a Load()>0 gate
	// lets losers drive it negative).
	for {
		left := t.probeLeft.Load()
		if left <= 0 || t.abandoned.Load() {
			return "", false
		}
		if t.probeLeft.CompareAndSwap(left, left-1) {
			break
		}
	}
	for tries := 0; tries < len(t.order); tries++ {
		id := t.order[int((t.probeIdx.Add(1)-1)%uint64(len(t.order)))]
		if avoid != nil && avoid(id) {
			continue
		}
		return id, true
	}
	t.abandonProbes()
	return "", false
}

// abandonProbes ends the probe window on this table and on every
// successor that inherited its budget. The abandoned latch is set before
// the counter is zeroed and next is re-loaded only after both stores, so
// a migration racing with the walk either finds the budget already
// drained or is reached through the chain — a window abandoned under one
// table stays abandoned across rebuilds. Fresh windows armed by
// Reconfigure live in unlinked tables and are unaffected.
func (t *Table) abandonProbes() {
	for tb := t; tb != nil; tb = tb.next.Load() {
		tb.abandoned.Store(true)
		tb.probeLeft.Store(0)
	}
}

// ProbeLeft reports the probe budget remaining in this table; it is
// never negative and reads zero once the window is drained or abandoned.
func (t *Table) ProbeLeft() int64 {
	if t.abandoned.Load() {
		return 0
	}
	return max(t.probeLeft.Load(), 0)
}

// pickWeighted resolves a uniform draw against the cumulative-weight
// table by binary search: the first bucket whose cumulative weight
// exceeds the draw.
func (t *Table) pickWeighted(u float64) string {
	lo, hi := 0, len(t.cum)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u < t.cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return t.selected[lo]
}

// pickSWRR implements smooth weighted round-robin, the deterministic
// ablation of the paper's probabilistic routing: each selected downstream
// accrues credit equal to its weight per tuple; the highest-credit one is
// picked and debited.
func (t *Table) pickSWRR() string {
	t.swrrMu.Lock()
	defer t.swrrMu.Unlock()
	best := 0
	for i := range t.selected {
		t.swrrCredits[i] += t.weights[i]
		if t.swrrCredits[i] > t.swrrCredits[best] {
			best = i
		}
	}
	t.swrrCredits[best]--
	return t.selected[best]
}

// ObserveBatch folds n accumulated ACKs for one downstream in a single
// EWMA step, using the batch means: the closed form of n consecutive
// Observe calls with the same sample,
//
//	est' = (1-α)^n·est + (1-(1-α)^n)·mean
//
// This is the estimate-update half of the RCU submit path: ACK handlers
// bank sums and counts in per-connection atomics instead of taking the
// router lock per tuple, and a periodic flush folds each worker's batch
// here before the next table is built.
func (r *Router) ObserveBatch(id string, latency, processing time.Duration, n int64, now time.Duration) error {
	if n <= 0 {
		return nil
	}
	e, ok := r.downs[id]
	if !ok {
		return ErrUnknownDownstream
	}
	rem := n
	if e.Samples == 0 {
		// Seed exactly as Estimate.Observe's first-sample path does — the
		// first banked sample becomes the estimate — then fold the
		// remaining n−1 through the closed form below. Structurally
		// mirroring the per-sample path keeps ObserveBatch(n) identical to
		// n consecutive Observe calls from a cold estimator, so banked-ACK
		// flushing cannot skew warm-up estimates.
		e.Latency, e.Processing = latency, processing
		rem--
	}
	if rem > 0 {
		decay := math.Pow(1-r.cfg.Alpha, float64(rem))
		e.Latency = time.Duration(decay*float64(e.Latency) + (1-decay)*float64(latency))
		e.Processing = time.Duration(decay*float64(e.Processing) + (1-decay)*float64(processing))
	}
	e.Samples += n
	e.LastUpdate = now
	return nil
}
