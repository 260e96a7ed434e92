package runtime

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swingframework/swing/internal/tuple"
)

// inflightEntry is one routed-but-unacknowledged tuple: everything the
// master needs to retransmit it if the worker holding it dies.
type inflightEntry struct {
	t        *tuple.Tuple
	worker   string
	attempt  uint8
	deadline time.Time
	// sentAt orders entries for oldest-first overload shedding and ages
	// them for the circuit breaker's ack-timeout sweep.
	sentAt time.Time
	// timedOut marks an entry already counted as a breaker failure, so a
	// long-stuck tuple charges its worker once, not once per sweep.
	timedOut bool
	// failedOn lists the distinct workers whose drop notices burned this
	// tuple (poison-quarantine mode). It travels with the tuple across
	// re-dispatches; at PoisonAttempts distinct workers the tuple is
	// quarantined as ShedPoison. Mutated only under the shard lock.
	failedOn []string
	// hedged marks an entry already speculatively duplicated to a second
	// worker, so a straggler is hedged once, not once per sweep.
	hedged bool
}

// maxShards caps hot-state fan-out: each shard is a map plus a mutex, and
// each journal segment an open file, so unbounded -shards values would
// only waste descriptors past the point of contention relief.
const maxShards = 128

// ceilPow2 rounds n up to the next power of two (minimum 1), clamped to
// maxShards — shard selection is a mask, so the count must be a power of
// two.
func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	if n > maxShards {
		return maxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// mix64 is the splitmix64 finalizer: tuple IDs are often sequential
// (frame counters), so shard selection hashes them first to spread
// neighboring IDs across shards instead of filling one at a time.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ledgerCounters is one shard's slice of the fault-tolerance ledger. The
// global view is the sum across shards; every mutation happens in the
// same critical section as the map change it accounts for, so the summed
// invariant Acked + Shed + InFlight + Orphaned == Submitted holds at
// every consistently sampled instant (ledgerSnapshot), not just at
// quiescence.
type ledgerCounters struct {
	submitted     int64
	acked         int64
	retransmitted int64
	shed          int64
	shedOverload  int64
	// shedPoison is the quarantine subset of shed: tuples abandoned after
	// failing on PoisonAttempts distinct workers (or with no unburned
	// worker left to try).
	shedPoison int64
	// hedged counts entries speculatively duplicated to a second worker.
	// It annotates the in-flight column rather than extending the balance:
	// a hedge duplicates a dispatch, not a tuple, so
	// acked + shed + inflight + orphaned == submitted is untouched.
	hedged int64
	// shadowed counts shadow copies: tuples also sent to an unselected
	// worker during a probe window so its estimate stays fresh. Like
	// hedged it annotates the ledger outside the balance — a copy is
	// never tracked, and its result, when it loses, is counted in
	// Arrived and dropped at the sink like a hedge's duplicate.
	shadowed int64
	// orphaned counts entries taken off the table by takeWorker and not
	// yet re-dispatched (trackSubmitBatch) or abandoned (shedOrphan/
	// shedUntracked): a dead worker's backlog in the retransmitter's
	// hands. Unlike the cumulative columns it is instantaneous, and it
	// closes the sampled invariant exactly:
	//
	//	acked + shed + inflight + orphaned == submitted
	//
	// on every ledgerSnapshot, including mid-retransmit — what used to be
	// the one documented transient.
	orphaned int64
}

func (l *ledgerCounters) add(o ledgerCounters) {
	l.submitted += o.submitted
	l.acked += o.acked
	l.retransmitted += o.retransmitted
	l.shed += o.shed
	l.shedOverload += o.shedOverload
	l.shedPoison += o.shedPoison
	l.hedged += o.hedged
	l.shadowed += o.shadowed
	l.orphaned += o.orphaned
}

// inflightShard is one lock domain of the table: a slice of the entry map
// fused with its slice of the ledger. Padding keeps neighboring shards
// off one cache line under multi-core Submit.
type inflightShard struct {
	mu  sync.Mutex
	m   map[uint64]*inflightEntry
	led ledgerCounters
	_   [40]byte
}

// inflightTable tracks every tuple between routing and acknowledgment,
// keyed by tuple ID (unique within a run, per the tuple contract), split
// across power-of-two shards so concurrent Submit and ACK paths contend
// only when they hash to the same shard. When a worker connection breaks,
// takeWorker surrenders its un-acked tuples for retransmission; a result
// frame acks and releases its entry.
//
// The ledger lives inside the shards: counter mutations share the
// critical section of the map mutation they describe. A dead worker's
// off-table backlog is carried by the orphaned column (takeWorker), so
// the sampled invariant acked + shed + inflight + orphaned == submitted
// is exact even mid-retransmit; the one remaining seam is the recovered
// backlog before its checkpointed counters are seeded, which happens
// before the listener opens.
type inflightTable struct {
	shards []inflightShard
	mask   uint64
	// approx is the racy live-entry total for admission-control checks;
	// exact counts come from ledgerSnapshot.
	approx atomic.Int64
}

func newInflightTable(shards int) *inflightTable {
	n := ceilPow2(shards)
	t := &inflightTable{shards: make([]inflightShard, n), mask: uint64(n - 1)}
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]*inflightEntry)
	}
	return t
}

func (t *inflightTable) shard(id uint64) *inflightShard {
	return &t.shards[mix64(id)&t.mask]
}

// trackSubmitBatch records a batch of dispatches with one lock
// acquisition per touched shard instead of one per tuple, and counts each
// into the ledger in the same critical section as its insert: Submitted
// for a first attempt, Retransmitted for a re-route. An entry replaces
// any stale entry under the same ID. The table keeps pointers into
// block, which is regrouped by shard in place first: the caller owns it
// and must not move its entries afterwards.
func (t *inflightTable) trackSubmitBatch(block []inflightEntry) {
	var added int64
	for lo := 0; lo < len(block); {
		idx := mix64(block[lo].t.ID) & t.mask
		hi := lo
		for j := lo; j < len(block); j++ {
			if mix64(block[j].t.ID)&t.mask == idx {
				block[hi], block[j] = block[j], block[hi]
				hi++
			}
		}
		s := &t.shards[idx]
		s.mu.Lock()
		for i := lo; i < hi; i++ {
			e := &block[i]
			id := e.t.ID
			if _, had := s.m[id]; !had {
				added++
			}
			s.m[id] = e
			if e.attempt == 0 {
				s.led.submitted++
			} else {
				// A re-route consumes the orphan takeWorker (or a reclaim)
				// handed to the retransmitter.
				s.led.retransmitted++
				s.led.orphaned--
			}
		}
		s.mu.Unlock()
		lo = hi
	}
	if added != 0 {
		t.approx.Add(added)
	}
}

// track inserts an entry without touching the ledger — the recovered
// backlog, whose counters were restored wholesale from the checkpoint.
func (t *inflightTable) track(id uint64, e *inflightEntry) {
	s := t.shard(id)
	s.mu.Lock()
	if _, had := s.m[id]; !had {
		t.approx.Add(1)
	}
	s.m[id] = e
	s.mu.Unlock()
}

// ack releases the entry for an acknowledged tuple and counts it, in one
// step, reporting whether one was being tracked.
func (t *inflightTable) ack(id uint64) bool {
	s := t.shard(id)
	s.mu.Lock()
	_, ok := s.m[id]
	if ok {
		delete(s.m, id)
		s.led.acked++
		t.approx.Add(-1)
	}
	s.mu.Unlock()
	return ok
}

// reclaim removes and returns the entry only if it is still assigned to
// the given worker, un-counting its dispatch — the Submit path calls it
// when an enqueue fails and the tuple is about to be re-routed (and
// re-counted) or abandoned. A false return means another path (typically
// the dead worker's retransmitter) already owns the tuple, whose original
// dispatch stays counted.
func (t *inflightTable) reclaim(id uint64, worker string) (*inflightEntry, bool) {
	s := t.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[id]
	if !ok || e.worker != worker {
		return nil, false
	}
	delete(s.m, id)
	if e.attempt == 0 {
		s.led.submitted--
	} else {
		// The re-route is undone: the entry is an orphan again, back in
		// the caller's hands until re-tracked or abandoned.
		s.led.retransmitted--
		s.led.orphaned++
	}
	t.approx.Add(-1)
	return e, true
}

// shedUntracked accounts a tuple that was reclaimed from the table and
// then abandoned because nowhere could take it: the tuple entered the
// system (Submitted, first attempts only) and left it (Shed, overload
// subset) in one balanced step.
func (t *inflightTable) shedUntracked(id uint64, attempt uint8) {
	s := t.shard(id)
	s.mu.Lock()
	if attempt == 0 {
		s.led.submitted++
	} else {
		// A reclaimed retransmission was an orphan in hand; shedding
		// resolves it.
		s.led.orphaned--
	}
	s.led.shed++
	s.led.shedOverload++
	s.mu.Unlock()
}

// shedOrphan counts the shedding of an entry already surrendered by
// takeWorker (retry deadline or attempt budget exhausted during
// retransmission).
func (t *inflightTable) shedOrphan(id uint64) {
	s := t.shard(id)
	s.mu.Lock()
	s.led.shed++
	s.led.orphaned--
	s.mu.Unlock()
}

// shedOrphanPoison is shedOrphan with the quarantine subset counted: the
// tuple was in the poison redispatcher's hands and nowhere unburned could
// take it.
func (t *inflightTable) shedOrphanPoison(id uint64) {
	s := t.shard(id)
	s.mu.Lock()
	s.led.shed++
	s.led.shedPoison++
	s.led.orphaned--
	s.mu.Unlock()
}

// failVerdict is failAttempt's decision for one drop notice.
type failVerdict int

const (
	// failUntracked: no entry — a straggler notice for a tuple already
	// acked, shed, or in another path's hands. Nothing to do.
	failUntracked failVerdict = iota
	// failRetry: the tuple should be re-dispatched to a worker it has not
	// burned yet; the entry moved to the orphaned column and is returned.
	failRetry
	// failQuarantined: the tuple reached PoisonAttempts distinct workers
	// and was shed as poison in the same critical section.
	failQuarantined
)

// failAttempt processes a worker's drop notice in quarantine mode: the
// worker joins the tuple's distinct-failure history, and the tuple is
// either quarantined (k distinct workers burned — shed as poison) or
// surrendered to the caller for re-dispatch, in one critical section.
func (t *inflightTable) failAttempt(id uint64, worker string, k int) (*inflightEntry, failVerdict) {
	s := t.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[id]
	if !ok {
		return nil, failUntracked
	}
	burned := false
	for _, w := range e.failedOn {
		if w == worker {
			burned = true
			break
		}
	}
	if !burned {
		e.failedOn = append(e.failedOn, worker)
	}
	delete(s.m, id)
	t.approx.Add(-1)
	if len(e.failedOn) >= k {
		s.led.shed++
		s.led.shedPoison++
		return e, failQuarantined
	}
	s.led.orphaned++
	return e, failRetry
}

// takeWorker removes and returns every entry assigned to the worker — the
// un-acked backlog of a broken connection. Each taken entry moves from
// the live count into the orphaned column in the same critical section,
// so a consistent sample still balances while the retransmitter re-routes
// the backlog; each entry leaves the column when it is re-tracked
// (trackSubmitBatch) or abandoned (shedOrphan).
func (t *inflightTable) takeWorker(worker string) []*inflightEntry {
	var out []*inflightEntry
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for id, e := range s.m {
			if e.worker == worker {
				out = append(out, e)
				delete(s.m, id)
				s.led.orphaned++
				t.approx.Add(-1)
			}
		}
		s.mu.Unlock()
	}
	return out
}

// shedOldest removes and sheds up to n entries, oldest first by sentAt,
// counting each victim in the same critical section that removes it.
// This is the overload-shedding order: a saturated swarm keeps the
// freshest frames (the ones a live viewer still cares about) and
// abandons the stalest. Candidates are collected per shard, globally
// sorted, then re-checked under their shard lock — an entry acked
// between collection and shedding is simply no longer a victim.
func (t *inflightTable) shedOldest(n int) []*inflightEntry {
	if n <= 0 {
		return nil
	}
	var all []*inflightEntry
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, e := range s.m {
			all = append(all, e)
		}
		s.mu.Unlock()
	}
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].sentAt.Before(all[j].sentAt) })
	out := make([]*inflightEntry, 0, n)
	for _, e := range all {
		if len(out) == n {
			break
		}
		s := t.shard(e.t.ID)
		s.mu.Lock()
		if cur, ok := s.m[e.t.ID]; ok && cur == e {
			delete(s.m, e.t.ID)
			s.led.shed++
			s.led.shedOverload++
			t.approx.Add(-1)
			out = append(out, e)
		}
		s.mu.Unlock()
	}
	return out
}

// sweepTimeouts counts, per worker, entries older than timeout that have
// not been counted before, marking them so each stuck tuple charges its
// worker's breaker exactly once. Entries stay tracked — a late ack or the
// worker's death still resolves them through the normal paths.
func (t *inflightTable) sweepTimeouts(now time.Time, timeout time.Duration) map[string]int {
	var counts map[string]int
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, e := range s.m {
			if e.timedOut || now.Sub(e.sentAt) < timeout {
				continue
			}
			e.timedOut = true
			if counts == nil {
				counts = make(map[string]int)
			}
			counts[e.worker]++
		}
		s.mu.Unlock()
	}
	return counts
}

// snapshotEntries returns a copy of the entry list (checkpointing). The
// entries themselves are shared; callers only read immutable fields
// (tuple bytes, attempt).
func (t *inflightTable) snapshotEntries() []*inflightEntry {
	var out []*inflightEntry
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, e := range s.m {
			out = append(out, e)
		}
		s.mu.Unlock()
	}
	return out
}

// seedLedger installs checkpointed counters (crash recovery). They land
// wholly in shard 0 — only the cross-shard sum is meaningful.
func (t *inflightTable) seedLedger(c *checkpointState) {
	s := &t.shards[0]
	s.mu.Lock()
	s.led = ledgerCounters{
		submitted:     c.Submitted,
		acked:         c.Acked,
		retransmitted: c.Retransmitted,
		shed:          c.Shed,
		shedOverload:  c.ShedOverload,
		shedPoison:    c.ShedPoison,
		hedged:        c.Hedged,
		shadowed:      c.Shadowed,
	}
	s.mu.Unlock()
}

// ledgerSnapshot sums the per-shard counters and live-entry counts under
// all shard locks (taken in index order, so concurrent snapshots cannot
// deadlock): the consistent read behind MasterStats. No tuple lifecycle
// transition can interleave, so the returned view always balances.
func (t *inflightTable) ledgerSnapshot() (ledgerCounters, int) {
	for i := range t.shards {
		t.shards[i].mu.Lock()
	}
	var led ledgerCounters
	n := 0
	for i := range t.shards {
		led.add(t.shards[i].led)
		n += len(t.shards[i].m)
	}
	for i := len(t.shards) - 1; i >= 0; i-- {
		t.shards[i].mu.Unlock()
	}
	return led, n
}

// noteShadowed counts one shadow copy of tuple id, sent beside its
// tracked dispatch; the copy itself takes no entry.
func (t *inflightTable) noteShadowed(id uint64) {
	s := t.shard(id)
	s.mu.Lock()
	s.led.shadowed++
	s.mu.Unlock()
}

// size reports the approximate number of tracked tuples — admission
// control's cheap read. Exact counts come from ledgerSnapshot.
func (t *inflightTable) size() int {
	return int(t.approx.Load())
}

// dedupSet is the sharded cross-epoch sink dedup set: tuple IDs the
// previous incarnation acknowledged, whose straggler results must be
// dropped rather than replayed. It shares the table's shard-by-hashed-ID
// layout so lookups on the ACK path never funnel through one lock.
type dedupSet struct {
	shards []dedupShard
	mask   uint64
}

type dedupShard struct {
	mu sync.Mutex
	m  map[uint64]struct{}
	_  [48]byte
}

func newDedupSet(shards int, ids map[uint64]struct{}) *dedupSet {
	n := ceilPow2(shards)
	d := &dedupSet{shards: make([]dedupShard, n), mask: uint64(n - 1)}
	for i := range d.shards {
		d.shards[i].m = make(map[uint64]struct{})
	}
	for id := range ids {
		s := &d.shards[mix64(id)&d.mask]
		s.m[id] = struct{}{}
	}
	return d
}

// has reports whether the ID was acknowledged by a previous incarnation.
func (d *dedupSet) has(id uint64) bool {
	if d == nil {
		return false
	}
	s := &d.shards[mix64(id)&d.mask]
	s.mu.Lock()
	_, ok := s.m[id]
	s.mu.Unlock()
	return ok
}

// len reports the total number of remembered IDs (tests, logging).
func (d *dedupSet) len() int {
	if d == nil {
		return 0
	}
	n := 0
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
