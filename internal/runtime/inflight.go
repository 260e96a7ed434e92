package runtime

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swingframework/swing/internal/obs"
	"github.com/swingframework/swing/internal/tuple"
	"github.com/swingframework/swing/internal/wire"
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
	// quarantined as ShedPoison. Mutated only under the table lock.
	failedOn []string
	// hedged marks an entry already speculatively duplicated to a second
	// worker, so a straggler is hedged once, not once per sweep.
	hedged bool
}

// minInflightSlots is the slot array's starting size.
const minInflightSlots = 64

// inflightSlot is one cell of the table's slot array: the entry tracked
// under id, or e == nil for an empty cell.
type inflightSlot struct {
	id uint64
	e  *inflightEntry
}

// inflightTable tracks every tuple between routing and acknowledgment,
// keyed by tuple ID (unique within a run, per the tuple contract). When a
// worker connection breaks, takeWorker surrenders its un-acked tuples for
// retransmission; a result frame acks and releases its entry.
//
// Entries live in a power-of-two slot array indexed by id & mask. Every
// source in the repo numbers tuples densely (ID == SeqNo), so the IDs in
// flight form a window that maps onto distinct slots: track and ack are
// an index, not a hash. An ID whose slot is held by a different live ID
// — a straggler from a lap ago, or sparse or colliding caller IDs — goes
// to the overflow map instead, which stays empty in steady state. The
// array doubles when the live count passes half its slots, so it stays
// within 4× the peak live count whatever the IDs.
//
// One mutex guards the slots, the overflow map, the orphans and the
// master's whole cumulative ledger record: every counter moves in the
// critical section of the table change it describes, so each sample
// (ledgerSnapshot, checkpoint) is consistent. A dead worker's off-table
// backlog is carried by the orphans (takeWorker), so the sampled
// invariant
//
//	Acked + Shed + live + orphans == Submitted
//
// is exact on every sample, including mid-retransmit, and a checkpoint
// cut persists the orphans as pending beside the live entries; the one
// remaining seam is the recovered backlog before its checkpointed
// counters are seeded, which happens before the listener opens.
type inflightTable struct {
	mu    sync.Mutex
	slots []inflightSlot
	mask  uint64
	over  map[uint64]*inflightEntry
	live  int
	led   obs.Counters
	// orphans holds, by tuple ID, the entries taken off the table by
	// takeWorker (or failAttempt, or a reclaim of a re-dispatch) and not
	// yet re-dispatched (trackSubmitBatch) or abandoned (shedOrphan,
	// shedUntracked): a dead worker's backlog in the retransmitter's
	// hands. Each keeps its tuple as marshaled when it left the table —
	// the retransmit path rewrites the tuple after that — and its
	// attempt, which is what a checkpoint cut writes for it. Unlike the
	// cumulative counters its size is instantaneous; samples report it
	// as Retransmitting.
	orphans map[uint64]ckptPending
	// approx mirrors live for admission control's lock-free read; it is
	// stored at the end of every critical section that changes live.
	approx atomic.Int64
}

func newInflightTable() *inflightTable {
	return &inflightTable{slots: make([]inflightSlot, minInflightSlots), mask: minInflightSlots - 1}
}

// lookup returns the entry tracked under id, or nil. Caller holds mu.
func (t *inflightTable) lookup(id uint64) *inflightEntry {
	if s := &t.slots[id&t.mask]; s.e != nil && s.id == id {
		return s.e
	}
	return t.over[id]
}

// put tracks e under id, replacing any entry already tracked there.
// Caller holds mu.
func (t *inflightTable) put(id uint64, e *inflightEntry) {
	s := &t.slots[id&t.mask]
	if s.e != nil && s.id == id {
		s.e = e
		return
	}
	if _, ok := t.over[id]; ok {
		t.over[id] = e
		return
	}
	t.place(id, e)
	t.live++
	if t.live > len(t.slots)/2 {
		t.grow()
	}
}

// place stores an untracked id in its slot, or in the overflow map when
// another ID holds the slot. Caller holds mu.
func (t *inflightTable) place(id uint64, e *inflightEntry) {
	if s := &t.slots[id&t.mask]; s.e == nil {
		*s = inflightSlot{id: id, e: e}
		return
	}
	if t.over == nil {
		t.over = make(map[uint64]*inflightEntry)
	}
	t.over[id] = e
}

// grow doubles the slot array and re-places every live entry, which
// moves overflow entries whose slots have come free back into the array.
// Caller holds mu.
func (t *inflightTable) grow() {
	old, over := t.slots, t.over
	t.slots = make([]inflightSlot, 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	t.over = nil
	for _, s := range old {
		if s.e != nil {
			t.place(s.id, s.e)
		}
	}
	for id, e := range over {
		t.place(id, e)
	}
}

// remove untracks id and returns its entry, or nil if none was tracked.
// Caller holds mu.
func (t *inflightTable) remove(id uint64) *inflightEntry {
	if s := &t.slots[id&t.mask]; s.e != nil && s.id == id {
		e := s.e
		*s = inflightSlot{}
		t.live--
		return e
	}
	e, ok := t.over[id]
	if ok {
		delete(t.over, id)
		t.live--
	}
	return e
}

// scan visits every tracked entry and untracks those fn returns true
// for. Caller holds mu.
func (t *inflightTable) scan(fn func(*inflightEntry) bool) {
	for i := range t.slots {
		if s := &t.slots[i]; s.e != nil && fn(s.e) {
			*s = inflightSlot{}
			t.live--
		}
	}
	for id, e := range t.over {
		if fn(e) {
			delete(t.over, id)
			t.live--
		}
	}
}

// orphan moves e, just removed from the table, into the orphans with
// its tuple marshaled now. Caller holds mu.
func (t *inflightTable) orphan(e *inflightEntry) {
	b, _ := tuple.Marshal(e.t) // it marshaled when it was sent
	if t.orphans == nil {
		t.orphans = make(map[uint64]ckptPending)
	}
	t.orphans[e.t.ID] = ckptPending{Tuple: b, Attempt: e.attempt}
}

// unlock publishes live for size and releases mu.
func (t *inflightTable) unlock() {
	t.approx.Store(int64(t.live))
	t.mu.Unlock()
}

// each calls fn on every tracked entry under the table lock, so fn may
// read and set the entry's mutable fields; it must not call back into
// the table.
func (t *inflightTable) each(fn func(*inflightEntry)) {
	t.mu.Lock()
	t.scan(func(e *inflightEntry) bool { fn(e); return false })
	t.mu.Unlock()
}

// trackSubmitBatch records a batch of dispatches under one lock
// acquisition, counting each into the ledger in the same critical
// section as its insert: Submitted for a first attempt, Retransmitted
// for a re-route. An entry replaces any stale entry under the same ID.
// The table keeps pointers into block: the caller owns it and must not
// move its entries afterwards.
func (t *inflightTable) trackSubmitBatch(block []inflightEntry) {
	t.mu.Lock()
	for i := range block {
		e := &block[i]
		t.put(e.t.ID, e)
		if e.attempt == 0 {
			t.led.Submitted++
		} else {
			// A re-route consumes the orphan takeWorker (or a reclaim)
			// handed to the retransmitter.
			t.led.Retransmitted++
			delete(t.orphans, e.t.ID)
		}
	}
	t.unlock()
}

// track inserts an entry without touching the ledger — the recovered
// backlog, whose counters were restored wholesale from the checkpoint.
func (t *inflightTable) track(id uint64, e *inflightEntry) {
	t.mu.Lock()
	t.put(id, e)
	t.unlock()
}

// ackBatch applies one result frame's acks in entry order under one lock
// acquisition. Each releases the entry for its tuple and counts it, in
// one step, adding the ID to *acked (if acked is not nil) when one was
// being tracked; a drop notice's reason (Dropped) or a filtered result's
// is counted in the same critical section, whether or not the tuple was
// still tracked.
func (t *inflightTable) ackBatch(entries []resultEntry, acked *[]uint64) {
	t.mu.Lock()
	for i := range entries {
		meta := &entries[i].meta
		if t.remove(meta.TupleID) != nil {
			t.led.Acked++
			if acked != nil {
				*acked = append(*acked, meta.TupleID)
			}
		}
		if meta.Dropped {
			countDrop(&t.led, meta.Reason)
		} else if meta.Reason == wire.DropFiltered {
			t.led.Filtered++
		}
	}
	t.unlock()
}

// reclaim removes and returns the entry only if it is still assigned to
// the given worker, un-counting its dispatch — the Submit path calls it
// when an enqueue fails and the tuple is about to be re-routed (and
// re-counted) or abandoned. A false return means another path (typically
// the dead worker's retransmitter) already owns the tuple, whose original
// dispatch stays counted.
func (t *inflightTable) reclaim(id uint64, worker string) (*inflightEntry, bool) {
	t.mu.Lock()
	defer t.unlock()
	e := t.lookup(id)
	if e == nil || e.worker != worker {
		return nil, false
	}
	t.remove(id)
	if e.attempt == 0 {
		t.led.Submitted--
	} else {
		// The re-route is undone: the entry is an orphan again, back in
		// the caller's hands until re-tracked or abandoned.
		t.led.Retransmitted--
		t.orphan(e)
	}
	return e, true
}

// shedUntracked accounts tuple id, reclaimed from the table and then
// abandoned because nowhere could take it: the tuple entered the system
// (Submitted, first attempts only) and left it (Shed, overload subset)
// in one balanced step.
func (t *inflightTable) shedUntracked(id uint64, attempt uint8) {
	t.mu.Lock()
	if attempt == 0 {
		t.led.Submitted++
	} else {
		// A reclaimed retransmission was an orphan in hand; shedding
		// resolves it.
		delete(t.orphans, id)
	}
	t.led.Shed++
	t.led.ShedOverload++
	t.mu.Unlock()
}

// shedOrphan counts the shedding of orphan id, an entry already
// surrendered by takeWorker (retry deadline or attempt budget exhausted
// during retransmission).
func (t *inflightTable) shedOrphan(id uint64) {
	t.mu.Lock()
	t.led.Shed++
	delete(t.orphans, id)
	t.mu.Unlock()
}

// shedOrphanPoison is shedOrphan with the quarantine subset counted: the
// tuple was in the poison redispatcher's hands and nowhere unburned could
// take it.
func (t *inflightTable) shedOrphanPoison(id uint64) {
	t.mu.Lock()
	t.led.Shed++
	t.led.ShedPoison++
	delete(t.orphans, id)
	t.mu.Unlock()
}

// failVerdict is failAttempt's decision for one drop notice.
type failVerdict int

const (
	// failUntracked: no entry — a straggler notice for a tuple already
	// acked, shed, or in another path's hands. Nothing to do.
	failUntracked failVerdict = iota
	// failRetry: the tuple should be re-dispatched to a worker it has not
	// burned yet; the entry moved to the orphans and is returned.
	failRetry
	// failQuarantined: the tuple reached PoisonAttempts distinct workers
	// and was shed as poison in the same critical section.
	failQuarantined
)

// failAttempt processes a worker's drop notice in quarantine mode: the
// notice is counted by reason, the worker joins the tuple's
// distinct-failure history, and the tuple is either quarantined (k
// distinct workers burned — shed as poison) or surrendered to the caller
// for re-dispatch, in one critical section.
func (t *inflightTable) failAttempt(id uint64, worker string, k int, reason wire.DropReason) (*inflightEntry, failVerdict) {
	t.mu.Lock()
	defer t.unlock()
	countDrop(&t.led, reason)
	e := t.remove(id)
	if e == nil {
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
	if len(e.failedOn) >= k {
		t.led.Shed++
		t.led.ShedPoison++
		return e, failQuarantined
	}
	t.orphan(e)
	return e, failRetry
}

// takeWorker removes and returns every entry assigned to the worker — the
// un-acked backlog of a broken connection. Each taken entry moves from
// the live count into the orphans in the same critical section, so a
// consistent sample still balances and a checkpoint cut still persists
// it while the retransmitter re-routes the backlog; each entry leaves
// the orphans when it is re-tracked (trackSubmitBatch) or abandoned
// (shedOrphan).
func (t *inflightTable) takeWorker(worker string) []*inflightEntry {
	var out []*inflightEntry
	t.mu.Lock()
	t.scan(func(e *inflightEntry) bool {
		if e.worker != worker {
			return false
		}
		out = append(out, e)
		t.orphan(e)
		return true
	})
	t.unlock()
	return out
}

// shedOldest removes and sheds up to n entries, oldest first by sentAt,
// counting each victim in the same critical section that removes it.
// This is the overload-shedding order: a saturated swarm keeps the
// freshest frames (the ones a live viewer still cares about) and
// abandons the stalest. Candidates are sorted outside the lock, then
// re-checked under it — an entry acked or re-tracked between collection
// and shedding is simply no longer a victim.
func (t *inflightTable) shedOldest(n int) []*inflightEntry {
	if n <= 0 {
		return nil
	}
	var all []*inflightEntry
	t.each(func(e *inflightEntry) { all = append(all, e) })
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].sentAt.Before(all[j].sentAt) })
	out := make([]*inflightEntry, 0, n)
	t.mu.Lock()
	for _, e := range all {
		if len(out) == n {
			break
		}
		if t.lookup(e.t.ID) == e {
			t.remove(e.t.ID)
			t.led.Shed++
			t.led.ShedOverload++
			out = append(out, e)
		}
	}
	t.unlock()
	return out
}

// sweepTimeouts counts, per worker, entries older than timeout that have
// not been counted before, marking them so each stuck tuple charges its
// worker's breaker exactly once. Entries stay tracked — a late ack or the
// worker's death still resolves them through the normal paths.
func (t *inflightTable) sweepTimeouts(now time.Time, timeout time.Duration) map[string]int {
	var counts map[string]int
	t.each(func(e *inflightEntry) {
		if e.timedOut || now.Sub(e.sentAt) < timeout {
			return
		}
		e.timedOut = true
		if counts == nil {
			counts = make(map[string]int)
		}
		counts[e.worker]++
	})
	return counts
}

// checkpoint samples the cumulative counters and marshals every tracked
// tuple in one critical section, so the checkpoint's Submitted and its
// pending set describe the same instant: a tuple tracked after the
// sample is in neither, and its write-ahead record follows the cut. The
// marshal runs under the lock because the retransmit path rewrites a
// tuple's attempt and emit time once its entry leaves the table; for the
// same reason the orphans, off the table, are written as they were
// marshaled when they left it.
func (t *inflightTable) checkpoint() (obs.Counters, []ckptPending) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Size the buffer up front: growing it by doubling costs several
	// times the marshal itself.
	size := 0
	t.scan(func(e *inflightEntry) bool { size += e.t.WireSize(); return false })
	buf := make([]byte, 0, size)
	pending := make([]ckptPending, 0, t.live+len(t.orphans))
	t.scan(func(e *inflightEntry) bool {
		if b, err := tuple.AppendMarshal(buf, e.t); err == nil {
			pending = append(pending, ckptPending{Tuple: b[len(buf):], Attempt: e.attempt})
			buf = b
		}
		return false
	})
	for _, p := range t.orphans {
		if p.Tuple != nil {
			pending = append(pending, p)
		}
	}
	return t.led, pending
}

// markHedged flags e hedged and counts it, in one critical section with
// the check that e is still tracked and unhedged and with build, which
// reads e.t: once an entry leaves the table the retransmit path may
// rewrite its tuple, so only here is reading it safe. It returns build's
// frame, or nil if e is gone, already hedged, or build returned nil.
func (t *inflightTable) markHedged(e *inflightEntry, build func(*tuple.Tuple) *wire.Buf) *wire.Buf {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.hedged || t.lookup(e.t.ID) != e {
		return nil
	}
	fb := build(e.t)
	if fb != nil {
		e.hedged = true
		t.led.Hedged++
	}
	return fb
}

// seedLedger installs checkpointed counters (crash recovery).
func (t *inflightTable) seedLedger(c obs.Counters) {
	t.mu.Lock()
	t.led = c
	t.mu.Unlock()
}

// ledgerSnapshot samples the ledger under the table lock: the
// consistent read behind Stats and StatusSnapshot. No tuple lifecycle
// transition can interleave, so the returned ledger always balances.
// Recovered is the caller's to fill.
func (t *inflightTable) ledgerSnapshot() obs.Ledger {
	t.mu.Lock()
	l := obs.Ledger{Counters: t.led, InFlight: t.live, Retransmitting: int64(len(t.orphans))}
	t.mu.Unlock()
	l.WorkerDropped = l.DropErrors + l.DropPanics + l.DropDeadlines
	l.Balanced = l.CheckBalance()
	return l
}

// count applies f to the counters under the table lock: the increments
// with no table change of their own (shadow copies, evictions,
// re-adopted workers).
func (t *inflightTable) count(f func(l *obs.Counters)) {
	t.mu.Lock()
	f(&t.led)
	t.mu.Unlock()
}

// size reports the approximate number of tracked tuples — admission
// control's cheap read. Exact counts come from ledgerSnapshot.
func (t *inflightTable) size() int {
	return int(t.approx.Load())
}
