package runtime

import (
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/swingframework/swing/internal/obs"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/tuple"
	"github.com/swingframework/swing/internal/wire"
)

// latRingSize bounds the per-worker latency sample window feeding the
// hedging threshold. 64 recent acks is enough for a stable p95 while
// staying cheap to copy and sort on each sweep.
const latRingSize = 64

// latRing is a fixed ring of recent end-to-end ack latencies. It carries
// its own lock: the ACK path appends from readLoop goroutines while the
// monitor's hedge sweep reads quantiles.
type latRing struct {
	mu  sync.Mutex
	buf [latRingSize]time.Duration
	n   int // filled entries, saturates at latRingSize
	i   int // next write index
}

func (r *latRing) add(d time.Duration) {
	r.mu.Lock()
	r.buf[r.i] = d
	r.i = (r.i + 1) % latRingSize
	if r.n < latRingSize {
		r.n++
	}
	r.mu.Unlock()
}

// quantile returns the q-quantile of the window, or 0 with fewer than
// 8 samples — too few acks to call anything a straggler.
func (r *latRing) quantile(q float64) time.Duration {
	r.mu.Lock()
	n := r.n
	var tmp [latRingSize]time.Duration
	copy(tmp[:n], r.buf[:n])
	r.mu.Unlock()
	if n < 8 {
		return 0
	}
	s := tmp[:n]
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(n-1))
	return s[idx]
}

// countDrop attributes one worker drop notice to its per-reason counter.
// The decoder admits only notices that name a failure (error, panic or
// deadline). Callers hold the in-flight table's lock.
func countDrop(c *obs.Counters, r wire.DropReason) {
	switch r {
	case wire.DropError:
		c.DropErrors++
	case wire.DropPanic:
		c.DropPanics++
	case wire.DropDeadline:
		c.DropDeadlines++
	}
}

// chargeDropBreaker counts a processor-drop notice as a breaker failure:
// the worker is reachable but not producing results.
func (m *Master) chargeDropBreaker(wc *workerConn) {
	wc.mu.Lock()
	prev := wc.br.state
	wc.br.onFailure(time.Now())
	next := wc.br.state
	wc.mu.Unlock()
	if prev != breakerOpen && next == breakerOpen {
		m.events.Record(obs.EventBreakerOpen, wc.id, "processor drops", 0)
		m.cfg.Logger.Warn("swing master: breaker opened", "worker", wc.id,
			"reason", "processor drops")
	}
}

// handlePoisonDrop is the quarantine-mode drop path: the notice burns the
// reporting worker in the tuple's distinct-failure history, and the tuple
// is re-dispatched to an unburned worker or quarantined after
// PoisonAttempts distinct workers. Only a tuple's first failure charges a
// worker's breaker: a poison tuple marching across the swarm burns each
// worker at most once and opens no breaker, while a genuinely sick worker
// is the first failure of every fresh tuple it drops and trips as before.
func (m *Master) handlePoisonDrop(wc *workerConn, meta wire.ResultMeta) {
	e, verdict := m.inflight.failAttempt(meta.TupleID, wc.id, m.cfg.PoisonAttempts, meta.Reason)
	switch verdict {
	case failUntracked:
		// Straggler notice for a tuple already acked, shed, or in another
		// path's hands.
	case failQuarantined:
		m.journalShed(e.t.ID, false)
		m.events.Record(obs.EventQuarantine, wc.id, "distinct-worker budget burned", 1)
		m.cfg.Logger.Warn("swing master: quarantined poison tuple",
			"tuple", e.t.ID, "seq", e.t.SeqNo,
			"workers", len(e.failedOn), "lastReason", meta.Reason.String())
	case failRetry:
		if len(e.failedOn) == 1 {
			m.chargeDropBreaker(wc)
		}
		m.wg.Add(1)
		go m.redispatchPoison(e)
	}
}

// redispatchPoison re-routes a suspect tuple around the workers it
// burned. It deliberately skips the MaxAttempts / RetryDeadline budget:
// quarantine-within-K-distinct-workers is the poison path's own crisp
// bound, and mixing budgets would quarantine early on busy swarms. When
// no unburned worker can take the tuple it is quarantined immediately.
func (m *Master) redispatchPoison(e *inflightEntry) {
	defer m.wg.Done()
	one := [1]*tuple.Tuple{e.t}
	if err := m.dispatch(one[:], e.attempt+1, e.deadline, e.failedOn); err != nil {
		m.inflight.shedOrphanPoison(e.t.ID)
		m.journalShed(e.t.ID, false)
		m.events.Record(obs.EventQuarantine, "", "no unburned worker", 1)
		m.cfg.Logger.Warn("swing master: quarantined poison tuple",
			"tuple", e.t.ID, "seq", e.t.SeqNo,
			"workers", len(e.failedOn), "err", err)
	}
}

// hedgeSweep speculatively duplicates stragglers: in-flight tuples older
// than their worker's straggler bar — twice its recent p95 ack latency,
// floored at HedgeAfter — are re-sent to a second worker. The first
// result wins through the normal ack path; the loser's duplicate finds no
// in-flight entry and the sink's sequence reorder already drops replayed
// frames, so at-most-once delivery is untouched. A hedge duplicates a
// dispatch, not a tuple: the ledger balance never sees it, only the
// Hedged annotation counts it.
func (m *Master) hedgeSweep(now time.Time) {
	workers := m.workerMap()
	if len(workers) < 2 {
		return // nowhere to hedge to
	}
	bar := make(map[string]time.Duration, len(workers))
	for id, wc := range workers {
		th := m.cfg.HedgeAfter
		if p := wc.lat.quantile(0.95); 2*p > th {
			th = 2 * p
		}
		bar[id] = th
	}
	var cands []*inflightEntry
	m.inflight.each(func(e *inflightEntry) {
		if th, ok := bar[e.worker]; ok && !e.hedged && now.Sub(e.sentAt) >= th {
			cands = append(cands, e)
		}
	})
	var hedged int64
	for _, e := range cands {
		if m.hedge(e, workers) {
			hedged++
		}
	}
	if hedged > 0 {
		m.events.Record(obs.EventHedge, "", "stragglers duplicated", hedged)
	}
}

// spareTarget returns the connection of worker id if it can take a copy
// of a tuple whose dispatch sits on primary — a hedge or a shadow probe:
// not the primary itself, connected, with send-queue room and a closed
// breaker. A copy is extra work, so it never takes a half-open breaker's
// probe slot or waits for a queue slot. nil means id is no spare.
func spareTarget(workers map[string]*workerConn, primary, id string) *workerConn {
	if id == primary {
		return nil
	}
	wc, ok := workers[id]
	if !ok || len(wc.slots) == cap(wc.slots) {
		return nil
	}
	wc.mu.Lock()
	closed := wc.br.state == breakerClosed
	wc.mu.Unlock()
	if !closed {
		return nil
	}
	return wc
}

// hedge duplicates one straggler to a second worker in a one-entry
// FrameTupleBatch. The frame is marshaled inside the table's critical
// section that confirms the entry is still live and flags it hedged
// (markHedged): once an entry leaves the table its tuple may be mutated
// by the retransmit path (EmitNanos, Attempt). The send-queue slot is
// reserved non-blocking before the lock — a sweep must never stall the
// master on a slow hedge target — and returned on any losing race.
func (m *Master) hedge(e *inflightEntry, workers map[string]*workerConn) bool {
	id, err := m.table.Load().Pick(m.pickU(), nil)
	if err != nil {
		return false
	}
	wc := spareTarget(workers, e.worker, id)
	if wc == nil {
		// A draw that lands back on the straggler's own worker would burn
		// the one-shot hedge flag on a duplicate down the same stalled
		// link, and one on a full or sick worker would not help. Leave the
		// entry unhedged so the next sweep redraws.
		return false
	}
	select {
	case wc.slots <- struct{}{}:
	default:
		return false // target filled up since the pick
	}
	fb := m.inflight.markHedged(e, oneEntryFrame)
	if fb == nil {
		<-wc.slots
		return false // acked, retransmitted, or hedged since collection
	}
	wc.out <- fb
	m.noteDispatchedN(wc, 1)
	return true
}

// shadowCopy is one tuple's shadow probe: a one-entry FrameTupleBatch
// for an unselected worker, marshaled before the tuple's own dispatch is
// tracked and sent only after that dispatch is queued.
type shadowCopy struct {
	t  *tuple.Tuple
	wc *workerConn
	fb *wire.Buf
}

// shadow claims the probe slot for one tuple routed to primary during a
// probe window (§V-B step 1) and, if the slot names an unselected spare
// worker, marshals the copy that will refresh that worker's estimate.
// The tuple itself keeps its policy pick, so in-order playback never
// waits on a probe: the sink plays whichever result arrives first. The
// copy is marshaled here, before the dispatch is tracked, because once
// tracked the retransmit path may rewrite the tuple (see hedge).
func (m *Master) shadow(table *routing.Table, workers map[string]*workerConn, t *tuple.Tuple, primary string) (shadowCopy, bool) {
	id, ok := table.Shadow(func(id string) bool { return spareTarget(workers, primary, id) == nil })
	if !ok {
		return shadowCopy{}, false
	}
	fb := oneEntryFrame(t)
	if fb == nil {
		return shadowCopy{}, false
	}
	return shadowCopy{t: t, wc: workers[id], fb: fb}, true
}

// oneEntryFrame marshals t as a one-entry FrameTupleBatch frame in a
// pooled buffer, or returns nil if t does not marshal.
func oneEntryFrame(t *tuple.Tuple) *wire.Buf {
	fb := frameBuf(wire.BatchOverhead + 4 + t.WireSize())
	var batch wire.TupleBatch
	batch.SetBuf(fb.B)
	if appendTupleEntry(&batch, t) != nil {
		fb.Release()
		return nil
	}
	fb.B = batch.Frame()
	return fb
}

// sendShadow enqueues a shadow copy once its tuple's dispatch frame is
// queued, without waiting for a send-queue slot. A copy whose tuple goes
// round again (listed in again) or whose worker's queue filled up since
// the claim is dropped. A copy takes no journal record and no ledger
// entry; only the Shadowed annotation counts it.
func (m *Master) sendShadow(c shadowCopy, again []*tuple.Tuple) {
	if slices.Contains(again, c.t) {
		c.fb.Release()
		return
	}
	select {
	case c.wc.slots <- struct{}{}:
	default:
		c.fb.Release()
		return
	}
	c.wc.out <- c.fb
	m.noteDispatchedN(c.wc, 1)
	m.inflight.count(func(l *obs.Counters) { l.Shadowed++ })
}
