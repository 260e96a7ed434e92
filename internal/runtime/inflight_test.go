package runtime

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/obs"
	"github.com/swingframework/swing/internal/tuple"
	"github.com/swingframework/swing/internal/wire"
)

// get returns the entry tracked under id, or nil.
func (t *inflightTable) get(id uint64) *inflightEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lookup(id)
}

// ack is ackBatch of one entry, reporting whether its tuple was tracked.
func (t *inflightTable) ack(id uint64, dropped bool, reason wire.DropReason) bool {
	var acked []uint64
	t.ackBatch([]resultEntry{{meta: wire.ResultMeta{TupleID: id, Dropped: dropped, Reason: reason}}}, &acked)
	return len(acked) == 1
}

// inflightModel drives an inflightTable and a map oracle through the same
// operations and checks them against each other after every step.
type inflightModel struct {
	t    *testing.T
	tbl  *inflightTable
	live map[uint64]*inflightEntry
	led  obs.Counters
	// orphaned is the oracle's Retransmitting column.
	orphaned int64
	held     []heldEntry
	dense    uint64 // next dense ID
	spars    uint64 // next sparse ID
	clock    time.Time
	peak     int
}

// heldEntry is an entry the caller has in hand off the table: a reclaimed
// first attempt (uncounted) or an orphan (counted in the orphaned column).
type heldEntry struct {
	e      *inflightEntry
	orphan bool
}

var modelWorkers = []string{"w0", "w1", "w2", "w3"}

func newInflightModel(t *testing.T) *inflightModel {
	return &inflightModel{
		t:     t,
		tbl:   newInflightTable(),
		live:  make(map[uint64]*inflightEntry),
		spars: 1 << 40,
		clock: time.Unix(0, 0),
	}
}

// entry builds an entry for id; sentAt strictly increases, so
// oldest-first order is total.
func (m *inflightModel) entry(id uint64, worker string, attempt uint8) inflightEntry {
	m.clock = m.clock.Add(time.Millisecond)
	return inflightEntry{t: tuple.New(id, id), worker: worker, attempt: attempt, sentAt: m.clock}
}

// inHand reports whether id is live or held, so a fresh dispatch must not
// reuse it.
func (m *inflightModel) inHand(id uint64) bool {
	if _, ok := m.live[id]; ok {
		return true
	}
	return slices.ContainsFunc(m.held, func(h heldEntry) bool { return h.e.t.ID == id })
}

// freshID draws an ID nothing holds: the next dense ID, one colliding
// with a live ID modulo the slot count, or a sparse jump.
func (m *inflightModel) freshID(mode byte) uint64 {
	var id uint64
	switch mode % 4 {
	case 0, 1:
		id = m.dense
		m.dense++
	case 2:
		ids := m.liveIDs()
		base := m.dense
		if len(ids) > 0 {
			base = ids[int(mode/4)%len(ids)]
		}
		id = base + uint64(1+mode%3)*uint64(len(m.tbl.slots))
	case 3:
		id = m.spars
		m.spars += 1 << 40
	}
	for m.inHand(id) {
		id += uint64(len(m.tbl.slots))
	}
	return id
}

func (m *inflightModel) liveIDs() []uint64 {
	ids := make([]uint64, 0, len(m.live))
	for id := range m.live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// pickLive returns a live ID chosen by b: half the time the oldest by ID
// other than the very oldest, which therefore lingers as a straggler
// while dense IDs lap the slot array; otherwise any live ID.
func (m *inflightModel) pickLive(b byte) (uint64, bool) {
	ids := m.liveIDs()
	switch {
	case len(ids) == 0:
		return 0, false
	case b&1 == 0 && len(ids) > 1:
		return ids[1], true
	default:
		return ids[int(b>>1)%len(ids)], true
	}
}

// drawAck draws one result entry: for a live ID, or a straggler for one
// nothing tracks, with a drop or filter verdict.
func (m *inflightModel) drawAck(next func() byte) wire.ResultMeta {
	id, _ := m.pickLive(next())
	if next()%4 == 0 {
		id = m.dense + uint64(len(m.tbl.slots))
	}
	b := next()
	reason := wire.DropReason(b % 5)
	failure := reason >= wire.DropError && reason <= wire.DropDeadline
	return wire.ResultMeta{TupleID: id, Dropped: b&8 != 0 && failure, Reason: reason}
}

// applyAck is the oracle's ack, reporting whether the tuple was live.
func (m *inflightModel) applyAck(a wire.ResultMeta) bool {
	_, ok := m.live[a.TupleID]
	if ok {
		delete(m.live, a.TupleID)
		m.led.Acked++
	}
	if a.Dropped {
		m.countDrop(a.Reason)
	} else if a.Reason == wire.DropFiltered {
		m.led.Filtered++
	}
	return ok
}

// countDrop is the oracle's count of one drop notice by reason.
func (m *inflightModel) countDrop(r wire.DropReason) {
	switch r {
	case wire.DropError:
		m.led.DropErrors++
	case wire.DropPanic:
		m.led.DropPanics++
	case wire.DropDeadline:
		m.led.DropDeadlines++
	}
}

func (m *inflightModel) hold(e *inflightEntry, orphan bool) {
	m.held = append(m.held, heldEntry{e: e, orphan: orphan})
}

func (m *inflightModel) takeHeld(b byte) (heldEntry, bool) {
	if len(m.held) == 0 {
		return heldEntry{}, false
	}
	i := int(b) % len(m.held)
	h := m.held[i]
	m.held = slices.Delete(m.held, i, i+1)
	return h, true
}

// sameEntries compares entry sets by pointer.
func sameEntries(got, want []*inflightEntry) bool {
	key := func(es []*inflightEntry) []string {
		out := make([]string, len(es))
		for i, e := range es {
			out[i] = fmt.Sprintf("%p", e)
		}
		sort.Strings(out)
		return out
	}
	return slices.Equal(key(got), key(want))
}

// step applies one operation decoded from next.
func (m *inflightModel) step(next func() byte) string {
	tbl := m.tbl
	switch op := next() % 14; op {
	case 0, 1, 2: // trackSubmitBatch of fresh tuples
		k := 1 + int(next()%8)
		block := make([]inflightEntry, 0, k)
		for i := 0; i < k; i++ {
			id := m.freshID(next())
			for slices.ContainsFunc(block, func(e inflightEntry) bool { return e.t.ID == id }) {
				id = m.freshID(next())
			}
			block = append(block, m.entry(id, modelWorkers[next()%4], 0))
		}
		tbl.trackSubmitBatch(block)
		for i := range block {
			m.live[block[i].t.ID] = &block[i]
			m.led.Submitted++
		}
		return fmt.Sprintf("trackSubmitBatch(%d)", k)
	case 3: // ack: a live ID, or a straggler ack for one nothing tracks
		a := m.drawAck(next)
		ok := m.applyAck(a)
		if got := tbl.ack(a.TupleID, a.Dropped, a.Reason); got != ok {
			m.t.Fatalf("ack(%d) = %v, want %v", a.TupleID, got, ok)
		}
		return fmt.Sprintf("ack(%d, %v, %v)", a.TupleID, a.Dropped, a.Reason)
	case 12: // ackBatch: one result frame's acks, an ID possibly repeated
		entries := make([]resultEntry, 1+int(next()%8))
		for i := range entries {
			entries[i].meta = m.drawAck(next)
		}
		want := []uint64{1 << 63} // acked IDs append after what is there
		for _, e := range entries {
			if m.applyAck(e.meta) {
				want = append(want, e.meta.TupleID)
			}
		}
		got := []uint64{1 << 63}
		tbl.ackBatch(entries, &got)
		if !slices.Equal(got, want) {
			m.t.Fatalf("ackBatch(%v) acked %v, want %v", entries, got, want)
		}
		return fmt.Sprintf("ackBatch(%d)", len(entries))
	case 4: // reclaim by its worker or by another
		id, ok := m.pickLive(next())
		if !ok {
			return "reclaim(none)"
		}
		w := modelWorkers[next()%4]
		want := m.live[id]
		ours := want.worker == w
		e, got := tbl.reclaim(id, w)
		if got != ours || (ours && e != want) {
			m.t.Fatalf("reclaim(%d, %s) = %p, %v; want %p, %v", id, w, e, got, want, ours)
		}
		if ours {
			delete(m.live, id)
			if e.attempt == 0 {
				m.led.Submitted--
			} else {
				m.led.Retransmitted--
				m.orphaned++
			}
			m.hold(e, e.attempt > 0)
		}
		return fmt.Sprintf("reclaim(%d, %s)", id, w)
	case 5: // resolve something in hand: re-dispatch it, or shed it
		h, ok := m.takeHeld(next())
		if !ok {
			return "resolve(none)"
		}
		e := h.e
		switch b := next() % 4; {
		case b < 2:
			attempt := e.attempt
			if h.orphan && attempt < 255 {
				attempt++
			}
			block := []inflightEntry{m.entry(e.t.ID, modelWorkers[next()%4], attempt)}
			block[0].failedOn = e.failedOn // the burn history travels
			tbl.trackSubmitBatch(block)
			m.live[e.t.ID] = &block[0]
			if attempt == 0 {
				m.led.Submitted++
			} else {
				m.led.Retransmitted++
				m.orphaned--
			}
		case !h.orphan:
			tbl.shedUntracked(e.t.ID, 0)
			m.led.Submitted++
			m.led.Shed++
			m.led.ShedOverload++
		case b == 2 && e.attempt > 0:
			tbl.shedUntracked(e.t.ID, e.attempt)
			m.orphaned--
			m.led.Shed++
			m.led.ShedOverload++
		case b == 2:
			tbl.shedOrphan(e.t.ID)
			m.led.Shed++
			m.orphaned--
		default:
			tbl.shedOrphanPoison(e.t.ID)
			m.led.Shed++
			m.led.ShedPoison++
			m.orphaned--
		}
		return fmt.Sprintf("resolve(%d)", e.t.ID)
	case 6: // failAttempt
		id, ok := m.pickLive(next())
		if next()%4 == 0 {
			id = m.dense + 7
			_, ok = m.live[id]
		}
		w := modelWorkers[next()%4]
		const k = 2
		want := m.live[id]
		reason := wire.DropError + wire.DropReason(next()%3)
		e, v := tbl.failAttempt(id, w, k, reason)
		m.countDrop(reason)
		switch {
		case !ok:
			if v != failUntracked {
				m.t.Fatalf("failAttempt(%d) on untracked = %v", id, v)
			}
		case e != want:
			m.t.Fatalf("failAttempt(%d) = %p, want %p", id, e, want)
		case len(e.failedOn) >= k:
			if v != failQuarantined {
				m.t.Fatalf("failAttempt(%d) = %v after %v, want quarantined", id, v, e.failedOn)
			}
			delete(m.live, id)
			m.led.Shed++
			m.led.ShedPoison++
		default:
			if v != failRetry {
				m.t.Fatalf("failAttempt(%d) = %v, want retry", id, v)
			}
			delete(m.live, id)
			m.orphaned++
			m.hold(e, true)
		}
		return fmt.Sprintf("failAttempt(%d, %s)", id, w)
	case 7: // takeWorker
		w := modelWorkers[next()%4]
		var want []*inflightEntry
		for id, e := range m.live {
			if e.worker == w {
				want = append(want, e)
				delete(m.live, id)
				m.orphaned++
				m.hold(e, true)
			}
		}
		if got := tbl.takeWorker(w); !sameEntries(got, want) {
			m.t.Fatalf("takeWorker(%s) = %d entries, want %d", w, len(got), len(want))
		}
		return fmt.Sprintf("takeWorker(%s)", w)
	case 8: // shedOldest
		n := int(next() % 4)
		all := make([]*inflightEntry, 0, len(m.live))
		for _, e := range m.live {
			all = append(all, e)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].sentAt.Before(all[j].sentAt) })
		want := all[:min(n, len(all))]
		for _, e := range want {
			delete(m.live, e.t.ID)
			m.led.Shed++
			m.led.ShedOverload++
		}
		if got := tbl.shedOldest(n); !slices.Equal(got, want) {
			m.t.Fatalf("shedOldest(%d) = %d entries, want %d in age order", n, len(got), len(want))
		}
		return fmt.Sprintf("shedOldest(%d)", n)
	case 9: // sweepTimeouts
		timeout := time.Duration(next()%32) * time.Millisecond
		want := map[string]int{}
		for _, e := range m.live {
			if !e.timedOut && m.clock.Sub(e.sentAt) >= timeout {
				want[e.worker]++
			}
		}
		got := tbl.sweepTimeouts(m.clock, timeout)
		if len(got) != len(want) {
			m.t.Fatalf("sweepTimeouts = %v, want %v", got, want)
		}
		for w, n := range want {
			if got[w] != n {
				m.t.Fatalf("sweepTimeouts = %v, want %v", got, want)
			}
		}
		return fmt.Sprintf("sweepTimeouts(%v)", timeout)
	case 10: // re-track a live ID without touching the ledger
		id, ok := m.pickLive(next())
		if !ok {
			return "track(none)"
		}
		e := m.entry(id, modelWorkers[next()%4], m.live[id].attempt)
		tbl.track(id, &e)
		m.live[id] = &e
		return fmt.Sprintf("track(%d)", id)
	case 11: // hedge a live entry, or one held off the table
		var e *inflightEntry
		if id, ok := m.pickLive(next()); ok {
			e = m.live[id]
		}
		if h, ok := m.takeHeld(next()); ok {
			m.held = append(m.held, h) // still in hand
			if e == nil || next()%4 == 0 {
				e = h.e
			}
		}
		if e == nil {
			return "markHedged(none)"
		}
		var frame *wire.Buf
		if next()%4 != 0 {
			frame = new(wire.Buf)
		}
		want := frame
		if e.hedged || m.live[e.t.ID] != e {
			want = nil
		}
		if got := tbl.markHedged(e, func(*tuple.Tuple) *wire.Buf { return frame }); got != want {
			m.t.Fatalf("markHedged(%d) = %p, want %p", e.t.ID, got, want)
		}
		if want != nil {
			if !e.hedged {
				m.t.Fatalf("markHedged(%d) left the entry unflagged", e.t.ID)
			}
			m.led.Hedged++
		}
		return fmt.Sprintf("markHedged(%d)", e.t.ID)
	default: // a shadow copy: annotation only
		tbl.count(func(l *obs.Counters) { l.Shadowed++ })
		m.led.Shadowed++
		return "count(Shadowed)"
	}
}

// check compares the table with the oracle.
func (m *inflightModel) check(op string) {
	tbl := m.tbl
	led := tbl.ledgerSnapshot()
	n := led.InFlight
	if !led.Balanced || led.Acked+led.Shed+int64(n)+led.Retransmitting != led.Submitted {
		m.t.Fatalf("after %s: unbalanced %+v", op, led)
	}
	if led.Counters != m.led || led.Retransmitting != m.orphaned {
		m.t.Fatalf("after %s: ledger %+v, oracle %+v with %d orphaned", op, led, m.led, m.orphaned)
	}
	if led.WorkerDropped != m.led.DropErrors+m.led.DropPanics+m.led.DropDeadlines {
		m.t.Fatalf("after %s: WorkerDropped %d, oracle %+v", op, led.WorkerDropped, m.led)
	}
	if n != len(m.live) || tbl.size() != len(m.live) {
		m.t.Fatalf("after %s: %d live (size %d), oracle %d", op, n, tbl.size(), len(m.live))
	}
	for id, want := range m.live {
		if got := tbl.get(id); got != want {
			m.t.Fatalf("after %s: get(%d) = %p, want %p", op, id, got, want)
		}
	}
	for _, h := range m.held {
		if got := tbl.get(h.e.t.ID); got != nil {
			m.t.Fatalf("after %s: get(%d) finds an entry held off the table", op, h.e.t.ID)
		}
	}
	seen := 0
	tbl.each(func(e *inflightEntry) {
		seen++
		if m.live[e.t.ID] != e {
			m.t.Fatalf("after %s: each visits %d, which the oracle does not track", op, e.t.ID)
		}
	})
	if seen != len(m.live) {
		m.t.Fatalf("after %s: each visited %d entries, oracle has %d", op, seen, len(m.live))
	}
	// A checkpoint cut persists every live entry and every orphan, each
	// at its attempt.
	want := make(map[uint64]uint8, len(m.live))
	for id, e := range m.live {
		want[id] = e.attempt
	}
	for _, h := range m.held {
		if h.orphan {
			want[h.e.t.ID] = h.e.attempt
		}
	}
	_, pending := tbl.checkpoint()
	got := make(map[uint64]uint8, len(pending))
	for _, p := range pending {
		pt, err := tuple.Unmarshal(p.Tuple)
		if err != nil {
			m.t.Fatalf("after %s: pending tuple does not decode: %v", op, err)
		}
		got[pt.ID] = p.Attempt
	}
	if len(pending) != len(want) || !maps.Equal(got, want) {
		m.t.Fatalf("after %s: checkpoint pending %v, oracle %v", op, got, want)
	}
	m.peak = max(m.peak, len(m.live))
	if len(tbl.slots) > max(minInflightSlots, 4*m.peak) {
		m.t.Fatalf("after %s: %d slots for a peak of %d live", op, len(tbl.slots), m.peak)
	}
}

// runInflightModel decodes data into a recovered backlog and then a
// sequence of table operations, checking the table against the oracle
// after each.
func runInflightModel(t *testing.T, data []byte) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	m := newInflightModel(t)
	// A recovered backlog: counters restored wholesale, entries tracked
	// without counting, as initRecovery does.
	k := int(next() % 8)
	m.led = obs.Counters{Submitted: int64(k), Hedged: 1}
	m.tbl.seedLedger(m.led)
	for i := 0; i < k; i++ {
		id := m.freshID(next())
		e := m.entry(id, "crashed-epoch-1", 0)
		m.tbl.track(id, &e)
		m.live[id] = &e
	}
	m.check("recovery")
	for pos < len(data) {
		m.check(m.step(next))
	}
}

// TestInflightTableModel runs seeded random operation sequences against
// the map oracle.
func TestInflightTableModel(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewPCG(seed, 0x5eed))
		data := make([]byte, 3000)
		for i := range data {
			data[i] = byte(r.Uint32())
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runInflightModel(t, data) })
	}
}

// FuzzInflightTable is TestInflightTableModel over fuzzer-chosen
// sequences.
func FuzzInflightTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 1, 8, 0, 0, 0, 1, 0, 0, 2, 0, 2, 3, 3, 1, 7, 2})
	f.Add([]byte{0, 2, 7, 3, 0, 1, 7, 3, 1, 3, 8, 3, 0, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		runInflightModel(t, data)
	})
}

// TestInflightTableStragglerLaps keeps one ID tracked while a dense
// window laps the slot array many times: every lap's colliding ID goes to
// the overflow map and leaves it on ack, the straggler stays reachable,
// and the array never grows for a live count of two.
func TestInflightTableStragglerLaps(t *testing.T) {
	tbl := newInflightTable()
	straggler := inflightEntry{t: tuple.New(0, 0), worker: "w0"}
	tbl.trackSubmitBatch([]inflightEntry{straggler})
	for id := uint64(1); id < 10*minInflightSlots; id++ {
		tbl.trackSubmitBatch([]inflightEntry{{t: tuple.New(id, id), worker: "w1"}})
		if !tbl.ack(id, false, wire.DropNone) {
			t.Fatalf("ack(%d) found no entry", id)
		}
	}
	if e := tbl.get(0); e == nil || e.worker != "w0" {
		t.Fatalf("straggler lost: %+v", e)
	}
	if len(tbl.slots) != minInflightSlots || len(tbl.over) != 0 {
		t.Fatalf("%d slots, %d overflow for one live straggler", len(tbl.slots), len(tbl.over))
	}
	if led := tbl.ledgerSnapshot(); led.InFlight != 1 || led.Acked != 10*minInflightSlots-1 {
		t.Fatalf("ledger %+v", led)
	}
}

// TestInflightTableSparseIDs tracks IDs that all share slot 0: every ID
// but one lives in the overflow map, and the array stays within 4× the
// live count.
func TestInflightTableSparseIDs(t *testing.T) {
	tbl := newInflightTable()
	const n = 1000
	block := make([]inflightEntry, n)
	for i := range block {
		id := uint64(i) << 40
		block[i] = inflightEntry{t: tuple.New(id, id), worker: "w0"}
	}
	tbl.trackSubmitBatch(block)
	for i := range block {
		if tbl.get(uint64(i)<<40) != &block[i] {
			t.Fatalf("get(%d<<40) lost its entry", i)
		}
	}
	if len(tbl.slots) > 4*n || len(tbl.over) != n-1 {
		t.Fatalf("%d slots, %d overflow for %d sparse IDs", len(tbl.slots), len(tbl.over), n)
	}
	if got := tbl.takeWorker("w0"); len(got) != n || tbl.size() != 0 {
		t.Fatalf("takeWorker took %d of %d, %d left", len(got), n, tbl.size())
	}
}
