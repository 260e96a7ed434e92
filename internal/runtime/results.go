package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/swingframework/swing/internal/obs"
	"github.com/swingframework/swing/internal/tuple"
	"github.com/swingframework/swing/internal/wire"
)

// The result path (§IV-C, the ACK and reordering services) handles one
// FrameResultBatch as one operation — the upstream mirror of SubmitBatch.
// Per frame: one clock read; the per-entry dedup and hedge ring in entry
// order; one bank of the frame's latency sums; the ledger acks under one
// in-flight table lock (split only around quarantine-mode drop notices,
// so the table sees every change in entry order); the breaker, one
// success per run of successes; one group commit of the frame's ack
// records; one semi-sync wait; one decode of the frame's result tuples
// into a single block; and one pass under sinkMu. WAL-before-sink holds
// per tuple because no result of the frame is played before the frame's
// ack records are in the file (and, with a standby attached, in every
// mirror).
//
// A frame's memory is pooled end to end: readLoop reads it into a pooled
// wire.Buf, its result tuples decode into the pooled block of a pooled
// resultFrame, and the frame's last result to play or be dropped returns
// all three, so at steady state a result frame costs no allocation.

// resultScratch is one connection's reusable result-path state. The
// connection's readLoop owns it, so steady-state frames reuse its slices
// instead of allocating.
type resultScratch struct {
	entries []resultEntry // the frame's fresh entries, in entry order
	acks    []uint64      // tuple IDs whose ack records this frame journals
	results []sinkResult  // the frame's decoded results, in entry order
	plays   []sinkResult  // results the sink released, handed to OnResult
	// The frame's latency feedback, summed for one bank per frame, and
	// the number of its entries that carry a result tuple.
	lat, proc time.Duration
	carried   int
}

// resultEntry is one frame entry, held until the frame's ledger step
// and, if it carries a result tuple, until the frame's acks are durable.
type resultEntry struct {
	meta    wire.ResultMeta
	tb      []byte // result tuple bytes aliasing the frame payload; empty if ack-only
	latency time.Duration
}

// resultFrame owns one FrameResultBatch from its read until the last of
// its results is done with: the pooled buffer the frame was read into,
// the block its result tuples decode into, and the count of its results
// not yet done. A result is done once OnResult returns for it, or when
// the sink drops it: late or a repeat in the playback ring, a seq this
// master never issued, or a sink Reset. (A result that does not decode
// is never counted.) The last one returns buffer, block and record to
// their pools. Missing a drop only leaves the frame to the collector,
// but counting one result twice frees memory a sibling still reads, so
// each result is done exactly once.
type resultFrame struct {
	buf    *wire.Buf
	block  []tuple.Tuple // kept across uses
	tuples []tuple.Tuple // the frame's prefix of block, cleared when freed
	left   atomic.Int32
}

var resultFramePool = sync.Pool{New: func() any { return new(resultFrame) }}

// resultFrameFreed, when a test sets it, sees each result frame's buffer
// as the frame is freed.
var resultFrameFreed func(*wire.Buf)

// done marks one of f's results done; the last frees the frame. Safe on
// nil, a result no frame owns.
func (f *resultFrame) done() {
	if f != nil && f.left.Add(-1) == 0 {
		f.free()
	}
}

// free returns the frame's buffer, its cleared block and the record to
// their pools. A block grown past maxPooledTupleBlock is left to the
// collector instead.
func (f *resultFrame) free() {
	if resultFrameFreed != nil {
		resultFrameFreed(f.buf)
	}
	f.buf.Release()
	clear(f.tuples)
	if cap(f.block) > maxPooledTupleBlock {
		f.block = nil
	}
	f.buf, f.tuples = nil, nil
	resultFramePool.Put(f)
}

// sinkResult is a result on its way through the sink, with the frame
// that owns its memory.
type sinkResult struct {
	Result
	frame *resultFrame
}

// handleResultBatch processes one FrameResultBatch that arrived at now
// from wc, read into buf. A malformed frame is processed up to the bad
// entry — those acks and results still commit and play — and the decode
// error is returned for logging. buf passes to the call: the decoded
// results alias it, so it is released only once the frame's last result
// is done with (resultFrame).
func (m *Master) handleResultBatch(wc *workerConn, sc *resultScratch, buf *wire.Buf, now time.Time) error {
	sc.entries, sc.acks = sc.entries[:0], sc.acks[:0]
	sc.lat, sc.proc, sc.carried = 0, 0, 0
	err := wire.DecodeResultBatch(buf.Bytes(), func(entry []byte) error {
		m.readResult(wc, sc, entry, now)
		return nil
	})
	if len(sc.entries) > 0 {
		// Bank the frame's latency samples before the ledger acks: anyone
		// who observes Acked == n through Stats (which flushes banked
		// samples first) is then guaranteed the router estimates already
		// include all n samples.
		wc.ackLat.Add(int64(sc.lat))
		wc.ackProc.Add(int64(sc.proc))
		wc.ackN.Add(int64(len(sc.entries)))
		m.ackResults(wc, sc)
	}
	if len(sc.acks) > 0 {
		// Journal the frame's acks before any of its results can reach the
		// sink: a crash between the two drops frames (at-most-once) rather
		// than replaying already-played ones after restart. With a standby
		// attached, also hold the results until the ack records are in
		// every mirror — otherwise a failover could lose an ack and the
		// promoted master would redeliver a frame this incarnation played.
		if jerr := m.journal.appendAckBatch(sc.acks); jerr != nil {
			m.cfg.Logger.Warn("swing master: journal append", "err", jerr)
		}
		if m.rep != nil {
			m.rep.waitFlushed()
		}
	}
	if sc.carried > 0 {
		sc.results = m.decodeResults(wc, buf, sc.entries, sc.carried, sc.results[:0])
		sc.plays = m.deliverBatch(sc.results, sc.plays)
		clear(sc.results)
	} else {
		buf.Release()
	}
	clear(sc.entries)
	return err
}

// readResult takes in one entry: it sums the entry's latency feedback
// into the frame's, and queues the entry for the ledger and its result
// tuple for playback. Ack-only entries (no tuple bytes) stop at the
// ledger: the worker consumed the tuple without producing a result, and
// counting the ack keeps the ledger balanced and the latency estimate
// fresh. A malformed entry is skipped.
func (m *Master) readResult(wc *workerConn, sc *resultScratch, entry []byte, now time.Time) {
	meta, tb, err := wire.DecodeResult(entry)
	if err != nil {
		return
	}
	if _, dup := m.recoveredAcked[meta.TupleID]; dup {
		// Straggler from a previous incarnation: the old master already
		// acked (and possibly played) this tuple before it crashed.
		// Dropping the duplicate keeps the sink at-most-once across epochs.
		return
	}
	latency := now.Sub(time.Unix(0, meta.EmitNanos))
	if latency < 0 {
		latency = 0
	}
	sc.lat += latency
	sc.proc += time.Duration(meta.ProcNanos)
	if m.cfg.HedgeAfter > 0 {
		wc.lat.add(latency)
	}
	if len(tb) > 0 {
		sc.carried++
	}
	sc.entries = append(sc.entries, resultEntry{meta: meta, tb: tb, latency: latency})
}

// ackResults applies the frame's entries to the ledger and the breaker in
// entry order: each run of acks under one table lock, with a
// quarantine-mode drop notice — a failed attempt, not an ack: the tuple
// either re-dispatches to a worker it has not burned or is quarantined
// after PoisonAttempts distinct workers — between runs.
func (m *Master) ackResults(wc *workerConn, sc *resultScratch) {
	run := 0
	for i, e := range sc.entries {
		if e.meta.Dropped && m.cfg.PoisonAttempts > 0 {
			m.ackRun(wc, sc, sc.entries[run:i])
			m.handlePoisonDrop(wc, e.meta)
			run = i + 1
		}
	}
	m.ackRun(wc, sc, sc.entries[run:])
}

// ackRun acks a run of entries under one table lock, queueing the ack
// records of the tuples it released, then charges the breaker in entry
// order: a processor-error drop is a failure (the worker is reachable
// but not producing results), and each run of consecutive successes is
// one onSuccess, which is idempotent.
func (m *Master) ackRun(wc *workerConn, sc *resultScratch, run []resultEntry) {
	if len(run) == 0 {
		return
	}
	var acked *[]uint64 // without a journal, nothing reads the IDs
	if m.journal != nil {
		acked = &sc.acks
	}
	m.inflight.ackBatch(run, acked)
	for i, e := range run {
		switch {
		case e.meta.Dropped:
			m.chargeDropBreaker(wc)
		case i+1 == len(run) || run[i+1].meta.Dropped:
			m.breakerSuccess(wc) // the last of a run of successes
		}
	}
}

// breakerSuccess records a healthy ack on wc's breaker.
func (m *Master) breakerSuccess(wc *workerConn) {
	wc.mu.Lock()
	prev := wc.br.state
	wc.br.onSuccess()
	closed := prev == breakerHalfOpen
	wc.mu.Unlock()
	if closed {
		m.events.Record(obs.EventBreakerClose, wc.id, "probe succeeded", 0)
		m.cfg.Logger.Info("swing master: breaker closed", "worker", wc.id,
			"reason", "probe succeeded")
	}
}

// decodeResults decodes the result tuples of a frame's entries — carried
// of them hold one — into the block of a pooled resultFrame that takes
// over buf, appending a sinkResult per tuple that decodes to dst. The
// tuples' bytes fields alias buf. The frame counts the results it
// appended as not yet done; with none, it is freed at once.
func (m *Master) decodeResults(wc *workerConn, buf *wire.Buf, entries []resultEntry, carried int, dst []sinkResult) []sinkResult {
	f := resultFramePool.Get().(*resultFrame)
	if cap(f.block) < carried {
		f.block = make([]tuple.Tuple, carried)
	}
	f.buf, f.tuples = buf, f.block[:carried]
	from := len(dst)
	i := 0
	for _, e := range entries {
		if len(e.tb) == 0 {
			continue
		}
		t := &f.tuples[i]
		i++
		if tuple.DecodeSharedInto(t, e.tb) != nil {
			continue
		}
		dst = append(dst, sinkResult{Result{Tuple: t, Latency: e.latency, Worker: wc.id}, f})
	}
	if n := len(dst) - from; n > 0 {
		f.left.Store(int32(n))
	} else {
		f.free()
	}
	return dst
}

// deliverBatch plays one frame's results in sequence order (§IV-C
// "Reordering Service") in a single sinkMu pass, running the playback
// ring after every arrival exactly as per-result delivery would, then
// hands the released plays to OnResult outside the lock. A result whose
// seq this master never issued is counted as arrived but not buffered:
// one corrupt entry far ahead of playback would otherwise grow the ring
// to cover the gap. Each result is done with (resultFrame) once: when
// OnResult returns for it, or when it is dropped — un-issued, late, or
// replaced in the ring by a repeat. plays is caller-owned scratch,
// returned emptied for reuse.
func (m *Master) deliverBatch(rs []sinkResult, plays []sinkResult) []sinkResult {
	plays = plays[:0]
	m.sinkMu.Lock()
	// Every result's seq was issued before it arrived, so one load bounds
	// the whole frame.
	issued := m.nextSeq.Load()
	for _, r := range rs {
		m.arrived++
		if r.Tuple.SeqNo >= issued {
			r.frame.done()
		} else if out, dropped := m.sink.Arrive(r.Tuple.SeqNo, r); dropped {
			out.frame.done()
		}
		for {
			_, pr, ok := m.sink.Play()
			if !ok {
				break
			}
			plays = append(plays, pr)
			m.played++
		}
	}
	m.sinkMu.Unlock()
	for _, p := range plays {
		if m.cfg.OnResult != nil {
			m.cfg.OnResult(p.Result)
		}
		p.frame.done()
	}
	// Drop the references so idle scratch does not pin a frame.
	clear(plays)
	return plays[:0]
}
