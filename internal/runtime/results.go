package runtime

import (
	"time"

	"github.com/swingframework/swing/internal/obs"
	"github.com/swingframework/swing/internal/tuple"
	"github.com/swingframework/swing/internal/wire"
)

// The result path (§IV-C, the ACK and reordering services) handles one
// FrameResultBatch as one operation — the upstream mirror of SubmitBatch.
// Per frame: one clock read; the per-entry bookkeeping in entry order
// (dedup, latency banking, hedge ring, poison, in-flight ack, breaker);
// one group commit of the frame's ack records; one semi-sync wait; one decode of the frame's result tuples
// into a single block; and one pass under sinkMu. WAL-before-sink holds
// per tuple because no result of the frame is played before the frame's
// ack records are in the file (and, with a standby attached, in every
// mirror).

// resultScratch is one connection's reusable result-path state. The
// connection's readLoop owns it, so steady-state frames reuse its slices
// instead of allocating.
type resultScratch struct {
	acks    []uint64        // tuple IDs whose ack records this frame journals
	pending []pendingResult // entries carrying result tuples, in entry order
	results []Result        // the frame's decoded results, in entry order
	plays   []Result        // results the sink released, handed to OnResult
}

// pendingResult is one frame entry that carries a result tuple, held
// until the frame's acks are durable.
type pendingResult struct {
	tb      []byte // tuple bytes, aliasing the frame's owned copy
	latency time.Duration
}

// handleResultBatch processes one FrameResultBatch payload that arrived
// at now from wc. A malformed frame is processed up to the bad entry —
// those acks and results still commit and play — and the decode error
// is returned for logging. The payload is not retained: the frame is
// walked in one owned copy, which the decoded results alias, so the
// caller may recycle the frame buffer.
func (m *Master) handleResultBatch(wc *workerConn, sc *resultScratch, payload []byte, now time.Time) error {
	sc.acks, sc.pending = sc.acks[:0], sc.pending[:0]
	// An append-grown copy skips the zeroing a make would pay for.
	own := append([]byte(nil), payload...)
	err := wire.DecodeResultBatch(own, func(entry []byte) error {
		m.ackResult(wc, sc, entry, now)
		return nil
	})
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
	if len(sc.pending) > 0 {
		sc.results = m.decodeResults(wc, sc.pending, sc.results[:0])
		sc.plays = m.deliverBatch(sc.results, sc.plays)
		clear(sc.results)
		clear(sc.pending)
	}
	return err
}

// ackResult does one entry's bookkeeping: release the in-flight entry,
// bank the latency feedback for the router, and queue the ack record and
// the result tuple for the frame-wide commit and playback. Ack-only
// entries (no tuple bytes) stop at the ledger: the worker consumed the
// tuple without producing a result, and counting the ack keeps the
// ledger balanced and the latency estimate fresh. A malformed entry is
// skipped.
func (m *Master) ackResult(wc *workerConn, sc *resultScratch, entry []byte, now time.Time) {
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
	// Bank the latency sample before the ledger ack: anyone who observes
	// Acked == n through Stats (which flushes banked samples first) is then
	// guaranteed the router estimates already include all n samples.
	wc.ackLat.Add(int64(latency))
	wc.ackProc.Add(meta.ProcNanos)
	wc.ackN.Add(1)
	if m.cfg.HedgeAfter > 0 {
		wc.lat.add(latency)
	}
	if meta.Dropped && m.cfg.PoisonAttempts > 0 {
		// Quarantine mode: a drop notice is a failed attempt, not an ack —
		// the tuple either re-dispatches to a worker it has not burned or
		// is quarantined after PoisonAttempts distinct workers.
		m.handlePoisonDrop(wc, meta)
		return
	}
	if m.inflight.ack(meta.TupleID, meta.Dropped, meta.Reason) && m.journal != nil {
		sc.acks = append(sc.acks, meta.TupleID)
	}
	if meta.Dropped {
		// A processor-error drop is a breaker failure: the worker is
		// reachable but not producing results.
		m.chargeDropBreaker(wc)
	} else {
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
	if len(tb) > 0 {
		sc.pending = append(sc.pending, pendingResult{tb: tb, latency: latency})
	}
}

// decodeResults decodes a frame's result tuples into one []tuple.Tuple
// block, appending a Result per tuple that decodes to dst. The tuples'
// bytes fields alias the frame copy the pending entries point into, so
// a frame costs two allocations (copy and block) however many results it
// carries, and every returned Result.Tuple keeps both alive.
func (m *Master) decodeResults(wc *workerConn, pending []pendingResult, dst []Result) []Result {
	block := make([]tuple.Tuple, len(pending))
	for i, p := range pending {
		if tuple.DecodeSharedInto(&block[i], p.tb) != nil {
			continue
		}
		dst = append(dst, Result{Tuple: &block[i], Latency: p.latency, Worker: wc.id})
	}
	return dst
}

// deliverBatch plays one frame's results in sequence order (§IV-C
// "Reordering Service") in a single sinkMu pass, running the playback
// ring after every arrival exactly as per-result delivery would, then
// hands the released plays to OnResult outside the lock. A result whose
// seq this master never issued is counted as arrived but not buffered:
// one corrupt entry far ahead of playback would otherwise grow the ring
// to cover the gap. plays is caller-owned scratch, returned emptied for
// reuse.
func (m *Master) deliverBatch(rs []Result, plays []Result) []Result {
	plays = plays[:0]
	m.sinkMu.Lock()
	// Every result's seq was issued before it arrived, so one load bounds
	// the whole frame.
	issued := m.nextSeq.Load()
	for _, r := range rs {
		m.arrived++
		if r.Tuple.SeqNo < issued {
			m.sink.Arrive(r.Tuple.SeqNo, r)
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
	if m.cfg.OnResult != nil {
		for _, p := range plays {
			m.cfg.OnResult(p)
		}
	}
	// Drop the references so idle scratch does not pin a frame's block.
	clear(plays)
	return plays[:0]
}
