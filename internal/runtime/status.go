package runtime

import (
	"sort"
	"time"

	"github.com/swingframework/swing/internal/obs"
)

// MasterStats summarizes the master's side of a run: the ledger and
// sink records /status.json carries, embedded so their fields read as
// MasterStats fields, plus the epoch, the submit dataplane's counters
// and the connected workers. The ledger balances exactly (obs.Ledger):
// no submitted tuple is silently lost.
type MasterStats struct {
	obs.Ledger
	obs.Sink
	// Epoch is the master incarnation number: 1 for a fresh start, one
	// more than the recovered epoch after each crash-recovery restart.
	Epoch uint64
	// SubmitBatches counts SubmitBatch calls, each Submit counting as a
	// batch of one. BatchedTuples counts tuple dispatches — first
	// attempts and re-dispatches, not hedged or shadow copies — and
	// BatchFrames the FrameTupleBatch frames that carried them, so
	// BatchedTuples / BatchFrames is the realized coalescing factor.
	SubmitBatches int64
	BatchedTuples int64
	BatchFrames   int64
	// Workers is the connected workers' liveness view, sorted by ID.
	Workers []WorkerStatus
}

// WorkerStatus is one worker's health as the master sees it; Stats
// leaves its routing columns zero.
type WorkerStatus = obs.Worker

// Stats returns the ledger, sink counters and the connected workers'
// liveness view. The ledger comes from one sample under the in-flight
// table's lock, so Acked + Shed + InFlight + Retransmitting == Submitted
// holds in every returned value even while Submit and ACK traffic races
// on other cores. Banked ACK samples are flushed first, so a caller that
// observes Acked == n also observes all n samples in the router's
// estimates.
func (m *Master) Stats() MasterStats {
	m.flushEstimates(time.Now())
	st := MasterStats{
		Ledger:        m.inflight.ledgerSnapshot(),
		Sink:          m.sinkCounters(),
		Epoch:         m.epoch,
		SubmitBatches: m.batchSubmits.Load(),
		BatchedTuples: m.batchTuples.Load(),
		BatchFrames:   m.batchFrames.Load(),
	}
	st.Recovered = m.recovered
	now := time.Now()
	for _, wc := range m.workerMap() {
		st.Workers = append(st.Workers, wc.status(now))
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	return st
}

// sinkCounters samples the playback side under sinkMu.
func (m *Master) sinkCounters() obs.Sink {
	m.sinkMu.Lock()
	defer m.sinkMu.Unlock()
	return obs.Sink{Arrived: m.arrived, Played: m.played, Skipped: m.sink.Skipped()}
}

// status is the connection's row of the worker view: health, breaker
// and the worker's last self-report, sampled under wc.mu.
func (wc *workerConn) status(now time.Time) obs.Worker {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	w := obs.Worker{
		ID:            wc.id,
		Health:        wc.health.String(),
		SilenceMillis: now.Sub(wc.lastHeard).Milliseconds(),
		Breaker:       "off",
		BreakerOpens:  wc.br.opens,
		QueueLen:      wc.report.QueueLen,
		Processed:     wc.report.Processed,
		Dropped:       wc.report.Dropped,
		Panics:        wc.report.Panics,
		Deadlined:     wc.report.Deadlined,
		Reconnects:    wc.report.Reconnects,
	}
	if wc.br.enabled() {
		w.Breaker = wc.br.state.String()
	}
	return w
}

// StatusSnapshot assembles one obs.Snapshot from the master's live state.
// It is the single observability path: the HTTP endpoint (/statusz,
// /status.json) serves exactly this value, and the swingd status log line
// renders it, so the two can never disagree.
//
// The ledger comes from the same locked sample as Stats, so the exact
// invariant Acked + Shed + InFlight + Retransmitting == Submitted holds
// in every snapshot even under concurrent Submit/ACK traffic and
// mid-retransmit worker failures. Each subsystem (ledger, sink, router,
// journal) is sampled under its own lock in sequence — never two at once,
// which keeps this path deadlock-free against checkpointNow's
// journal-then-router lock order.
func (m *Master) StatusSnapshot() obs.Snapshot {
	now := time.Now()
	m.flushEstimates(now)
	snap := obs.Snapshot{
		TakenAt:      now,
		UptimeMillis: now.Sub(m.start).Milliseconds(),
		Epoch:        m.epoch,
		Ledger:       m.inflight.ledgerSnapshot(),
		Sink:         m.sinkCounters(),
		EventsTotal:  m.events.Total(),
	}
	snap.Ledger.Recovered = m.recovered
	if bs := m.batchSubmits.Load(); bs > 0 {
		snap.Batch = &obs.Batch{
			Submits: bs,
			Tuples:  m.batchTuples.Load(),
			Frames:  m.batchFrames.Load(),
		}
	}

	m.routerMu.Lock()
	infos := m.router.Snapshot()
	m.routerMu.Unlock()
	t := m.table.Load()
	snap.Routing = obs.Routing{
		Policy:      m.cfg.Policy.String(),
		Overloaded:  t.Overloaded(),
		ProbeBudget: t.ProbeLeft(),
	}
	snap.Routing.Probing = snap.Routing.ProbeBudget > 0

	// Merge the router's per-worker view (weights, estimates) with each
	// connection's row. A router entry whose connection is already gone
	// (drop in progress) still reports its routing side with health
	// "gone".
	conns := m.workerMap()
	for _, info := range infos {
		w := obs.Worker{ID: info.ID, Health: "gone", Breaker: "off"}
		if wc, ok := conns[info.ID]; ok {
			w = wc.status(now)
		}
		w.Selected = info.Selected
		w.Weight = info.Weight
		w.LatencyMillis = float64(info.Estimate.Latency) / float64(time.Millisecond)
		w.ProcessingMillis = float64(info.Estimate.Processing) / float64(time.Millisecond)
		w.Samples = info.Estimate.Samples
		snap.Workers = append(snap.Workers, w)
	}
	sort.Slice(snap.Workers, func(i, j int) bool {
		return snap.Workers[i].ID < snap.Workers[j].ID
	})

	if m.journal != nil {
		records, bytes, pending := m.journal.depth()
		snap.Journal = &obs.Journal{
			Generation:           m.generation.Load(),
			Records:              records,
			Bytes:                bytes,
			PendingBytes:         pending,
			CheckpointHoldMicros: m.ckptHold.Load() / int64(time.Microsecond),
			CheckpointMicros:     m.ckptTook.Load() / int64(time.Microsecond),
		}
		if took, at := m.journal.lastIntervalSync(); !at.IsZero() {
			snap.Journal.LastSyncMicros = took.Microseconds()
			snap.Journal.LastSyncAgeMillis = now.Sub(at).Milliseconds()
		}
	}
	if m.rep != nil {
		snap.Replication = m.rep.status(now)
	}
	return snap
}

// StatusAddr returns the observability endpoint's listen address
// ("" when StatusAddr was not configured). With ":0" configured, this is
// where the kernel-assigned port is learned.
func (m *Master) StatusAddr() string {
	if m.statusSrv == nil {
		return ""
	}
	return m.statusSrv.Addr()
}

// Events returns the retained observability events, oldest first — the
// same data the /events endpoint serves.
func (m *Master) Events() []obs.Event {
	return m.events.Snapshot()
}
