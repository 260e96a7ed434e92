package runtime

import (
	"sort"
	"time"

	"github.com/swingframework/swing/internal/obs"
)

// StatusSnapshot assembles one obs.Snapshot from the master's live state.
// It is the single observability path: the HTTP endpoint (/statusz,
// /status.json) serves exactly this value, and the swingd status log line
// renders it, so the two can never disagree.
//
// The ledger fields come from one consistent locked sample, so the
// exact invariant Acked + Shed + InFlight + Retransmitting == Submitted
// holds in every snapshot even under concurrent Submit/ACK traffic and
// mid-retransmit worker failures. Each subsystem (ledger, sink, router,
// journal) is sampled under its own lock in sequence — never two at once,
// which keeps this path deadlock-free against checkpointNow's
// journal-then-router lock order.
func (m *Master) StatusSnapshot() obs.Snapshot {
	now := time.Now()
	m.flushEstimates(now)
	led, inflight := m.inflight.ledgerSnapshot()
	snap := obs.Snapshot{
		TakenAt:      now,
		UptimeMillis: now.Sub(m.start).Milliseconds(),
		Epoch:        m.epoch,
		Ledger: obs.Ledger{
			Submitted:      led.submitted,
			Acked:          led.acked,
			Retransmitted:  led.retransmitted,
			Shed:           led.shed,
			ShedOverload:   led.shedOverload,
			ShedPoison:     led.shedPoison,
			InFlight:       inflight,
			Retransmitting: led.orphaned,
			WorkerDropped:  m.workerDropped.Load(),
			Hedged:         led.hedged,
			Shadowed:       led.shadowed,
			DropErrors:     m.dropErrors.Load(),
			DropPanics:     m.dropPanics.Load(),
			DropDeadlines:  m.dropDeadlines.Load(),
			Filtered:       m.filtered.Load(),
			Evicted:        m.evicted.Load(),
			Readopted:      m.readopted.Load(),
			Recovered:      m.recovered,
		},
		EventsTotal: m.events.Total(),
	}
	snap.Ledger.Balanced = snap.Ledger.CheckBalance()
	if bs := m.batchSubmits.Load(); bs > 0 {
		snap.Batch = &obs.Batch{
			Submits: bs,
			Tuples:  m.batchTuples.Load(),
			Frames:  m.batchFrames.Load(),
		}
	}

	m.sinkMu.Lock()
	snap.Sink = obs.Sink{Arrived: m.arrived, Played: m.played, Skipped: m.sink.Skipped()}
	m.sinkMu.Unlock()

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
	// connection's health and breaker state. A router entry whose
	// connection is already gone (drop in progress) still reports its
	// routing side with health "gone".
	conns := m.workerMap()
	for _, info := range infos {
		w := obs.Worker{
			ID:               info.ID,
			Health:           "gone",
			Breaker:          "off",
			Selected:         info.Selected,
			Weight:           info.Weight,
			LatencyMillis:    float64(info.Estimate.Latency) / float64(time.Millisecond),
			ProcessingMillis: float64(info.Estimate.Processing) / float64(time.Millisecond),
			Samples:          info.Estimate.Samples,
		}
		if wc, ok := conns[info.ID]; ok {
			wc.mu.Lock()
			w.Health = wc.health.String()
			w.SilenceMillis = now.Sub(wc.lastHeard).Milliseconds()
			if wc.br.enabled() {
				w.Breaker = wc.br.state.String()
			}
			w.BreakerOpens = wc.br.opens
			w.QueueLen = wc.queueLen
			w.Processed = wc.processed
			w.Dropped = wc.dropped
			w.Panics = wc.panics
			w.Deadlined = wc.deadlined
			w.Reconnects = wc.reconnects
			wc.mu.Unlock()
		}
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
