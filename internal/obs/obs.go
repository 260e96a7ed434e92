// Package obs is the master's observability plane: a pure-data status
// snapshot (serialized as JSON by the HTTP server in server.go), and a
// ring-buffered event log recording the discrete things that happen to a
// swarm — workers joining and leaving, evictions, breaker trips, shed
// bursts, epoch changes.
//
// The package deliberately imports nothing from the rest of the repo:
// the runtime builds Snapshot values and appends Events; obs only holds
// and serves them. One snapshot path feeds both the periodic status log
// line and the HTTP endpoint, so the two can never disagree.
package obs

import (
	"sync"
	"time"
)

// Snapshot is one consistent sample of a master's full observable state.
// All counters are cumulative across master incarnations (the ledger is
// recovered from the journal), except InFlight and Retransmitting, which
// are instantaneous.
type Snapshot struct {
	// TakenAt is the wall-clock sample time.
	TakenAt time.Time `json:"taken_at"`
	// UptimeMillis is time since this master incarnation started.
	UptimeMillis int64 `json:"uptime_millis"`
	// Epoch is the master incarnation number (crash recovery).
	Epoch uint64 `json:"epoch"`

	Ledger  Ledger   `json:"ledger"`
	Sink    Sink     `json:"sink"`
	Routing Routing  `json:"routing"`
	Workers []Worker `json:"workers"`
	// Batch is the submit dataplane's counters: present once the master
	// has taken a Submit or SubmitBatch call.
	Batch   *Batch   `json:"batch,omitempty"`
	Journal *Journal `json:"journal,omitempty"`
	// Replication is the hot-standby view: present only on a journaling
	// master with a replication listener.
	Replication *Replication `json:"replication,omitempty"`

	// EventsTotal counts every event ever appended to the log, including
	// those the ring has since overwritten.
	EventsTotal uint64 `json:"events_total"`
}

// Counters is the master's cumulative ledger record: every counter that
// only ever grows, declared once. The in-flight table counts into one
// under its lock, the checkpoint persists it whole, and Ledger, the
// runtime's MasterStats and /status.json carry it embedded, so a new
// counter is one field here plus its increment.
type Counters struct {
	// Submitted counts distinct tuples dispatched toward a worker;
	// re-dispatches of the same tuple count in Retransmitted instead.
	Submitted int64 `json:"submitted"`
	// Acked counts in-flight entries released by a worker ack (results
	// and drop notices both ack).
	Acked         int64 `json:"acked"`
	Retransmitted int64 `json:"retransmitted"`
	// Shed counts tuples abandoned at their retry deadline or attempt
	// budget, by admission control (the ShedOverload subset), or as
	// poison (the ShedPoison subset: failed on PoisonAttempts distinct
	// workers).
	Shed         int64 `json:"shed"`
	ShedOverload int64 `json:"shed_overload"`
	ShedPoison   int64 `json:"shed_poison,omitempty"`
	// Hedged counts speculative duplicate transmissions of stragglers; a
	// hedge does not create a ledger entry, so it sits outside the balance.
	Hedged int64 `json:"hedged,omitempty"`
	// Shadowed counts shadow copies sent to unselected workers in probe
	// windows; like a hedge it sits outside the balance, and the copy's
	// or the dispatch's later result counts in the sink's Arrived only.
	Shadowed int64 `json:"shadowed,omitempty"`
	// DropErrors, DropPanics and DropDeadlines count worker drop notices
	// by their typed reason; a notice that names no reason counts as an
	// error, the meaning a drop had before reasons were typed.
	DropErrors    int64 `json:"drop_errors,omitempty"`
	DropPanics    int64 `json:"drop_panics,omitempty"`
	DropDeadlines int64 `json:"drop_deadlines,omitempty"`
	// Filtered counts tuples a stage legitimately discarded (acked).
	Filtered int64 `json:"filtered,omitempty"`
	// Evicted counts hung workers the failure detector removed: their
	// connection was alive but silent past DeadAfter.
	Evicted int64 `json:"evicted"`
	// Readopted counts workers of an earlier incarnation re-admitted.
	Readopted int64 `json:"readopted"`
}

// Ledger is the fault-tolerance ledger: the cumulative Counters plus the
// columns derived when it is sampled. The invariant
//
//	Submitted == Acked + Shed + InFlight + Retransmitting
//
// holds on every sample: Retransmitting counts tuples taken off a dead
// worker's in-flight table and not yet re-dispatched or shed, which is
// exactly the window where the classic three-term balance transiently
// under-counts.
type Ledger struct {
	Counters
	InFlight       int   `json:"in_flight"`
	Retransmitting int64 `json:"retransmitting"`
	// WorkerDropped is DropErrors + DropPanics + DropDeadlines.
	WorkerDropped int64 `json:"worker_dropped"`
	// Recovered counts backlog tuples this incarnation rebuilt at start.
	Recovered int64 `json:"recovered"`
	// Balanced reports whether the invariant held when the sample was
	// taken; it is computed by the producer under the ledger locks.
	Balanced bool `json:"balanced"`
}

// CheckBalance recomputes the ledger invariant from the serialized
// counters (what Balanced asserted at sample time).
func (l Ledger) CheckBalance() bool {
	return l.Acked+l.Shed+int64(l.InFlight)+l.Retransmitting == l.Submitted
}

// Batch summarizes the submit dataplane: SubmitBatch calls (a Submit
// counts as a batch of one), tuple dispatches including re-dispatches,
// and the FrameTupleBatch frames that carried them. Tuples ÷ Frames is
// the realized coalescing factor; hedged and shadow copies do not count
// here.
type Batch struct {
	Submits int64 `json:"submits"`
	Tuples  int64 `json:"tuples"`
	Frames  int64 `json:"frames"`
}

// Sink is the play-out side: results arriving from workers, frames played
// in order, and gaps skipped.
type Sink struct {
	Arrived int64 `json:"arrived"`
	Played  int64 `json:"played"`
	Skipped int64 `json:"skipped"`
}

// Routing is the published routing snapshot's aggregate state; the
// per-worker selection and weights live in each Worker entry.
type Routing struct {
	Policy     string `json:"policy"`
	Overloaded bool   `json:"overloaded"`
	// ProbeBudget is the un-consumed budget of the current probe window
	// (zero when not probing).
	ProbeBudget int64 `json:"probe_budget"`
	Probing     bool  `json:"probing"`
}

// Worker is one worker's health, breaker, queue, and routing view. The
// routing columns (Selected through Samples) are filled on /status.json
// only.
type Worker struct {
	ID string `json:"id"`
	// Health is the failure detector state: healthy, suspect or dead
	// ("gone" for a router entry whose connection already closed).
	Health string `json:"health"`
	// SilenceMillis is how long the worker has been quiet (any frame).
	SilenceMillis int64 `json:"silence_millis"`
	// Breaker is the circuit state: closed, open, half-open, or "off"
	// when breakers are disabled.
	Breaker      string `json:"breaker"`
	BreakerOpens int64  `json:"breaker_opens"`
	// QueueLen, Processed, Dropped and Reconnects mirror the worker's
	// latest Stats self-report (Processed and Dropped are cumulative
	// across the device's reconnects).
	QueueLen  int   `json:"queue_len"`
	Processed int64 `json:"processed"`
	Dropped   int64 `json:"dropped"`
	// Panics / Deadlined are the worker's own sandbox counters: operator
	// panics recovered per-tuple and tuples cut off by the op deadline.
	Panics     int64   `json:"panics,omitempty"`
	Deadlined  int64   `json:"deadlined,omitempty"`
	Reconnects int64   `json:"reconnects"`
	Selected   bool    `json:"selected"`
	Weight     float64 `json:"weight"`
	// LatencyMillis / ProcessingMillis are the router's EWMA estimates.
	LatencyMillis    float64 `json:"latency_millis"`
	ProcessingMillis float64 `json:"processing_millis"`
	Samples          int64   `json:"samples"`
}

// Journal is the write-ahead journal's depth.
type Journal struct {
	Generation uint64 `json:"generation"`
	// Records counts records appended this incarnation.
	Records int64 `json:"records"`
	// PendingBytes is group-commit buffered data not yet flushed.
	PendingBytes int64 `json:"pending_bytes"`
	// Bytes is the total appended payload.
	Bytes int64 `json:"bytes"`
	// CheckpointHoldMicros is how long the last checkpoint cycle held the
	// journal lock — the stall it imposed on appends — and
	// CheckpointMicros its total time, including the encode, save and
	// retire that run after the lock is released. Both are zero until
	// the first cycle.
	CheckpointHoldMicros int64 `json:"checkpoint_hold_us"`
	CheckpointMicros     int64 `json:"checkpoint_us"`
	// LastSyncMicros is how long the last interval sync took (-fsync
	// interval syncs off the commit path, every FsyncEvery) and
	// LastSyncAgeMillis how long ago it finished. Both are zero until the
	// first interval sync, and under the other fsync modes.
	LastSyncMicros    int64 `json:"last_sync_us"`
	LastSyncAgeMillis int64 `json:"last_sync_age_ms"`
}

// Replication is the primary side of hot-standby journal streaming: its
// role, flush watermark, and each attached standby's acknowledged
// watermark. Watermarks count flushed journal batches (the replication
// tap index), not individual records: lag 0 means every batch the
// primary has flushed is confirmed applied in the standby's mirror.
type Replication struct {
	// Role is "primary" when at least one standby is attached, "solo"
	// when the replication listener is up but nothing is tailing.
	Role string `json:"role"`
	// Seq is the primary's current flush-batch watermark.
	Seq uint64 `json:"seq"`
	// Standbys lists attached replication subscribers.
	Standbys []Standby `json:"standbys,omitempty"`
}

// Standby is one attached replication subscriber as the primary sees it.
type Standby struct {
	ID string `json:"id"`
	// AckedSeq is the standby's last acknowledged applied watermark.
	AckedSeq uint64 `json:"acked_seq"`
	// Lag is Seq − AckedSeq at sample time: how many flushed batches the
	// standby has not yet confirmed applying.
	Lag uint64 `json:"lag"`
	// SilenceMillis is how long since the standby's last ack frame.
	SilenceMillis int64 `json:"silence_millis"`
}

// Event kinds appended by the runtime.
const (
	EventWorkerJoin   = "worker-join"
	EventWorkerLeft   = "worker-left"
	EventReadopted    = "worker-readopted"
	EventSuspect      = "worker-suspect"
	EventRecovered    = "worker-recovered"
	EventEvicted      = "worker-evicted"
	EventBreakerOpen  = "breaker-open"
	EventBreakerProbe = "breaker-half-open"
	EventBreakerClose = "breaker-close"
	EventShed         = "shed"
	EventRetransmit   = "retransmit"
	EventEpoch        = "epoch"
	// Failover events: a standby attaching to / detaching from the
	// primary's replication stream, and a standby promoting itself to
	// primary after the takeover timer fired.
	EventStandbyAttach = "standby-attach"
	EventStandbyDetach = "standby-detach"
	EventPromoted      = "promoted"
	// Failure-containment events: a poison tuple quarantined after burning
	// its attempt budget across distinct workers, and a straggler hedged
	// to a second worker.
	EventQuarantine = "quarantine"
	EventHedge      = "hedge"
)

// Event is one entry of the ring-buffered event log.
type Event struct {
	// Seq numbers events monotonically from 1; gaps at the front of a
	// /events response mean the ring overwrote older entries.
	Seq    uint64    `json:"seq"`
	At     time.Time `json:"at"`
	Kind   string    `json:"kind"`
	Worker string    `json:"worker,omitempty"`
	Detail string    `json:"detail,omitempty"`
	// Count sizes burst events (tuples shed, tuples re-routed).
	Count int64 `json:"count,omitempty"`
}

// EventLog is a fixed-capacity ring of the most recent events. Appends
// never block or grow; older entries are overwritten. Safe for
// concurrent use.
type EventLog struct {
	mu    sync.Mutex
	buf   []Event
	total uint64 // events ever appended; buf[(total-1) % cap] is newest
}

// NewEventLog returns a log retaining the last capacity events
// (minimum 16).
func NewEventLog(capacity int) *EventLog {
	if capacity < 16 {
		capacity = 16
	}
	return &EventLog{buf: make([]Event, capacity)}
}

// Append records an event, stamping Seq and, when unset, At.
func (l *EventLog) Append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	e.Seq = l.total
	if e.At.IsZero() {
		e.At = time.Now()
	}
	l.buf[int((l.total-1)%uint64(len(l.buf)))] = e
}

// Record is Append sugar for the runtime's call sites.
func (l *EventLog) Record(kind, worker, detail string, count int64) {
	l.Append(Event{Kind: kind, Worker: worker, Detail: detail, Count: count})
}

// Snapshot returns the retained events, oldest first.
func (l *EventLog) Snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.total
	capN := uint64(len(l.buf))
	if n > capN {
		n = capN
	}
	out := make([]Event, 0, n)
	for i := l.total - n; i < l.total; i++ {
		out = append(out, l.buf[int(i%capN)])
	}
	return out
}

// Total reports how many events were ever appended.
func (l *EventLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
