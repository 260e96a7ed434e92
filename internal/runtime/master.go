// Package runtime implements Swing's live execution mode: a master thread
// that hosts the application's source and sink, and worker threads on
// other devices that each run a vertical slice of the operator pipeline
// (paper §IV-B,C). The same routing logic evaluated in simulation
// (internal/routing) decides, per tuple, which worker receives it; TCP
// flow control supplies the backpressure the algorithm reacts to.
//
// Topology: one duplex connection per worker carries deployment control,
// the downstream tuple stream and the upstream result/ACK stream. Workers
// may join at any time (the master keeps accepting) and leave abruptly
// (a broken connection removes them from the routing table and traffic
// re-routes), matching §IV-C "Handling Joining and Leaving".
package runtime

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/obs"
	"github.com/swingframework/swing/internal/reorder"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
	"github.com/swingframework/swing/internal/wire"
	"math/rand/v2"
)

// Result is one in-order playback delivery from the master's sink.
type Result struct {
	// Tuple is the final result tuple. It is valid only during the
	// OnResult call that delivers it: the results of one upstream frame
	// decode into one pooled block, their bytes fields alias the frame as
	// read into a pooled buffer, and both are reused for a later frame
	// once the frame's last result has played. Clone it to keep it.
	Tuple *tuple.Tuple
	// Latency is end-to-end: submit to sink arrival.
	Latency time.Duration
	// Worker is the device that processed the frame.
	Worker string
}

// MasterConfig configures StartMaster.
type MasterConfig struct {
	// App is the application to coordinate.
	App *apps.App
	// Policy selects the resource-management algorithm (default LRS).
	Policy routing.PolicyKind
	// Routing optionally overrides routing parameters.
	Routing *routing.Config
	// ListenAddr is the control/data listen address (default ":0").
	ListenAddr string
	// Transport defaults to TCP.
	Transport transport.Transport
	// OutboxCap bounds the per-worker send queue in tuples (default 16).
	OutboxCap int
	// Parallelism is the processor-pool width deployed to every worker:
	// how many tuples a worker may process concurrently. Zero deploys the
	// worker-side default (GOMAXPROCS on the worker device). Results are
	// returned in arrival order regardless of pool width.
	Parallelism int
	// AckLinger is the worker-side ack/result batching window deployed to
	// every worker: a completed result may wait up to this long to share
	// one result-batch frame with its successors, trading up to AckLinger
	// of added latency for fewer upstream writes. Zero disables lingering
	// (workers still batch results that are already queued back-to-back).
	AckLinger time.Duration
	// ReorderBuffer is the sink reorder timespan (default 1 s).
	ReorderBuffer time.Duration
	// OnResult, if set, receives in-order playback deliveries. A
	// Result's Tuple is valid only until OnResult returns (see Result).
	OnResult func(Result)
	// RetryDeadline bounds how long after first submission a tuple may
	// still be retransmitted when its worker dies; older tuples are shed,
	// mirroring the reorder buffer's skip semantics for stale frames
	// (default 3 s).
	RetryDeadline time.Duration
	// MaxAttempts bounds total transmission attempts per tuple, the first
	// submission included (default 3).
	MaxAttempts int
	// Heartbeat is the liveness ping period per worker connection. Zero
	// disables the failure detector: a hung worker then lingers until its
	// TCP link actually breaks, the pre-liveness behavior.
	Heartbeat time.Duration
	// SuspectAfter is how long a worker may stay silent (no pong, result
	// or stats frame) before it is marked suspect (default 3×Heartbeat).
	SuspectAfter time.Duration
	// DeadAfter is the silence after which a worker is declared dead and
	// evicted exactly like a broken link: connection closed, in-flight
	// backlog retransmitted to survivors (default 6×Heartbeat).
	DeadAfter time.Duration
	// BreakerThreshold opens a worker's circuit breaker after this many
	// consecutive failures (ack timeouts or processor-error drops); the
	// router stops selecting the worker until a half-open probe succeeds.
	// Zero disables the breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker blocks traffic before
	// admitting the single half-open probe tuple (default 2 s).
	BreakerCooldown time.Duration
	// BreakerAckTimeout ages in-flight tuples: one unacknowledged for
	// longer than this counts as a failure against its worker's breaker.
	// Zero disables the timeout sweep (drops alone then drive breakers).
	BreakerAckTimeout time.Duration
	// InflightHighWater is the admission-control bound on the in-flight
	// table. At or above it, Submit sheds oldest-first (counted in
	// ShedOverload) and never blocks the caller. Zero disables admission
	// control, restoring pure TCP-backpressure blocking.
	InflightHighWater int
	// OpDeadline is the per-tuple processing deadline deployed to every
	// worker: an operator chain that has not returned within it is
	// abandoned by the worker's watchdog and the tuple reported as a
	// deadline drop notice, so one hung operator costs a tuple, not the
	// worker. Zero disables the watchdog (chains run inline).
	OpDeadline time.Duration
	// PoisonAttempts arms poison-tuple quarantine: a tuple whose drop
	// notices burned this many DISTINCT workers is shed as ShedPoison
	// instead of being bounced around the swarm — and only the first
	// burned worker's breaker is charged, so a poison tuple cannot trip
	// the breakers of the healthy workers it visits. Zero disables
	// quarantine: a drop notice then simply acks the tuple (the
	// pre-quarantine behavior).
	PoisonAttempts int
	// HedgeAfter arms hedged retransmits for stragglers: an un-acked tuple
	// older than max(HedgeAfter, 2× its worker's recent p95 ack latency)
	// is speculatively duplicated to a second worker. First result wins
	// (the sink's dedup keeps delivery at-most-once); the duplicate is
	// counted in the ledger's Hedged column. Zero disables hedging.
	HedgeAfter time.Duration
	// JournalPath enables master crash recovery: every tuple lifecycle
	// event (submit, retransmit, ack, shed) is appended to a write-ahead
	// journal at this path, and StartMaster recovers state — ledger
	// counters, warm routing estimates, the un-acked backlog — from the
	// journal plus checkpoint of a previous incarnation before listening.
	// Empty disables journaling (pre-recovery behavior).
	JournalPath string
	// CheckpointPath is the state snapshot beside the journal (default
	// JournalPath + ".ckpt").
	CheckpointPath string
	// CheckpointEvery is the period of checkpoint + journal compaction
	// (default 10 s; < 0 disables periodic checkpoints — one is still
	// written at recovery and on Close).
	CheckpointEvery time.Duration
	// Fsync selects the journal's flush-to-stable-storage policy (default
	// FsyncInterval; see FsyncMode).
	Fsync FsyncMode
	// FsyncEvery is the FsyncInterval sync period (default 100 ms).
	FsyncEvery time.Duration
	// ReplicateAddr enables hot-standby replication: a listener at this
	// address accepts standby masters that tail the write-ahead journal
	// live (checkpoint base image + streamed record batches). Requires
	// JournalPath — replication streams the journal, so there must be
	// one. Empty disables the replication plane.
	ReplicateAddr string
	// ReplicatePingEvery is the primary→standby liveness probe period on
	// the replication link (default 100 ms). The standby arms its
	// takeover timer on ping silence, so this must be well under the
	// standby's TakeoverAfter.
	ReplicatePingEvery time.Duration
	// HelloTimeout bounds the join handshake: a connection that has not
	// completed hello/deploy/start within it is closed, so a half-open
	// TCP connect cannot pin a registration goroutine (default 5 s;
	// < 0 disables the deadline).
	HelloTimeout time.Duration
	// MaxPendingHandshakes caps concurrent connections inside the join
	// handshake; excess connects are refused immediately (default 32;
	// < 0 removes the cap).
	MaxPendingHandshakes int
	// StatusAddr enables the observability plane: an HTTP listener at
	// this address (host:port; ":0" picks a free port, see StatusAddr())
	// serving /statusz (HTML dashboard; ?format=json for the same data as
	// JSON), /status.json, and /events — the ring-buffered event log of
	// evictions, breaker trips, shed bursts and epoch changes. The
	// endpoint and the periodic status log line render the same
	// StatusSnapshot, so they can never disagree. Empty disables the
	// listener (events are still recorded).
	StatusAddr string
	// StatusPprof additionally mounts net/http/pprof's profiling handlers
	// under /debug/pprof/ on the StatusAddr listener, so a live soak can
	// be profiled with go tool pprof without a separate server. No effect
	// without StatusAddr.
	StatusPprof bool
	// Seed drives the router's weighted-random draws (default 1).
	Seed int64
	// Logger defaults to slog.Default.
	Logger *slog.Logger
}

func (c MasterConfig) withDefaults() MasterConfig {
	if c.Policy == 0 {
		c.Policy = routing.LRS
	}
	if c.ListenAddr == "" {
		c.ListenAddr = ":0"
	}
	if c.Transport == nil {
		c.Transport = transport.TCP{}
	}
	if c.OutboxCap == 0 {
		c.OutboxCap = 16
	}
	if c.ReorderBuffer == 0 {
		c.ReorderBuffer = time.Second
	}
	if c.RetryDeadline == 0 {
		c.RetryDeadline = 3 * time.Second
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Heartbeat > 0 {
		if c.SuspectAfter == 0 {
			c.SuspectAfter = 3 * c.Heartbeat
		}
		if c.DeadAfter == 0 {
			c.DeadAfter = 6 * c.Heartbeat
		}
	}
	if c.BreakerThreshold > 0 && c.BreakerCooldown == 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.JournalPath != "" {
		if c.CheckpointPath == "" {
			c.CheckpointPath = c.JournalPath + ".ckpt"
		}
		if c.CheckpointEvery == 0 {
			c.CheckpointEvery = 10 * time.Second
		}
		if c.FsyncEvery == 0 {
			c.FsyncEvery = 100 * time.Millisecond
		}
	}
	if c.ReplicateAddr != "" && c.ReplicatePingEvery == 0 {
		c.ReplicatePingEvery = 100 * time.Millisecond
	}
	if c.HelloTimeout == 0 {
		c.HelloTimeout = 5 * time.Second
	}
	if c.MaxPendingHandshakes == 0 {
		c.MaxPendingHandshakes = 32
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// workerConn is the master's handle on one connected worker.
type workerConn struct {
	id   string
	conn net.Conn
	// out is the send queue: each item is one complete encoded frame in
	// a pooled buffer (tuples from dispatch, hedges, shadow copies,
	// liveness pings), which the writer writes and then releases.
	out chan *wire.Buf
	// slots is the send-queue occupancy semaphore: every enqueue onto out
	// first takes a token, and the writer returns tokens only after the
	// frame's bytes are written. Backpressure checks read len(slots), not
	// len(out) — the coalescing writer drains out into its batch buffer
	// long before the peer consumed anything, so channel length alone
	// would report an idle queue on a stalled link.
	slots chan struct{}
	gone  chan struct{}

	// Estimate batching: the ACK path banks each result's delay samples
	// here instead of taking the router lock per tuple; flushEstimates
	// periodically folds every worker's batch into the router in one EWMA
	// step (routing.Router.ObserveBatch). Sums are banked before ackN so
	// a flush that observes n samples has their sums in full; the
	// remaining skew (a sample split across two flushes) only nudges two
	// consecutive batch means, it never loses a sample.
	ackN    atomic.Int64
	ackLat  atomic.Int64 // summed end-to-end latency, nanos
	ackProc atomic.Int64 // summed worker-reported processing, nanos

	// lat is a fixed ring of recent end-to-end ack latencies feeding the
	// hedging threshold (its own lock; written per ack only when hedging
	// is armed).
	lat latRing

	mu      sync.Mutex
	writeMu sync.Mutex
	// report is the worker's last Stats self-report (guarded by mu).
	report wire.Stats

	// Liveness (guarded by mu): lastHeard is the arrival time of the most
	// recent frame of any kind; health is the failure detector's verdict.
	lastHeard time.Time
	health    healthState
	pingSeq   uint64

	// br is this worker's circuit breaker (guarded by mu).
	br breaker
}

// noteHeard refreshes the liveness timestamp on any inbound frame.
func (wc *workerConn) noteHeard(now time.Time) {
	wc.mu.Lock()
	wc.lastHeard = now
	wc.mu.Unlock()
}

// Master coordinates a swarm run: accepts workers, routes submitted
// tuples, maintains latency estimates from results, and reorders results
// for playback.
type Master struct {
	cfg MasterConfig
	ln  net.Listener

	// router state is RCU-published: routerMu serializes the writers
	// (reconfigure, membership changes, estimate flushes), each of which
	// republishes table — the immutable snapshot the lock-free Submit
	// path routes against.
	routerMu sync.Mutex
	router   *routing.Router
	table    atomic.Pointer[routing.Table]
	// published is closed and replaced each time withRouter publishes a
	// table, waking Submits blocked on a full send queue (awaitSlot).
	published atomic.Pointer[chan struct{}]

	// workers is a copy-on-write map: readers (Submit, the ACK path, the
	// monitor) Load it lock-free; workersMu serializes the writers
	// (admit, drop), which install a fresh copy.
	workersMu sync.Mutex
	workers   atomic.Pointer[map[string]*workerConn]

	// sink is the reordering service's playback ring; sinkMu guards it
	// with the sink counters.
	sinkMu  sync.Mutex
	sink    *reorder.Ring[sinkResult]
	played  int64
	arrived int64

	// inflight carries both the routed-but-unacked entries and the
	// cumulative ledger record under one lock; counters move in the same
	// critical section as the entries they describe.
	inflight *inflightTable

	nextSeq atomic.Uint64

	// pickSeq drives Submit's weighted-random draws: a shared splitmix64
	// counter, so concurrent submitters draw without locks or per-caller
	// rng state.
	pickSeq atomic.Uint64

	// Dataplane counters: SubmitBatch calls (a Submit is a batch of one),
	// tuples dispatched, and the FrameTupleBatch frames that carried them
	// (frames ≤ tuples; the gap measures coalescing).
	batchSubmits atomic.Int64
	batchTuples  atomic.Int64
	batchFrames  atomic.Int64

	// Crash recovery (immutable after StartMaster returns, except
	// generation, which only the checkpointer advances under ckptMu —
	// atomically, so status sampling can read it without the journal
	// lock).
	epoch      uint64
	generation atomic.Uint64
	journal    *journal
	// ckptMu serializes whole checkpoint cycles — the periodic loop,
	// standby attach and Close — so one cycle's save and retire finish
	// before the next cut. The dataplane never takes it.
	ckptMu sync.Mutex
	// ckptHold / ckptTook are the last cycle's journal-lock hold and
	// total duration in nanoseconds, for the status endpoint.
	ckptHold atomic.Int64
	ckptTook atomic.Int64
	// recoveredAcked is the cross-epoch sink dedup set: tuple IDs the
	// previous incarnation acknowledged whose straggler results must be
	// dropped, never replayed to the sink. Written once before the
	// listener opens and only read after, so it takes no lock; nil is
	// the empty set.
	recoveredAcked map[uint64]struct{}
	recovered      int64

	// rep is the hot-standby replication plane, nil unless ReplicateAddr
	// is configured.
	rep *replicator

	// handshakes caps concurrent join handshakes (nil = uncapped).
	handshakes chan struct{}

	// events is the ring-buffered observability log (always allocated);
	// statusSrv is the HTTP endpoint, nil unless StatusAddr is set.
	events    *obs.EventLog
	statusSrv *obs.Server

	start time.Time
	stop  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
}

// minReorderCap floors the reorder buffer so degenerate configurations
// (TargetFPS 0, sub-second buffers) still tolerate mild disorder.
const minReorderCap = 8

// Errors.
var (
	ErrStopped   = errors.New("runtime: master stopped")
	ErrNoWorkers = errors.New("runtime: no workers connected")
	// ErrReconnectExhausted is a worker's terminal failure: its reconnect
	// attempt budget ran out without rejoining the master.
	ErrReconnectExhausted = errors.New("runtime: reconnect attempts exhausted")
	// ErrStaleMaster reports a worker's epoch fence firing: the dialed
	// master is an older incarnation than the one that last deployed the
	// worker — a zombie primary outlived by its promoted standby.
	ErrStaleMaster = errors.New("runtime: master incarnation older than last joined epoch")
)

// StartMaster launches the master: it listens for workers and is
// immediately ready for Submit (which fails until a worker joins).
func StartMaster(cfg MasterConfig) (*Master, error) {
	cfg = cfg.withDefaults()
	if cfg.App == nil {
		return nil, errors.New("runtime: nil app")
	}
	rc := routing.DefaultConfig(cfg.Policy)
	if cfg.Routing != nil {
		rc = *cfg.Routing
		rc.Policy = cfg.Policy
	}
	router, err := routing.NewRouter(rc, rand.New(rand.NewPCG(uint64(cfg.Seed), 99)))
	if err != nil {
		return nil, err
	}
	ln, err := cfg.Transport.Listen(cfg.ListenAddr)
	if err != nil {
		return nil, err
	}
	rcap := int(cfg.ReorderBuffer.Seconds()*cfg.App.TargetFPS) + 1
	if rcap < minReorderCap {
		// A zero/tiny TargetFPS would collapse the buffer to a single
		// slot, turning every out-of-order arrival into a skip.
		rcap = minReorderCap
	}
	m := &Master{
		cfg:      cfg,
		ln:       ln,
		router:   router,
		sink:     reorder.New[sinkResult](rcap),
		inflight: newInflightTable(),
		epoch:    1,
		events:   obs.NewEventLog(256),
		start:    time.Now(),
		stop:     make(chan struct{}),
	}
	empty := make(map[string]*workerConn)
	m.workers.Store(&empty)
	m.table.Store(router.Table())
	published := make(chan struct{})
	m.published.Store(&published)
	m.pickSeq.Store(uint64(cfg.Seed))
	if cfg.MaxPendingHandshakes > 0 {
		m.handshakes = make(chan struct{}, cfg.MaxPendingHandshakes)
	}
	if cfg.JournalPath != "" {
		if err := m.initRecovery(); err != nil {
			_ = ln.Close()
			return nil, err
		}
	}
	if cfg.ReplicateAddr != "" {
		if m.journal == nil {
			_ = ln.Close()
			return nil, errors.New("runtime: ReplicateAddr requires JournalPath (replication streams the journal)")
		}
		rep, err := startReplicator(m)
		if err != nil {
			_ = ln.Close()
			_ = m.journal.close()
			return nil, err
		}
		m.rep = rep
	}
	if cfg.StatusAddr != "" {
		var opts []obs.ServeOption
		if cfg.StatusPprof {
			opts = append(opts, obs.WithPprof())
		}
		srv, err := obs.Serve(cfg.StatusAddr, m.StatusSnapshot, m.events, opts...)
		if err != nil {
			_ = ln.Close()
			if m.rep != nil {
				m.rep.close()
			}
			if m.journal != nil {
				_ = m.journal.close()
			}
			return nil, err
		}
		m.statusSrv = srv
	}
	m.wg.Add(2)
	go m.acceptLoop()
	go m.reconfigureLoop(rc.ReconfigurePeriod)
	if cfg.Heartbeat > 0 || cfg.BreakerAckTimeout > 0 || cfg.HedgeAfter > 0 {
		m.wg.Add(1)
		go m.monitorLoop()
	}
	if m.journal != nil && cfg.CheckpointEvery > 0 {
		m.wg.Add(1)
		go m.checkpointLoop()
	}
	return m, nil
}

// workerMap returns the current copy-on-write worker map for lock-free
// reads. The map itself is immutable; mutations install a fresh copy
// under workersMu.
func (m *Master) workerMap() map[string]*workerConn {
	return *m.workers.Load()
}

// withRouter runs f with the router locked, then publishes the router's
// table for the lock-free Submit path and wakes the Submits waiting on a
// send queue. Every mutation that can change routing (membership,
// reconfigure, seeding) goes through here so the published table never
// lags the router; publishing under the lock keeps two racing callers
// from storing their tables out of order.
func (m *Master) withRouter(f func(r *routing.Router)) {
	m.routerMu.Lock()
	defer m.routerMu.Unlock()
	f(m.router)
	m.table.Store(m.router.Table())
	published := make(chan struct{})
	close(*m.published.Swap(&published))
}

// estimateFlushEvery is the cadence at which banked per-worker ACK
// samples fold into the router (plus on demand from Stats/Snapshot and
// before every reconfigure), bounding estimate staleness to well under
// the 1 s reconfigure period that consumes them.
const estimateFlushEvery = 50 * time.Millisecond

// flushEstimates folds every worker's banked ACK samples into the router
// in one batched EWMA step per worker. The router lock is taken only
// when at least one worker has samples, so an idle master flushes for
// free. No table republish: routing weights change only on recompute
// (reconfigure or membership), which republishes through withRouter.
func (m *Master) flushEstimates(now time.Time) {
	locked := false
	for _, wc := range m.workerMap() {
		n := wc.ackN.Swap(0)
		if n == 0 {
			continue
		}
		lat := time.Duration(wc.ackLat.Swap(0) / n)
		proc := time.Duration(wc.ackProc.Swap(0) / n)
		if !locked {
			m.routerMu.Lock()
			locked = true
		}
		// Unknown downstream: the worker left between banking and flush;
		// its parked warm estimate already covers re-joins.
		_ = m.router.ObserveBatch(wc.id, lat, proc, n, now.Sub(m.start))
	}
	if locked {
		m.routerMu.Unlock()
	}
}

// pickU turns the shared splitmix64 counter into a uniform draw in
// [0, 1) for the snapshot's weighted-random routing — deterministic for
// a given seed and draw index, and lock-free for concurrent submitters.
func (m *Master) pickU() float64 {
	return float64(mix64(m.pickSeq.Add(1))>>11) * (1.0 / (1 << 53))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// initRecovery rebuilds the previous incarnation's state from checkpoint
// plus journal, persists a fresh checkpoint under the new epoch, and
// opens a new journal generation. It runs before the listener admits
// anyone, so re-joining workers always see the final epoch and warm
// estimates.
func (m *Master) initRecovery() error {
	rs, err := recoverState(m.cfg.JournalPath, m.cfg.CheckpointPath)
	if err != nil {
		return err
	}
	m.epoch = rs.prevEpoch + 1
	m.generation.Store(rs.generation + 1)
	m.recoveredAcked = rs.acked
	c := rs.counters
	m.inflight.seedLedger(c.Counters)
	m.arrived, m.played = c.Arrived, c.Played
	m.sink.Reset(c.NextPlay, c.Skipped, func(r sinkResult) { r.frame.done() })
	m.nextSeq.Store(c.NextSeq)
	if len(rs.estimates) > 0 {
		m.withRouter(func(r *routing.Router) { r.SeedEstimates(rs.estimates) })
	}
	if rs.journalTruncated {
		m.cfg.Logger.Warn("swing master: truncated torn journal tail",
			"path", m.cfg.JournalPath)
	}
	// The un-acked backlog re-enters the in-flight table under a pseudo
	// worker named for the dead incarnation; once a worker joins (or the
	// retry deadline passes) it flows through the normal retransmit path,
	// keeping the ledger invariant across the crash.
	if len(rs.pending) > 0 {
		now := time.Now()
		from := fmt.Sprintf("crashed-epoch-%d", rs.prevEpoch)
		for id, e := range rs.pending {
			e.worker = from
			e.deadline = now.Add(m.cfg.RetryDeadline)
			e.sentAt = now
			m.inflight.track(id, e)
		}
		m.recovered = int64(len(rs.pending))
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.resubmitRecovered(from)
		}()
	}
	st := m.snapshotState()
	if err := saveCheckpoint(m.cfg.CheckpointPath, st); err != nil {
		return err
	}
	gen := m.generation.Load()
	j, err := openJournal(m.cfg.JournalPath, m.epoch, gen, m.cfg.Fsync, m.cfg.FsyncEvery)
	if err != nil {
		return err
	}
	// The set-aside files of the previous incarnation are folded into the
	// checkpoint just written; left behind, they would replay twice on
	// the next crash.
	j.retire(gen)
	m.journal = j
	if rs.prevEpoch > 0 {
		m.events.Record(obs.EventEpoch, "",
			fmt.Sprintf("recovered from epoch %d", rs.prevEpoch), m.recovered)
		m.cfg.Logger.Info("swing master: recovered from crash",
			"epoch", m.epoch, "backlog", m.recovered,
			"submitted", c.Submitted, "acked", c.Acked,
			"estimates", len(rs.estimates))
	}
	return nil
}

// resubmitRecovered waits for the first worker of the new incarnation,
// then funnels the recovered backlog through the normal retransmit path.
// If no worker joins before the backlog's fresh retry deadline,
// retransmitAll sheds it there — accounted, never silently lost.
func (m *Master) resubmitRecovered(from string) {
	deadline := time.Now().Add(m.cfg.RetryDeadline)
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		if len(m.workerMap()) > 0 || time.Now().After(deadline) {
			break
		}
		select {
		case <-ticker.C:
		case <-m.stop:
			// Backlog stays in the in-flight table; the final checkpoint
			// persists it as pending for the next incarnation.
			return
		}
	}
	if orphans := m.inflight.takeWorker(from); len(orphans) > 0 {
		m.retransmitAll(from, orphans)
	}
}

// Addr returns the master's listen address for workers to dial.
func (m *Master) Addr() string { return m.ln.Addr().String() }

// Workers returns the connected worker IDs.
func (m *Master) Workers() []string {
	ws := m.workerMap()
	out := make([]string, 0, len(ws))
	for id := range ws {
		out = append(out, id)
	}
	return out
}

// Snapshot returns the router's current per-worker view, with any banked
// ACK samples folded in first so callers observe estimates no staler
// than their own reads.
func (m *Master) Snapshot() []routing.Info {
	m.flushEstimates(time.Now())
	m.routerMu.Lock()
	defer m.routerMu.Unlock()
	return m.router.Snapshot()
}

// acceptLoop admits workers for the life of the master. Transient Accept
// errors (a failed handshake, a momentarily exhausted fd table) are
// retried with backoff rather than abandoning the listener — exiting here
// would permanently lock every future worker out of the swarm. Only a
// closed listener or a stopped master ends the loop.
func (m *Master) acceptLoop() {
	defer m.wg.Done()
	const maxAcceptBackoff = time.Second
	backoff := 5 * time.Millisecond
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			select {
			case <-m.stop:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) || errors.Is(err, transport.ErrClosed) {
				return
			}
			m.cfg.Logger.Warn("swing master: accept (will retry)", "err", err, "backoff", backoff)
			select {
			case <-time.After(backoff):
			case <-m.stop:
				return
			}
			if backoff *= 2; backoff > maxAcceptBackoff {
				backoff = maxAcceptBackoff
			}
			continue
		}
		backoff = 5 * time.Millisecond
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.handleWorker(conn)
		}()
	}
}

// handleWorker admits one connection through the bounded join handshake,
// then serves it until it breaks.
func (m *Master) handleWorker(conn net.Conn) {
	if m.handshakes != nil {
		select {
		case m.handshakes <- struct{}{}:
		default:
			// The pending-handshake cap is full: refuse immediately rather
			// than pin another goroutine on a possibly half-open connection.
			m.cfg.Logger.Warn("swing master: handshake cap reached, refusing connection",
				"cap", cap(m.handshakes))
			_ = conn.Close()
			return
		}
	}
	wc, ok := m.admitWorker(conn)
	if m.handshakes != nil {
		<-m.handshakes
	}
	if !ok {
		return
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.writeLoop(wc)
	}()
	m.readLoop(wc) // returns when the connection breaks
	m.dropWorker(wc)
}

// admitWorker performs the join workflow (paper §IV-B steps 2-3) under
// the hello deadline: receive Hello, deploy the operator units, register
// the worker, and start it. A connection that stalls anywhere in the
// handshake is closed when the deadline fires, so half-open connects
// cannot pin registration goroutines.
func (m *Master) admitWorker(conn net.Conn) (*workerConn, bool) {
	if m.cfg.HelloTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(m.cfg.HelloTimeout))
	}
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil || typ != wire.FrameHello {
		_ = conn.Close()
		return nil, false
	}
	var hello wire.Hello
	if err := wire.DecodeJSON(payload, &hello); err != nil || hello.DeviceID == "" {
		_ = conn.Close()
		return nil, false
	}
	if hello.App != m.cfg.App.Name() {
		m.cfg.Logger.Warn("swing master: app mismatch", "worker", hello.DeviceID, "app", hello.App)
		_ = conn.Close()
		return nil, false
	}
	if m.journal != nil && hello.Epoch > m.epoch {
		// The worker was joined to a later incarnation than this one — we
		// are the stale master (a zombie that survived its replacement).
		// Refusing beats adopting a worker the real master owns.
		m.cfg.Logger.Warn("swing master: refusing worker from a newer incarnation",
			"worker", hello.DeviceID, "workerEpoch", hello.Epoch, "epoch", m.epoch)
		_ = conn.Close()
		return nil, false
	}
	readopted := hello.Epoch != 0 && hello.Epoch < m.epoch
	wc := &workerConn{
		id:        hello.DeviceID,
		conn:      conn,
		out:       make(chan *wire.Buf, m.cfg.OutboxCap),
		slots:     make(chan struct{}, m.cfg.OutboxCap),
		gone:      make(chan struct{}),
		lastHeard: time.Now(),
		br: breaker{
			threshold: m.cfg.BreakerThreshold,
			cooldown:  m.cfg.BreakerCooldown,
		},
	}

	// Deploy: every worker activates the full operator pipeline (the
	// vertical-slice deployment of Figure 3). The epoch tells a
	// re-adopted worker which incarnation owns it now.
	deploy := wire.Deploy{
		Units:             m.cfg.App.Graph.Operators(),
		ReportEveryMillis: 1000,
		Epoch:             m.epoch,
		Parallelism:       m.cfg.Parallelism,
		AckLingerMicros:   m.cfg.AckLinger.Microseconds(),
		OpDeadlineMillis:  m.cfg.OpDeadline.Milliseconds(),
	}
	db, err := wire.EncodeJSON(deploy)
	if err != nil {
		_ = conn.Close()
		return nil, false
	}
	if err := wire.WriteFrame(conn, wire.FrameDeploy, db); err != nil {
		_ = conn.Close()
		return nil, false
	}

	// Register before start: the routing-table entry first, then the
	// connection map entry, and only then FrameStart. A worker whose
	// StartWorker has returned is therefore routable, and one Workers()
	// lists is already in the table. Tuples routed to it before the
	// writer starts wait in its send queue, behind FrameStart.
	m.workersMu.Lock()
	cur := m.workerMap()
	if _, dup := cur[wc.id]; dup {
		m.workersMu.Unlock()
		m.cfg.Logger.Warn("swing master: duplicate worker id", "worker", wc.id)
		_ = conn.Close()
		return nil, false
	}
	// Count the join first, so a caller that sees the worker listed also
	// sees it counted.
	if readopted {
		m.inflight.count(func(l *obs.Counters) { l.Readopted++ })
		m.events.Record(obs.EventReadopted, wc.id,
			fmt.Sprintf("from epoch %d", hello.Epoch), 0)
		m.cfg.Logger.Info("swing master: re-adopted worker from previous incarnation",
			"worker", wc.id, "workerEpoch", hello.Epoch, "epoch", m.epoch)
	} else {
		m.events.Record(obs.EventWorkerJoin, wc.id, "", 0)
		m.cfg.Logger.Info("swing master: worker joined", "worker", wc.id)
	}
	m.withRouter(func(r *routing.Router) { err = r.AddDownstream(wc.id) })
	next := make(map[string]*workerConn, len(cur)+1)
	for id, c := range cur {
		next[id] = c
	}
	next[wc.id] = wc
	m.workers.Store(&next)
	m.workersMu.Unlock()
	if err != nil {
		m.cfg.Logger.Warn("swing master: register worker", "worker", wc.id, "err", err)
	}
	if err := wire.WriteFrame(conn, wire.FrameStart, nil); err != nil {
		m.dropWorker(wc)
		return nil, false
	}
	if m.cfg.HelloTimeout > 0 {
		_ = conn.SetDeadline(time.Time{})
	}
	return wc, true
}

// sendFlushBytes caps how many coalesced frame bytes the per-connection
// writer packs into one Write call; past it the batch flushes even while
// more frames wait, bounding both the scratch buffer and the latency a
// queued liveness ping can sit behind tuple traffic.
const sendFlushBytes = 256 << 10

// slowWriteThreshold decides when a peer is congested: a Write that takes
// longer than this was absorbed by the peer's backpressure, not its
// bandwidth. The writer then stops coalescing — a multi-frame batch
// written to a stalled link would hold every frame's queue slot for the
// whole (long) write, turning the steady one-slot-per-service-time
// trickle the router's backpressure signal relies on into rare bursts
// that can block a Submit for seconds.
const slowWriteThreshold = 2 * time.Millisecond

// writeLoop drains the worker's send queue, flushing every frame
// already waiting with a single write — on TCP, one syscall and one
// segment train instead of one per frame. A slow peer therefore costs
// one blocked writer goroutine, never the submitters or the monitor,
// which enqueue and move on; and a ping enqueued behind a burst of
// tuples rides the same flush rather than waiting out per-frame writes.
func (m *Master) writeLoop(wc *workerConn) {
	_, tcp := wc.conn.(*net.TCPConn)
	fw := &frameWriter{conn: wc.conn, tcp: tcp}
	defer fw.scratch.Release()
	congested := false
	for {
		select {
		case f := <-wc.out:
			frames := append(fw.frames[:0], f)
			size := len(f.B)
			if !congested {
			coalesce:
				for size < sendFlushBytes {
					select {
					case f = <-wc.out:
						frames = append(frames, f)
						size += len(f.B)
					default:
						break coalesce // queue idle: flush what we have
					}
				}
			}
			fw.frames = frames
			var err error
			if send := m.dropUnsendable(wc, frames); len(send) > 0 {
				begin := time.Now()
				wc.writeMu.Lock()
				err = fw.flush(send)
				wc.writeMu.Unlock()
				congested = time.Since(begin) > slowWriteThreshold
			}
			clear(frames)
			if err != nil {
				return // tokens stay taken: the connection is dead
			}
			// Only now that the bytes are written do the flush's queue
			// slots free up — a stalled peer keeps reading as "full" to
			// the router even while its frames wait in the writer.
			for range frames {
				<-wc.slots
			}
		case <-wc.gone:
			return
		case <-m.stop:
			return
		}
	}
}

// dropUnsendable releases every frame in frames that is over
// MaxFrameSize and returns the others, in order: an oversized frame's
// tuples resurface through the retry path instead of poisoning the
// connection.
func (m *Master) dropUnsendable(wc *workerConn, frames []*wire.Buf) []*wire.Buf {
	n := 0
	for _, f := range frames {
		if err := wire.CheckFrame(f.B); err != nil {
			m.cfg.Logger.Warn("swing master: dropping unsendable frame",
				"worker", wc.id, "type", wire.FrameType(f.B[4]), "err", err)
			f.Release()
			continue
		}
		frames[n] = f
		n++
	}
	return frames[:n]
}

// frameWriter is one connection writer's reusable flush state.
type frameWriter struct {
	conn net.Conn
	tcp  bool // conn is a *net.TCPConn, whose net.Buffers write is one writev
	// frames holds the flush being gathered; vec and bufs carry a writev
	// and scratch a copied flush. All are kept across flushes.
	frames  []*wire.Buf
	vec     [][]byte
	bufs    net.Buffers
	scratch *wire.Buf
}

// flush writes frames — complete encoded frames, at least one — in
// order, then releases them. One frame is written from its own buffer.
// Several go out as one writev on a TCP connection; on any other
// connection they are copied into the scratch buffer and written with
// one Write, because net.Buffers on a connection without writev makes
// one Write per frame.
func (fw *frameWriter) flush(frames []*wire.Buf) error {
	var err error
	switch {
	case len(frames) == 1:
		_, err = fw.conn.Write(frames[0].B)
	case fw.tcp:
		for _, f := range frames {
			fw.vec = append(fw.vec, f.B)
		}
		fw.bufs = fw.vec
		_, err = fw.bufs.WriteTo(fw.conn)
		clear(fw.vec)
		fw.vec = fw.vec[:0]
	default:
		if fw.scratch == nil {
			fw.scratch = wire.GetBuf(0)
		}
		b := fw.scratch.B[:0]
		for _, f := range frames {
			b = append(b, f.B...)
		}
		fw.scratch.B = b
		_, err = fw.conn.Write(b)
	}
	for _, f := range frames {
		f.Release()
	}
	if err != nil {
		return fmt.Errorf("write frames: %w", err)
	}
	return nil
}

func (m *Master) readLoop(wc *workerConn) {
	var sc resultScratch
	for {
		// Every frame is read into a pooled buffer. A result frame's
		// passes to handleResultBatch, whose decoded results alias it
		// until the frame's last one is done; any other frame's is
		// released here.
		typ, buf, err := wire.ReadFrameBuf(wc.conn)
		if err != nil {
			return
		}
		// Any frame is proof of life for the failure detector; pongs exist
		// so even an idle link produces them.
		now := time.Now()
		wc.noteHeard(now)
		switch typ {
		case wire.FrameResultBatch:
			if err := m.handleResultBatch(wc, &sc, buf, now); err != nil {
				m.cfg.Logger.Warn("swing master: bad result batch",
					"worker", wc.id, "err", err)
			}
			continue
		case wire.FrameStats:
			var st wire.Stats
			if err := wire.DecodeJSON(buf.Bytes(), &st); err == nil {
				wc.mu.Lock()
				wc.report = st
				wc.mu.Unlock()
			}
		case wire.FramePong:
			// lastHeard is already refreshed above; the echo payload is
			// not otherwise needed.
		default:
			// Ignore unexpected frames from workers.
		}
		buf.Release()
	}
}

// monitorLoop is the failure detector and breaker sweeper: each tick it
// pings every worker, advances health states from observed silence,
// evicts workers that crossed DeadAfter, and charges breakers for
// in-flight tuples stuck past the ack timeout.
func (m *Master) monitorLoop() {
	defer m.wg.Done()
	period := m.cfg.Heartbeat
	if period <= 0 {
		// Breaker-only mode: sweep ack timeouts without heartbeats.
		period = 100 * time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			now := time.Now()
			if m.cfg.Heartbeat > 0 {
				m.checkWorkers(now)
			}
			if m.cfg.BreakerAckTimeout > 0 {
				for id, n := range m.inflight.sweepTimeouts(now, m.cfg.BreakerAckTimeout) {
					m.chargeBreaker(id, n, now)
				}
			}
			if m.cfg.HedgeAfter > 0 {
				m.hedgeSweep(now)
			}
		case <-m.stop:
			return
		}
	}
}

// checkWorkers pings every worker and advances its health state. Pings
// are enqueued without blocking: on a backed-up link the queue is already
// full of traffic the worker is not consuming, which is exactly the
// silence the detector measures — a blocked ping would only stall the
// monitor.
func (m *Master) checkWorkers(now time.Time) {
	for _, wc := range m.workerMap() {
		wc.mu.Lock()
		wc.pingSeq++
		ping := wire.Ping{Seq: wc.pingSeq, SentNanos: now.UnixNano()}
		prev := wc.health
		silence := now.Sub(wc.lastHeard)
		next := nextHealth(prev, silence, m.cfg.SuspectAfter, m.cfg.DeadAfter)
		wc.health = next
		wc.mu.Unlock()
		if pb, err := wire.EncodeJSON(ping); err == nil {
			select {
			case wc.slots <- struct{}{}:
				fb := wire.GetBuf(0)
				fb.B, _ = wire.AppendFrame(fb.B, wire.FramePing, pb) // a ping is tiny
				wc.out <- fb
			default: // queue full: the silence clock is already running
			}
		}
		if next == prev {
			continue
		}
		switch next {
		case healthSuspect:
			m.events.Record(obs.EventSuspect, wc.id, "silence "+silence.String(), 0)
			m.cfg.Logger.Warn("swing master: worker suspect", "worker", wc.id,
				"silence", silence)
		case healthHealthy:
			m.events.Record(obs.EventRecovered, wc.id, "", 0)
			m.cfg.Logger.Info("swing master: worker recovered", "worker", wc.id)
		case healthDead:
			m.inflight.count(func(l *obs.Counters) { l.Evicted++ })
			m.events.Record(obs.EventEvicted, wc.id, "silence "+silence.String(), 0)
			m.cfg.Logger.Warn("swing master: evicting hung worker", "worker", wc.id,
				"silence", silence)
			// Closing the connection funnels the eviction through the
			// same dropWorker path as a broken link: the routing table
			// sheds the worker and its backlog retransmits to survivors.
			_ = wc.conn.Close()
		}
	}
}

// chargeBreaker records n ack-timeout failures against a worker's
// breaker, logging open transitions.
func (m *Master) chargeBreaker(id string, n int, now time.Time) {
	wc, ok := m.workerMap()[id]
	if !ok {
		return // worker already gone; its backlog is being retransmitted
	}
	wc.mu.Lock()
	prev := wc.br.state
	for i := 0; i < n; i++ {
		wc.br.onFailure(now)
	}
	next := wc.br.state
	wc.mu.Unlock()
	if prev != breakerOpen && next == breakerOpen {
		m.events.Record(obs.EventBreakerOpen, id, "ack timeouts", int64(n))
		m.cfg.Logger.Warn("swing master: breaker opened", "worker", id,
			"timeouts", n, "ackTimeout", m.cfg.BreakerAckTimeout)
	}
}

// dropWorker handles an abrupt leave: remove from the routing table so
// traffic re-routes immediately (§IV-C), then recover the worker's
// un-acked tuples — each is retransmitted to a surviving worker or shed
// at its deadline, never silently lost.
func (m *Master) dropWorker(wc *workerConn) {
	m.workersMu.Lock()
	cur := m.workerMap()
	if cur[wc.id] != wc {
		m.workersMu.Unlock()
		return
	}
	next := make(map[string]*workerConn, len(cur))
	for id, c := range cur {
		if c != wc {
			next[id] = c
		}
	}
	m.workers.Store(&next)
	m.workersMu.Unlock()

	close(wc.gone)
	_ = wc.conn.Close()

	m.withRouter(func(r *routing.Router) {
		if r.Has(wc.id) {
			_ = r.RemoveDownstream(wc.id)
		}
	})
	m.events.Record(obs.EventWorkerLeft, wc.id, "", 0)
	m.cfg.Logger.Info("swing master: worker left", "worker", wc.id)

	if orphans := m.inflight.takeWorker(wc.id); len(orphans) > 0 {
		// Resubmission can block on surviving workers' backpressure, so
		// it runs off the connection goroutine.
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.retransmitAll(wc.id, orphans)
		}()
	}
}

// retransmitAll re-routes a dead worker's un-acked tuples. A tuple past
// its retry deadline or attempt budget — or with no surviving worker to
// take it — is shed and accounted, the streaming analogue of the reorder
// buffer skipping a stale frame.
func (m *Master) retransmitAll(from string, orphans []*inflightEntry) {
	var resent, shed int64
	for _, e := range orphans {
		var reason string
		switch {
		case int(e.attempt)+1 >= m.cfg.MaxAttempts:
			reason = "attempts exhausted"
		case time.Now().After(e.deadline):
			reason = "deadline passed"
		default:
			one := [1]*tuple.Tuple{e.t}
			if err := m.dispatch(one[:], e.attempt+1, e.deadline, e.failedOn); err != nil {
				reason = err.Error()
			} else {
				resent++
			}
		}
		if reason != "" {
			shed++
			m.inflight.shedOrphan(e.t.ID)
			m.journalShed(e.t.ID, false)
			m.cfg.Logger.Info("swing master: shed tuple",
				"tuple", e.t.ID, "seq", e.t.SeqNo, "worker", from, "reason", reason)
		}
	}
	if resent > 0 {
		m.events.Record(obs.EventRetransmit, from, "backlog re-routed", resent)
	}
	if shed > 0 {
		m.events.Record(obs.EventShed, from, "retry budget exhausted", shed)
	}
}

func (m *Master) reconfigureLoop(period time.Duration) {
	defer m.wg.Done()
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	flush := time.NewTicker(estimateFlushEvery)
	defer flush.Stop()
	var lastSubmitted int64
	for {
		select {
		case <-flush.C:
			m.flushEstimates(time.Now())
		case <-ticker.C:
			led := m.inflight.ledgerSnapshot()
			lambda := float64(led.Submitted-lastSubmitted) / period.Seconds()
			lastSubmitted = led.Submitted
			// Fold the freshest banked samples before recomputing, so the
			// new table reflects every ACK up to this tick.
			m.flushEstimates(time.Now())
			m.withRouter(func(r *routing.Router) { r.Reconfigure(lambda) })
		case <-m.stop:
			return
		}
	}
}

// Submit routes one tuple into the swarm: SubmitBatch over a batch of
// one. With admission control off (InflightHighWater 0) it blocks when
// the chosen worker's send queue is full (TCP backpressure); with it on,
// Submit never blocks — overload sheds the oldest in-flight tuples
// instead, counted in ShedOverload. It returns ErrNoWorkers when the
// swarm is empty or every worker's breaker is open. The tuple is tracked
// until a worker acknowledges it; if its worker dies first it is
// retransmitted to a survivor or shed at its retry deadline.
func (m *Master) Submit(t *tuple.Tuple) error {
	one := [1]*tuple.Tuple{t}
	return m.SubmitBatch(one[:])
}

// submitBatchMaxBytes caps one FrameTupleBatch payload: a group bound
// for one worker is split into frames of at most this many tuple bytes,
// which keeps the pooled frame buffer recyclable (below wire's pooling
// cap) and matches the writer's coalescing flush threshold — a bigger
// frame would not cut syscalls further, only add queue latency.
const submitBatchMaxBytes = 256 << 10

// SubmitBatch routes a slice of fresh tuples into the swarm as one
// dataplane operation: the routing snapshot is loaded once, ledger
// inserts take the in-flight table's lock once per frame, journal records
// land under one group-commit entry, and tuples bound for the same
// worker coalesce into FrameTupleBatch frames — one queue slot, one
// header and one Write per frame instead of per tuple.
//
// Per-tuple semantics are preserved: every sequence number is burned,
// admission shedding runs once up front, and breaker admission is
// checked per tuple. Returns ErrStopped if the master shuts down
// mid-batch (tuples not yet dispatched stay untracked), otherwise the
// first per-tuple routing error while the rest of the batch proceeds.
// The caller's slice is read, never reordered.
func (m *Master) SubmitBatch(ts []*tuple.Tuple) error {
	if len(ts) == 0 {
		return nil
	}
	// nextSeq is the source-resumption high-water mark: every sequence
	// number handed to the master is burned, successful or not, so a
	// restarted source never reuses one.
	for _, t := range ts {
		for {
			cur := m.nextSeq.Load()
			if t.SeqNo < cur || m.nextSeq.CompareAndSwap(cur, t.SeqNo+1) {
				break
			}
		}
	}
	if m.cfg.InflightHighWater > 0 {
		m.admissionShed()
	}
	m.batchSubmits.Add(1)
	return m.dispatch(ts, 0, time.Now().Add(m.cfg.RetryDeadline), nil)
}

// dispatchRetries is how many more rounds dispatch gives a tuple that
// one round could not place before it gives up on it.
const dispatchRetries = 9

// dispatch is the master's one forward path: fresh batches, re-routes
// after a failed enqueue, retransmissions and poison re-dispatch all
// leave through it. attempt 0 is a first transmission, counted
// Submitted (the Λ estimate's input); a re-dispatch is counted
// Retransmitted, so retried traffic cannot inflate the input rate that
// drives Worker Selection. avoid lists workers the tuples already burned
// (the poison history); it is carried onto their new entries, so it is
// passed only with a batch of one.
//
// Each round routes every tuple against one table snapshot and one
// worker map, builds each worker's frames (buildFrames), tracks and
// journals them (trackRound), and enqueues them (ship). A tuple the round could not place — no pick, a refusing
// breaker, a worker that left or died mid-send, a full queue in
// admission mode — goes round again with the refusing worker excluded,
// for up to dispatchRetries more rounds. A tuple still unplaced then is
// settled by abandon. In a probe window a placed tuple may also leave as
// a shadow copy to an unselected worker (shadow), sent after the round's
// frames are queued.
func (m *Master) dispatch(ts []*tuple.Tuple, attempt uint8, deadline time.Time, avoid []string) error {
	var (
		firstErr error
		// excluded lists workers that turned a tuple away in this call.
		excluded []string
		// bounced marks tuples whose enqueue failed after their record
		// was written; allocated on the first such failure.
		bounced map[uint64]bool
	)
	for round := 0; len(ts) > 0; round++ {
		select {
		case <-m.stop:
			return ErrStopped
		default:
		}
		table, workers, now := m.table.Load(), m.workerMap(), time.Now()
		block := make([]inflightEntry, 0, len(ts))
		var (
			again  []*tuple.Tuple
			copies []shadowCopy
		)
		for _, t := range ts {
			wc, refused, err := m.route(table, workers, avoid, excluded, now)
			if refused != "" {
				excluded = append(excluded, refused)
			}
			switch {
			case err != nil:
				if err := m.abandon(t, attempt, bounced); err != nil && firstErr == nil {
					firstErr = err
				}
				continue
			case wc == nil:
				again = append(again, t)
				continue
			}
			t.EmitNanos = now.UnixNano()
			t.Attempt = attempt
			block = append(block, inflightEntry{
				t: t, worker: wc.id, attempt: attempt, deadline: deadline, sentAt: now,
				failedOn: avoid,
			})
			// A probe window copies the tuple to the unselected worker its
			// slot names; a poison suspect is never copied.
			if len(avoid) == 0 && table.ProbeLeft() > 0 {
				if c, ok := m.shadow(table, workers, t, wc.id); ok {
					copies = append(copies, c)
				}
			}
		}
		// Every frame is built before any of its tuples is tracked: once
		// an entry is in the table, a dead worker's retransmitter may take
		// it and rewrite its tuple. Then track → journal → enqueue: the
		// write-ahead record precedes the enqueue, and a checkpoint cut
		// never falls between the tracking and the record.
		var frames [4]outBatch // up to four destinations' frames off the heap
		out, err := buildFrames(frames[:0], block, workers)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		m.trackRound(out, attempt, bounced)
		for i, f := range out {
			n := len(again)
			var err error
			if again, err = m.ship(table, f, again); err != nil {
				for _, f := range out[i:] {
					m.unship(f, nil)
				}
				for _, c := range copies {
					c.fb.Release()
				}
				return err
			}
			if len(again) > n {
				excluded = append(excluded, f.wc.id)
				if bounced == nil {
					bounced = make(map[uint64]bool)
				}
				for _, t := range again[n:] {
					bounced[t.ID] = true
				}
			}
		}
		for _, c := range copies {
			m.sendShadow(c, again)
		}
		ts = again
		if len(ts) > 0 && round >= dispatchRetries {
			for _, t := range ts {
				if err := m.abandon(t, attempt, bounced); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			break
		}
	}
	return firstErr
}

// route draws one tuple's worker from the table snapshot. A nil worker
// with a nil error sends the tuple round again: the pick left, was
// already excluded, or its breaker refused (then reported as refused,
// for the caller to exclude). ErrNoWorkers means no round can help:
// nothing is selected, or the draw landed on a worker in avoid and no
// connected, admissible, unburned worker is left.
func (m *Master) route(table *routing.Table, workers map[string]*workerConn, avoid, excluded []string, now time.Time) (wc *workerConn, refused string, err error) {
	id, err := table.Pick(m.pickU(), nil)
	if err != nil {
		return nil, "", ErrNoWorkers
	}
	if slices.Contains(avoid, id) {
		// A tuple sent back to a worker it already burned would bounce
		// among them forever.
		for _, wc := range workers {
			if !slices.Contains(avoid, wc.id) && !slices.Contains(excluded, wc.id) && m.admit(wc, now) {
				return wc, "", nil
			}
		}
		return nil, "", ErrNoWorkers
	}
	wc, ok := workers[id]
	if !ok || slices.Contains(excluded, id) {
		return nil, "", nil
	}
	if !m.admit(wc, now) {
		return nil, id, nil
	}
	return wc, "", nil
}

// admit asks wc's breaker to take one more tuple — breaker admission is
// metered per tuple, so a half-open breaker admits its probes one at a
// time.
func (m *Master) admit(wc *workerConn, now time.Time) bool {
	wc.mu.Lock()
	wasOpen := wc.br.state == breakerOpen
	ok := wc.br.allow(now)
	wc.mu.Unlock()
	if ok && wasOpen {
		m.events.Record(obs.EventBreakerProbe, wc.id, "half-open probe admitted", 0)
	}
	return ok
}

// splitWorker splits block[0]'s worker off block: run holds its entries
// and rest the others, both in routing order. The in-flight table points
// into run, and a block stays reachable until its last entry is acked,
// so each worker's share gets a block of its own: one worker's backlog
// pins no other worker's tuples. A block bound for one worker — a
// Submit's, always — is returned whole, without a copy.
func splitWorker(block []inflightEntry) (run, rest []inflightEntry) {
	id := block[0].worker
	n := 0
	for i := range block {
		if block[i].worker == id {
			n++
		}
	}
	if n == len(block) {
		return block, nil
	}
	run = make([]inflightEntry, 0, n)
	k := 0
	for i := range block {
		if block[i].worker == id {
			run = append(run, block[i])
		} else {
			block[k] = block[i]
			k++
		}
	}
	clear(block[k:]) // drop the moved entries' tuple pointers
	return run, block[:k]
}

// abandon settles a tuple dispatch could not place. One that bounced
// off a send queue already has its write-ahead record, so it is counted
// submitted-then-shed (overload subset) and its shed journaled; any
// other fails with ErrNoWorkers and leaves no record and no count.
func (m *Master) abandon(t *tuple.Tuple, attempt uint8, bounced map[uint64]bool) error {
	if !bounced[t.ID] {
		return ErrNoWorkers
	}
	m.inflight.shedUntracked(t.ID, attempt)
	m.journalShed(t.ID, true)
	m.events.Record(obs.EventShed, "", "all queues full", 1)
	m.cfg.Logger.Info("swing master: shed tuple",
		"tuple", t.ID, "seq", t.SeqNo, "reason", "all queues full")
	return nil
}

// outBatch is one FrameTupleBatch frame of a dispatch round: the worker
// it goes to, the entries it carries (a range of that worker's block,
// which the in-flight table points into once tracked) and the frame.
type outBatch struct {
	wc  *workerConn
	run []inflightEntry
	fb  *wire.Buf
}

// buildFrames appends to frames each worker's share of block as frames
// of at most submitBatchMaxBytes, marshaled in routing order straight
// into the pooled buffer the writer will write. A tuple that does not
// marshal is left out of its run before anything is tracked, and the
// first such error is returned.
func buildFrames(frames []outBatch, block []inflightEntry, workers map[string]*workerConn) ([]outBatch, error) {
	var (
		firstErr error
		batch    wire.TupleBatch
	)
	for len(block) > 0 {
		var run []inflightEntry
		run, block = splitWorker(block)
		wc := workers[run[0].worker]
		n := 0 // run[:n] holds the tuples that marshaled
		for lo := 0; lo < len(run); {
			need := wire.BatchOverhead
			for i := lo; i < len(run) && need < submitBatchMaxBytes; i++ {
				need += 4 + run[i].t.WireSize()
			}
			fb := frameBuf(need)
			batch.SetBuf(fb.B)
			first := n
			for ; lo < len(run) && batch.Size() < submitBatchMaxBytes; lo++ {
				if err := appendTupleEntry(&batch, run[lo].t); err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("runtime: submit: %w", err)
					}
					continue
				}
				run[n] = run[lo]
				n++
			}
			frame := batch.Frame()
			if frame == nil {
				fb.Release()
				continue
			}
			fb.B = frame // recover the (possibly reallocated) backing
			frames = append(frames, outBatch{wc: wc, run: run[first:n], fb: fb})
		}
	}
	return frames, firstErr
}

// frameBuf returns an empty pooled buffer with room for a frame of need
// bytes. A pooled buffer too small for it is replaced once, at that
// size, rather than doubled again and again by the marshal.
func frameBuf(need int) *wire.Buf {
	fb := wire.GetBuf(0)
	if cap(fb.B) < need {
		fb.B = make([]byte, 0, need)
	}
	return fb
}

// trackRound tracks a round's frames — each tuple counted in the same
// critical section as its insert — and writes their write-ahead records
// in one journal append, with the tracking inside its critical section
// (appendRound). Tuples that bounced off a send queue in an earlier
// round already have their records. Append failures are logged, not
// fatal — the master keeps serving with recovery degraded rather than
// stalling the stream on a sick disk.
func (m *Master) trackRound(frames []outBatch, attempt uint8, bounced map[uint64]bool) {
	track := func() {
		for _, f := range frames {
			m.inflight.trackSubmitBatch(f.run)
		}
	}
	if m.journal == nil {
		track()
		return
	}
	n := 0
	for _, f := range frames {
		n += len(f.run)
	}
	ts := make([]*tuple.Tuple, 0, n)
	for _, f := range frames {
		for i := range f.run {
			if t := f.run[i].t; !bounced[t.ID] {
				ts = append(ts, t)
			}
		}
	}
	if err := m.journal.appendRound(ts, attempt, track); err != nil {
		m.cfg.Logger.Warn("swing master: journal append", "err", err)
	}
}

// ship enqueues one tracked frame, taking one queue slot; its tuples
// were tracked first, so an ack arriving right after the send always
// finds its entry. A frame that cannot be enqueued (a full queue in
// admission mode, the worker died while the send was blocked, or a table
// published meanwhile deselected the worker table picked) has its tuples
// reclaimed, un-counting them, and appended to again. A tuple a dead
// worker's drop path claimed first belongs to the retransmitter and is
// skipped. On master stop it returns ErrStopped, leaving the frame to
// the caller to unship.
func (m *Master) ship(table *routing.Table, f outBatch, again []*tuple.Tuple) ([]*tuple.Tuple, error) {
	wc := f.wc
	queued := true
	select {
	case wc.slots <- struct{}{}:
	default:
		queued = false
		if m.cfg.InflightHighWater == 0 {
			var err error
			if queued, err = m.awaitSlot(table, wc); err != nil {
				return again, err
			}
		}
	}
	if !queued {
		return m.unship(f, again), nil
	}
	wc.out <- f.fb
	m.noteDispatchedN(wc, len(f.run))
	m.batchFrames.Add(1)
	m.batchTuples.Add(int64(len(f.run)))
	return again, nil
}

// unship releases a tracked frame that will not be sent and reclaims
// its tuples, appending to again those still in its hands.
func (m *Master) unship(f outBatch, again []*tuple.Tuple) []*tuple.Tuple {
	f.fb.Release()
	for i := range f.run {
		if e, ours := m.inflight.reclaim(f.run[i].t.ID, f.wc.id); ours {
			again = append(again, e.t)
		}
	}
	return again
}

// awaitSlot blocks for a slot on wc's full send queue — the
// backpressure of admission mode off — and reports whether it took one.
// It gives up without one when wc leaves, and when a table published
// while it waits no longer selects the worker table had selected: a
// worker deselected for being slow must not hold the Submit that drew it
// just before, while its queue drains at the slow worker's pace.
func (m *Master) awaitSlot(table *routing.Table, wc *workerConn) (bool, error) {
	for {
		published := *m.published.Load()
		if table.Selects(wc.id) && !m.table.Load().Selects(wc.id) {
			return false, nil
		}
		select {
		case wc.slots <- struct{}{}:
			return true, nil
		case <-wc.gone:
			return false, nil
		case <-m.stop:
			return false, ErrStopped
		case <-published:
		}
	}
}

// appendTupleEntry marshals t straight into the batch as its next entry.
func appendTupleEntry(b *wire.TupleBatch, t *tuple.Tuple) error {
	start := b.Begin()
	if err := b.Append(func(dst []byte) ([]byte, error) { return tuple.AppendMarshal(dst, t) }); err != nil {
		b.Cancel(start)
		return err
	}
	b.End(start)
	return nil
}

// noteDispatchedN claims the breaker's half-open probe slot for a sent
// frame: one lock, n claims, pairing each admitted tuple's br.allow with
// its dispatch.
func (m *Master) noteDispatchedN(wc *workerConn, n int) {
	wc.mu.Lock()
	for i := 0; i < n; i++ {
		wc.br.noteDispatch()
	}
	wc.mu.Unlock()
}

// admissionShed is Submit-side overload protection, run before a fresh
// tuple is routed. Two triggers: the in-flight table crossing its
// high-water mark, and the router reporting Λ > Σμ infeasibility while
// the table holds at least one outbox worth of backlog. Victims leave
// the in-flight table for the Shed column (ShedOverload subset), so the
// ledger invariant Acked + Shed + InFlight == Submitted is untouched; a
// straggler ack for a shed tuple finds no entry and is ignored.
func (m *Master) admissionShed() {
	size := m.inflight.size()
	var victims []*inflightEntry
	if hw := m.cfg.InflightHighWater; hw > 0 && size >= hw {
		victims = m.inflight.shedOldest(size - hw + 1)
	} else if size >= m.cfg.OutboxCap && m.routerOverloaded() {
		victims = m.inflight.shedOldest(1)
	}
	for _, e := range victims {
		m.journalShed(e.t.ID, true)
		m.cfg.Logger.Info("swing master: shed tuple",
			"tuple", e.t.ID, "seq", e.t.SeqNo, "worker", e.worker, "reason", "overload")
	}
	if len(victims) > 0 {
		m.events.Record(obs.EventShed, "", "overload", int64(len(victims)))
	}
}

func (m *Master) routerOverloaded() bool {
	return m.table.Load().Overloaded()
}

// journalShed logs an abandoned tuple (no-op without a journal).
func (m *Master) journalShed(id uint64, overload bool) {
	if m.journal == nil {
		return
	}
	if err := m.journal.appendShed(id, overload); err != nil {
		m.cfg.Logger.Warn("swing master: journal append", "err", err)
	}
}

// snapshotState captures a checkpoint body from the live state. The
// caller must either hold the journal lock (checkpointAnd) or otherwise
// exclude journal appends (initRecovery) so the snapshot and the journal
// generation stay consistent. The ledger record and the un-acked tuples
// come from one in-flight table critical section (checkpoint); the
// tuples' base64 encoding waits for encodeCheckpoint.
func (m *Master) snapshotState() *checkpointState {
	st := &checkpointState{
		Version:    checkpointVersion,
		Epoch:      m.epoch,
		Generation: m.generation.Load(),
	}
	st.Counters, st.Pending = m.inflight.checkpoint()
	st.NextSeq = m.nextSeq.Load()
	m.sinkMu.Lock()
	st.Arrived, st.Played = m.arrived, m.played
	st.Skipped, st.NextPlay = m.sink.Skipped(), m.sink.Next()
	m.sinkMu.Unlock()
	// Flush banked ack samples so the persisted estimates include every
	// acknowledged tuple's latency, then read under routerMu.
	m.flushEstimates(time.Now())
	m.routerMu.Lock()
	for id, est := range m.router.Estimates() {
		st.Estimates = append(st.Estimates, ckptEstimate{
			ID:              id,
			LatencyNanos:    int64(est.Latency),
			ProcessingNanos: int64(est.Processing),
			Samples:         est.Samples,
		})
	}
	m.routerMu.Unlock()
	sort.Slice(st.Estimates, func(i, j int) bool { return st.Estimates[i].ID < st.Estimates[j].ID })
	return st
}

// checkpointNow snapshots state to the checkpoint file and starts the
// journal on the next generation.
func (m *Master) checkpointNow() error {
	return m.checkpointAnd(nil)
}

// checkpointAnd runs one checkpoint cycle (see checkpoint.go). The
// journal lock is held only for the cut: quiesce, snapshot, set the file
// aside and open the next generation. No lifecycle event can land in the
// old generation after the snapshot — it would be double-counted on
// recovery. Syncing and closing the set-aside file, encoding, saving and
// retiring follow after the lock is released, so the dataplane stalls
// only for the cut.
//
// fn (if non-nil) runs inside the locked window, after the cut
// succeeded, with the new generation and the checkpoint body — encoded
// under the lock on this path. The replicator attaches standbys through
// it: the new generation's file starts empty, so a subscriber registered
// inside this window sees the checkpoint image plus exactly the record
// bytes flushed after it, with nothing missing and nothing doubled.
func (m *Master) checkpointAnd(fn func(epoch, generation uint64, body []byte)) error {
	if m.journal == nil {
		return nil
	}
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	start := time.Now()
	defer func() { m.ckptTook.Store(int64(time.Since(start))) }()

	m.journal.mu.Lock()
	// Wait out any group-commit flush in flight so the file handle is
	// stable and every returned append is on disk before the snapshot.
	m.journal.quiesceLocked()
	gen := m.generation.Load() + 1
	st := m.snapshotState()
	st.Generation = gen
	err := m.journal.setAsideLocked(m.epoch, gen)
	var body []byte
	if err == nil {
		// A failed cut leaves the file at its own generation, so only a
		// successful one advances.
		m.generation.Store(gen)
		if fn != nil {
			if body, err = encodeCheckpoint(st); err == nil {
				fn(m.epoch, gen, body)
			}
		}
	}
	m.journal.mu.Unlock()
	m.ckptHold.Store(int64(time.Since(start)))

	// The set-aside file is durable before anything is retired and
	// before the new generation's first sync (closeAside).
	if err != nil {
		return err
	}
	if err := m.journal.closeAside(); err != nil {
		return err
	}
	if body == nil {
		if body, err = encodeCheckpoint(st); err != nil {
			return err
		}
	}
	if err := saveCheckpointBytes(m.cfg.CheckpointPath, body); err != nil {
		return err
	}
	m.journal.retire(gen)
	return nil
}

// checkpointLoop periodically compacts the journal into a checkpoint.
func (m *Master) checkpointLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.CheckpointEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := m.checkpointNow(); err != nil {
				m.cfg.Logger.Warn("swing master: checkpoint", "err", err)
			}
		case <-m.stop:
			return
		}
	}
}

// Epoch returns this incarnation's number: 1 for a fresh master, one more
// than the recovered epoch after a crash-recovery restart.
func (m *Master) Epoch() uint64 { return m.epoch }

// NextSeq returns the first unused source sequence number. A restarted
// master's frame source should resume from here so recovered and new
// tuples never share a sequence slot in the reorder buffer.
func (m *Master) NextSeq() uint64 {
	return m.nextSeq.Load()
}

// Close stops the master: workers receive Stop, connections close, all
// goroutines drain, and — when journaling — a final checkpoint folds the
// quiesced state so the next incarnation restarts without journal replay.
func (m *Master) Close() error {
	m.once.Do(func() {
		close(m.stop)
		_ = m.ln.Close()
		if m.statusSrv != nil {
			_ = m.statusSrv.Close()
		}
		for _, wc := range m.workerMap() {
			wc.writeMu.Lock()
			_ = wire.WriteFrame(wc.conn, wire.FrameStop, nil)
			wc.writeMu.Unlock()
			_ = wc.conn.Close()
		}
		m.wg.Wait()
		if m.rep != nil {
			m.rep.close()
		}
		if m.journal != nil {
			if err := m.checkpointNow(); err != nil {
				m.cfg.Logger.Warn("swing master: final checkpoint", "err", err)
			}
			_ = m.journal.close()
		}
	})
	return nil
}

// Crash tears the master down the way a process kill would: the listener
// and connections close and goroutines drain, but no Stop frames are sent
// and no final checkpoint is written. Recovery tests and the chaos
// nemesis restart from exactly the on-disk state an abrupt termination
// leaves behind.
func (m *Master) Crash() {
	m.once.Do(func() {
		close(m.stop)
		_ = m.ln.Close()
		if m.statusSrv != nil {
			_ = m.statusSrv.Close()
		}
		for _, wc := range m.workerMap() {
			_ = wc.conn.Close()
		}
		m.wg.Wait()
		if m.rep != nil {
			// A real SIGKILL severs the replication link too; the standby
			// notices the silence and arms its takeover timer.
			m.rep.close()
		}
		if m.journal != nil {
			// Close without checkpointing; the already-written bytes
			// survive the same way they would a SIGKILL.
			_ = m.journal.close()
		}
	})
}
