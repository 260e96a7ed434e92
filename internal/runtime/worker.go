package runtime

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/discovery"
	"github.com/swingframework/swing/internal/graph"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
	"github.com/swingframework/swing/internal/wire"
)

// WorkerConfig configures StartWorker.
type WorkerConfig struct {
	// DeviceID uniquely names this worker in the swarm.
	DeviceID string
	// MasterAddr is the master's control address (from discovery or
	// out-of-band).
	MasterAddr string
	// App must be the same application the master coordinates (the
	// paper's workflow installs the app on every device).
	App *apps.App
	// Transport defaults to TCP.
	Transport transport.Transport
	// QueueCap bounds the input queue in tuples (default 48); a full
	// queue stalls the connection read, which is the TCP backpressure
	// the master's routing observes.
	QueueCap int
	// SpeedFactor artificially slows processing by the given factor
	// (>1), emulating a weaker device on homogeneous test hosts.
	SpeedFactor float64
	// Reconnect makes a broken master link re-run the dial and
	// hello/deploy/start handshake with exponential backoff and jitter
	// instead of shutting the worker down — a transient radio dropout
	// rejoins the swarm (§IV-C) rather than leaving it permanently. A
	// master-initiated Stop still shuts down cleanly.
	Reconnect bool
	// ReconnectBackoff is the initial retry delay (default 50 ms); it
	// doubles per failed attempt up to ReconnectMaxBackoff (default 5 s).
	ReconnectBackoff    time.Duration
	ReconnectMaxBackoff time.Duration
	// ReconnectAttempts bounds cumulative failed rejoin attempts before
	// the worker gives up (0 = retry forever). The budget is NOT refilled
	// by merely re-establishing a session — a link that flaps every few
	// hundred milliseconds would otherwise retry forever on a budget meant
	// to bound it — only by staying connected for ReconnectResetAfter.
	ReconnectAttempts int
	// ReconnectResetAfter is how long a session must survive before the
	// failed-attempt budget refills (default 30 s). A worker that rejoins
	// and immediately loses the link again keeps drawing down the same
	// budget; one that holds a session this long has demonstrably
	// recovered and starts fresh on the next outage.
	ReconnectResetAfter time.Duration
	// DiscoverAddr, when set, is a UDP listen address (e.g. ":17716") for
	// master rediscovery: after each failed reconnect dial the worker
	// listens here for a beacon from a NEWER master incarnation
	// (epoch > the one it was joined to) and retargets MasterAddr to it.
	// This is the worker half of standby failover — a promoted standby
	// announces under a bumped epoch at a possibly different address, and
	// workers home onto it instead of redialing the dead primary forever.
	// Empty disables rediscovery (reconnects always redial MasterAddr).
	DiscoverAddr string
	// DiscoverWindow bounds each rediscovery listen (default 1 s).
	DiscoverWindow time.Duration
	// Seed drives the backoff jitter (default 1), keeping reconnection
	// schedules reproducible in tests.
	Seed int64
	// Logger defaults to slog.Default.
	Logger *slog.Logger
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Transport == nil {
		c.Transport = transport.TCP{}
	}
	if c.QueueCap == 0 {
		c.QueueCap = 48
	}
	if c.SpeedFactor < 1 {
		c.SpeedFactor = 1
	}
	if c.ReconnectBackoff == 0 {
		c.ReconnectBackoff = 50 * time.Millisecond
	}
	if c.ReconnectMaxBackoff == 0 {
		c.ReconnectMaxBackoff = 5 * time.Second
	}
	if c.ReconnectResetAfter == 0 {
		c.ReconnectResetAfter = 30 * time.Second
	}
	if c.DiscoverWindow == 0 {
		c.DiscoverWindow = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// workerSession is one joined connection's state: everything that is torn
// down and rebuilt when the worker reconnects.
type workerSession struct {
	conn        net.Conn
	chain       []graph.Processor
	units       []string // deployed unit IDs, for building pool chains
	reportEvery time.Duration
	// epoch is the master incarnation that deployed this session; a change
	// between sessions means the worker was re-adopted by a restarted
	// master, not merely reconnected to the same one.
	epoch uint64
	// parallelism is the processor-pool width from the deployment;
	// ackLinger is its result-batching window; opDeadline is the per-tuple
	// watchdog budget (0 = watchdog off, chains run inline).
	parallelism int
	ackLinger   time.Duration
	opDeadline  time.Duration

	// queue feeds the processor pool; order carries the same batches in
	// arrival order to the send loop, which restores input order on the
	// upstream link whatever order the pool finishes in. The read loop is
	// the only sender on both and closes both on exit.
	queue chan *procBatch
	order chan *procBatch
	dead  chan struct{} // closed when the read loop exits
	// sendGone is closed when the send loop exits (e.g. a write error),
	// so a read loop blocked handing a batch off doesn't wait on a drain
	// that will never come.
	sendGone chan struct{}
	writeMu  sync.Mutex
	sawStop  bool // FrameStop received: clean shutdown, do not reconnect
}

// Worker executes the operator pipeline assigned by the master on locally
// received tuples and returns results. With Reconnect enabled it survives
// link breaks by rejoining the master.
type Worker struct {
	cfg WorkerConfig

	mu   sync.Mutex
	conn net.Conn // current session's connection, for Close

	statsMu    sync.Mutex
	processed  int64
	dropped    int64
	panics     int64 // operator panics recovered by the sandbox
	deadlined  int64 // tuples abandoned by the per-tuple watchdog
	reconnects int64
	lastEpoch  uint64 // master incarnation of the current session
	termErr    error  // terminal failure (e.g. reconnect budget exhausted)

	// attemptsUsed is the cumulative failed-reconnect count charged
	// against ReconnectAttempts. Owned by the run goroutine: incremented
	// per failed dial, zeroed only after a session survives
	// ReconnectResetAfter.
	attemptsUsed int

	start time.Time
	stop  chan struct{}
	once  sync.Once
	done  chan struct{}
}

// StartWorker joins the swarm: it dials the master, completes the
// hello/deploy/start handshake and begins processing. The initial join
// must succeed (so configuration errors surface immediately); later link
// breaks follow the Reconnect policy.
func StartWorker(cfg WorkerConfig) (*Worker, error) {
	cfg = cfg.withDefaults()
	if cfg.App == nil {
		return nil, errors.New("runtime: nil app")
	}
	if cfg.DeviceID == "" {
		return nil, errors.New("runtime: empty device id")
	}
	s, err := dialSession(cfg, 0)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		cfg:   cfg,
		conn:  s.conn,
		start: time.Now(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	w.lastEpoch = s.epoch
	go w.run(s)
	cfg.Logger.Info("swing worker: joined", "device", cfg.DeviceID, "master", cfg.MasterAddr)
	return w, nil
}

// dialSession performs the join workflow (paper §IV-B steps 2-3): dial,
// hello, receive the deployment, acknowledge start. lastEpoch is the
// master incarnation the worker was last joined to (0 on the first join);
// echoing it lets a restarted master count the re-adoption.
func dialSession(cfg WorkerConfig, lastEpoch uint64) (*workerSession, error) {
	conn, err := cfg.Transport.Dial(cfg.MasterAddr)
	if err != nil {
		return nil, fmt.Errorf("runtime: join master: %w", err)
	}
	hello, err := wire.EncodeJSON(wire.Hello{
		DeviceID:    cfg.DeviceID,
		App:         cfg.App.Name(),
		SpeedFactor: cfg.SpeedFactor,
		Epoch:       lastEpoch,
	})
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	if err := wire.WriteFrame(conn, wire.FrameHello, hello); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("runtime: hello: %w", err)
	}

	// Deploy: activate the assigned function units.
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil || typ != wire.FrameDeploy {
		_ = conn.Close()
		return nil, fmt.Errorf("runtime: expected deploy, got %v: %v", typ, err)
	}
	var deploy wire.Deploy
	if err := wire.DecodeJSON(payload, &deploy); err != nil {
		_ = conn.Close()
		return nil, err
	}
	if deploy.Epoch != 0 && deploy.Epoch < lastEpoch {
		// Worker-side epoch fence: this master is an older incarnation than
		// the one that last deployed us — a zombie primary that survived its
		// own failover. Joining it would fork the swarm: tuples it dispatches
		// were either already recovered by the promoted master or will never
		// reach the real sink. Refuse and let reconnect/rediscovery find the
		// live incarnation.
		_ = conn.Close()
		return nil, fmt.Errorf("%w: deploy epoch %d < last epoch %d",
			ErrStaleMaster, deploy.Epoch, lastEpoch)
	}
	chain, err := buildChain(cfg.App, deploy.Units)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	typ, _, err = wire.ReadFrame(conn)
	if err != nil || typ != wire.FrameStart {
		_ = conn.Close()
		return nil, fmt.Errorf("runtime: expected start, got %v: %v", typ, err)
	}
	par := deploy.Parallelism
	if par <= 0 {
		par = goruntime.GOMAXPROCS(0)
	}
	return &workerSession{
		conn:        conn,
		chain:       chain,
		units:       deploy.Units,
		reportEvery: time.Duration(deploy.ReportEveryMillis) * time.Millisecond,
		epoch:       deploy.Epoch,
		parallelism: par,
		ackLinger:   time.Duration(deploy.AckLingerMicros) * time.Microsecond,
		opDeadline:  time.Duration(deploy.OpDeadlineMillis) * time.Millisecond,
		queue:       make(chan *procBatch, cfg.QueueCap),
		// order must hold every admitted-but-unsent batch: the queue's
		// worth plus one per pool slot plus the one mid-handoff in the read
		// loop.
		order:    make(chan *procBatch, cfg.QueueCap+par+1),
		dead:     make(chan struct{}),
		sendGone: make(chan struct{}),
	}, nil
}

// buildChain instantiates the worker's processors in pipeline order.
func buildChain(app *apps.App, units []string) ([]graph.Processor, error) {
	if len(units) == 0 {
		return nil, errors.New("runtime: empty deployment")
	}
	chain := make([]graph.Processor, 0, len(units))
	for _, id := range units {
		u, err := app.Graph.Unit(id)
		if err != nil {
			return nil, fmt.Errorf("runtime: deploy: %w", err)
		}
		if u.NewProcessor == nil {
			return nil, fmt.Errorf("runtime: unit %q has no processor factory", id)
		}
		chain = append(chain, u.NewProcessor())
	}
	return chain, nil
}

// run drives sessions until a clean stop: each session processes until
// its link breaks, then (with Reconnect on) the worker redials with
// exponential backoff and jitter and re-runs the handshake.
func (w *Worker) run(s *workerSession) {
	defer close(w.done)
	rng := rand.New(rand.NewPCG(uint64(w.cfg.Seed), 0x3417))
	for {
		sessionStart := time.Now()
		w.runSession(s)
		if time.Since(sessionStart) >= w.cfg.ReconnectResetAfter {
			// The session held long enough to count as a real recovery;
			// refill the failed-attempt budget. A session that died young is
			// still the same outage as far as the budget is concerned.
			w.attemptsUsed = 0
		}
		if w.stopped() || s.sawStop || !w.cfg.Reconnect {
			return
		}
		next, ok := w.reconnect(rng)
		if !ok {
			return
		}
		s = next
	}
}

// reconnect redials until a session is established, the attempt budget
// runs out, or the worker is closed. Backoff doubles per failure, capped
// at ReconnectMaxBackoff, with ±50% seeded jitter to avoid thundering
// herds when a swarm's workers all lost the same master. The budget is
// cumulative across outages (see ReconnectAttempts): only dial failures
// draw it down, and only a session that survived ReconnectResetAfter
// refills it.
func (w *Worker) reconnect(rng *rand.Rand) (*workerSession, bool) {
	backoff := w.cfg.ReconnectBackoff
	for attempt := 1; ; attempt++ {
		if w.cfg.ReconnectAttempts > 0 && w.attemptsUsed >= w.cfg.ReconnectAttempts {
			w.cfg.Logger.Warn("swing worker: reconnect attempts exhausted",
				"device", w.cfg.DeviceID, "attempts", w.cfg.ReconnectAttempts)
			// Giving up is a terminal failure, not a clean shutdown: record
			// it so Wait/Err report the worker fell out of the swarm.
			w.statsMu.Lock()
			w.termErr = fmt.Errorf("%w after %d attempts (device %s)",
				ErrReconnectExhausted, w.cfg.ReconnectAttempts, w.cfg.DeviceID)
			w.statsMu.Unlock()
			return nil, false
		}
		delay := backoff/2 + time.Duration(rng.Int64N(int64(backoff)))
		select {
		case <-time.After(delay):
		case <-w.stop:
			return nil, false
		}
		s, err := dialSession(w.cfg, w.MasterEpoch())
		if err == nil {
			w.mu.Lock()
			w.conn = s.conn
			w.mu.Unlock()
			// Close may have raced the new dial; do not leak the session.
			if w.stopped() {
				_ = s.conn.Close()
				return nil, false
			}
			w.statsMu.Lock()
			w.reconnects++
			prevEpoch := w.lastEpoch
			w.lastEpoch = s.epoch
			w.statsMu.Unlock()
			if s.epoch != prevEpoch && prevEpoch != 0 {
				w.cfg.Logger.Info("swing worker: re-adopted by new master incarnation",
					"device", w.cfg.DeviceID, "prevEpoch", prevEpoch, "epoch", s.epoch)
			} else {
				w.cfg.Logger.Info("swing worker: rejoined",
					"device", w.cfg.DeviceID, "master", w.cfg.MasterAddr, "attempt", attempt)
			}
			return s, true
		}
		w.attemptsUsed++
		w.cfg.Logger.Warn("swing worker: reconnect failed",
			"device", w.cfg.DeviceID, "attempt", attempt, "err", err, "backoff", backoff)
		w.rediscover()
		if backoff *= 2; backoff > w.cfg.ReconnectMaxBackoff {
			backoff = w.cfg.ReconnectMaxBackoff
		}
	}
}

// rediscover listens (briefly) for a beacon from a newer master
// incarnation and retargets MasterAddr onto it. Called between failed
// reconnect dials: if the master the worker knew is gone for good, a
// promoted standby announcing under a bumped epoch is the only way
// forward, while stale beacons from the dead incarnation — or a zombie
// partitioned away from its own demotion — are filtered by epoch.
func (w *Worker) rediscover() {
	if w.cfg.DiscoverAddr == "" || w.stopped() {
		return
	}
	ann, err := discovery.ListenSince(w.cfg.DiscoverAddr, w.cfg.App.Name(),
		w.MasterEpoch()+1, w.cfg.DiscoverWindow)
	if err != nil || ann.Addr == w.cfg.MasterAddr {
		return
	}
	w.cfg.Logger.Info("swing worker: rediscovered master",
		"device", w.cfg.DeviceID, "addr", ann.Addr, "epoch", ann.Epoch)
	w.cfg.MasterAddr = ann.Addr
}

func (w *Worker) stopped() bool {
	select {
	case <-w.stop:
		return true
	default:
		return false
	}
}

// runSession serves one connection until it breaks or stops.
func (w *Worker) runSession(s *workerSession) {
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		w.readLoop(s)
	}()
	go func() {
		defer wg.Done()
		w.processLoop(s)
	}()
	go func() {
		defer wg.Done()
		w.sendLoop(s)
	}()
	go func() {
		defer wg.Done()
		w.statsLoop(s)
	}()
	wg.Wait()
	_ = s.conn.Close()
}

func (w *Worker) readLoop(s *workerSession) {
	defer close(s.dead)
	defer close(s.order)
	defer close(s.queue)
	for {
		typ, buf, err := wire.ReadFrameBuf(s.conn)
		if err != nil {
			return
		}
		var payload []byte
		if buf != nil {
			payload = buf.B
		}
		switch typ {
		case wire.FrameTupleBatch:
			// The only data frame. It decodes into one batch that owns the
			// frame buffer (every tuple's byte fields alias it) and takes
			// ONE handoff on each channel. Queue first, order second: every
			// batch the send loop waits on is then guaranteed to reach a
			// pool goroutine that will finish it.
			b, derr := w.decodeTupleBatch(payload)
			if derr != nil {
				w.cfg.Logger.Warn("swing worker: bad tuple batch", "err", derr)
			}
			if b == nil {
				buf.Release()
				continue
			}
			b.buf = buf
			select {
			case s.queue <- b:
			case <-w.stop:
				return
			case <-s.sendGone:
				return
			}
			select {
			case s.order <- b:
			case <-w.stop:
				return
			case <-s.sendGone:
				return
			}
			continue // buffer ownership moved to the batch
		case wire.FramePing:
			// Echo the payload verbatim: the pong is the master's proof of
			// life for this link, and a worker whose processing queue is
			// saturated can still answer from the read loop.
			if w.writeFrame(s, wire.FramePong, payload) != nil {
				buf.Release()
				return
			}
		case wire.FrameStop:
			s.sawStop = true
			buf.Release()
			return
		default:
			// Control frames after start are ignored.
		}
		buf.Release()
	}
}

// procBatch carries one decoded FrameTupleBatch through the worker: one
// pool slot runs its tuples in order and the send loop encodes their
// results in the same order. The slot publishes progress through done,
// the count of finished tuples (it only grows, from the front), and
// wakes the send loop through ready; the send loop walks a cursor behind
// done, so a result leaves as soon as it and its predecessors are
// finished, not when the whole batch is. Batches are pooled with their
// tuple block: an operator's input is valid only during ProcessData
// (graph.Processor), so nothing outlives the batch's last release.
type procBatch struct {
	tuples []tuple.Tuple // the frame's tuples, a prefix of block; their byte fields alias buf
	block  []tuple.Tuple // the tuple block, kept across uses
	res    []jobResult   // res[i] is tuples[i]'s verdict
	buf    *wire.Buf
	done   atomic.Int32
	// ready holds one wake-up token, so signals sent while the send loop
	// is busy merge. A token may be stale (the last signal of a previous
	// use of this batch can land after its reuse), so a waiter always
	// rechecks done.
	ready chan struct{}
	// refs is 1 for the batch plus one per watchdog reaper still waiting
	// on an abandoned chain that reads the frame; the last release
	// returns frame and batch to their pools.
	refs atomic.Int32
}

// jobResult is one tuple's verdict: its result tuples, or none for a
// lone ack or drop notice, and the processing time to report.
type jobResult struct {
	outs    []*tuple.Tuple
	proc    time.Duration
	dropped bool
	reason  wire.DropReason
	// one backs outs for the common one-result tuple, so it costs no
	// append allocation.
	one [1]*tuple.Tuple
}

var batchPool = sync.Pool{New: func() any {
	return &procBatch{ready: make(chan struct{}, 1)}
}}

// finish publishes that the batch's first n tuples are done and wakes
// the send loop. Once n covers the batch, the send loop may release and
// reuse the batch as soon as done moves; the wake-up sent after that is
// the stale token ready's comment allows for.
func (b *procBatch) finish(n int) {
	b.done.Store(int32(n))
	select {
	case b.ready <- struct{}{}:
	default:
	}
}

// release drops one reference; the last one — after every reader of the
// batch, a watchdog reaper's included — clears the tuple block and
// returns the frame and the batch to their pools. A block grown past
// maxPooledTupleBlock is left to the collector instead.
func (b *procBatch) release() {
	if b.refs.Add(-1) != 0 {
		return
	}
	b.buf.Release()
	clear(b.tuples)
	clear(b.res)
	if cap(b.block) > maxPooledTupleBlock {
		b.block = nil
	}
	b.tuples, b.res, b.buf = nil, b.res[:0], nil
	batchPool.Put(b)
}

// maxPooledTupleBlock caps the tuples a pooled batch's block may hold: a
// rare frame of thousands of tiny tuples should not pin its block in
// the pool forever.
const maxPooledTupleBlock = 1024

// minTupleBatchEntry is the smallest encoded FrameTupleBatch entry: a
// u32 length prefix plus a field-less tuple header.
const minTupleBatchEntry = 4 + tuple.MinEncodedSize

// decodeTupleBatch decodes a FrameTupleBatch payload into a batch,
// without per-tuple frame reads or copies — every tuple's byte fields
// alias the one frame buffer the caller still owns, and the tuples
// themselves live in the pooled batch's block. The frame's count prefix
// is untrusted: the block is sized by what the payload can actually
// hold. A decode error aborts the remainder (the tuples decoded so far
// still run); nil means none decoded.
func (w *Worker) decodeTupleBatch(payload []byte) (*procBatch, error) {
	count, err := wire.TupleBatchCount(payload)
	if err != nil {
		return nil, err
	}
	if fit := (len(payload) - 4) / minTupleBatchEntry; count > fit {
		count = fit
	}
	b := batchPool.Get().(*procBatch)
	if cap(b.block) < count {
		b.block = make([]tuple.Tuple, count)
	}
	block := b.block[:count]
	n := 0
	err = wire.DecodeTupleBatch(payload, func(entry []byte) error {
		if n == len(block) {
			return errShortTupleBlock
		}
		if terr := tuple.DecodeSharedInto(&block[n], entry); terr != nil {
			return terr
		}
		n++
		return nil
	})
	if n == 0 {
		batchPool.Put(b)
		return nil, err
	}
	// Capped at n: the batch's tuples end where the frame's do, whatever
	// the pooled block holds beyond them.
	b.tuples = block[:n:n]
	if cap(b.res) < n {
		b.res = make([]jobResult, n)
	}
	b.res = b.res[:n]
	b.done.Store(0)
	b.refs.Store(1)
	return b, err
}

// errShortTupleBlock rejects an entry beyond the block decodeTupleBatch
// sized from the payload length. Only a malformed frame gets there: the
// entry is too short to hold a tuple header, so it could not decode.
var errShortTupleBlock = errors.New("runtime: tuple batch holds more entries than its payload fits")

// collectEmitter gathers a processor's outputs.
type collectEmitter struct {
	out []*tuple.Tuple
}

var _ graph.Emitter = (*collectEmitter)(nil)

// Emit implements graph.Emitter.
func (c *collectEmitter) Emit(t *tuple.Tuple) error {
	c.out = append(c.out, t)
	return nil
}

// processLoop runs the session's processor pool: parallelism goroutines,
// each with its own operator chain (processors may be stateful, so pool
// members never share one), pulling batches off the shared queue and
// running each batch's tuples in order. Result order across batches is
// not this loop's problem — the send loop restores it. With a per-tuple
// deadline deployed, each slot runs its chain on a watchdogged child
// goroutine instead of inline.
func (w *Worker) processLoop(s *workerSession) {
	var wg sync.WaitGroup
	for i := 0; i < s.parallelism; i++ {
		chain := s.chain
		if i > 0 {
			c, err := buildChain(w.cfg.App, s.units)
			if err != nil {
				// The deploy-time build succeeded, so this cannot really
				// fail; degrade to the chains built so far.
				w.cfg.Logger.Warn("swing worker: build pool chain", "err", err)
				break
			}
			chain = c
		}
		wg.Add(1)
		go func(chain []graph.Processor) {
			defer wg.Done()
			if s.opDeadline > 0 {
				w.poolSlotWatchdog(s, chain)
				return
			}
			// Per-goroutine scratch, reused across tuples, keeps the hot
			// path allocation-free. Tuples are timed by one monotonic
			// clock read at each tuple boundary.
			var em collectEmitter
			var cur []*tuple.Tuple
			epoch := time.Now()
			for b := range s.queue {
				at, ok := time.Since(epoch), 0
				for i := range b.tuples {
					if i > 0 {
						b.finish(i)
					}
					r := &b.res[i]
					var panicked bool
					cur, panicked = w.runTuple(chain, &em, cur, &b.tuples[i], r)
					end := time.Since(epoch)
					r.proc = end - at
					if r.reason == wire.DropNone {
						ok++
						if w.cfg.SpeedFactor > 1 {
							r.proc = w.slowDown(r.proc)
							end = time.Since(epoch)
						}
					}
					at = end
					if panicked {
						chain = w.rebuildChain(s, chain)
					}
				}
				w.countProcessed(ok)
				b.finish(len(b.tuples))
			}
		}(chain)
	}
	wg.Wait()
}

// rebuildChain replaces a slot's operator chain after a panic: a
// processor that panicked may have corrupted its internal state, so it is
// never trusted with another tuple. Falls back to the old chain if the
// rebuild fails (which the deploy-time build proved it cannot).
func (w *Worker) rebuildChain(s *workerSession, old []graph.Processor) []graph.Processor {
	fresh, err := buildChain(w.cfg.App, s.units)
	if err != nil {
		w.cfg.Logger.Warn("swing worker: rebuild chain after panic", "err", err)
		return old
	}
	return fresh
}

// runTuple runs one tuple through an operator chain (the vertical
// pipeline slice), leaving its results and ACK verdict in r; timing it
// is the caller's job. Every consumed tuple is answered: a processor
// error or panic marks a typed drop notice, a filtered-out tuple leaves
// no outputs (a plain ack with DropFiltered) — so the master's in-flight
// tracker and latency estimate for this worker never go stale on a
// silent discard. Returns the (possibly regrown) scratch slice and
// whether a processor panicked (the caller must retire the chain).
func (w *Worker) runTuple(chain []graph.Processor, em *collectEmitter, scratch []*tuple.Tuple, t *tuple.Tuple, r *jobResult) ([]*tuple.Tuple, bool) {
	cur := append(scratch[:0], t)
	for _, p := range chain {
		em.out = em.out[:0]
		for _, in := range cur {
			err, panicked := w.safeProcess(p, em, in)
			if err != nil {
				w.cfg.Logger.Warn("swing worker: process", "err", err)
				w.statsMu.Lock()
				w.dropped++
				if panicked {
					w.panics++
				}
				w.statsMu.Unlock()
				r.dropped = true
				r.reason = wire.DropError
				if panicked {
					r.reason = wire.DropPanic
				}
				return cur, panicked
			}
		}
		cur = append(cur[:0], em.out...)
		if len(cur) == 0 {
			// A stage filtered the tuple out: legitimate, but still ack.
			r.reason = wire.DropFiltered
			return cur, false
		}
	}
	r.outs = append(r.one[:0], cur...)
	return cur, false
}

// slowDown emulates a slower device: it sleeps so that a tuple that took
// proc takes SpeedFactor times as long, and returns the stretched time.
func (w *Worker) slowDown(proc time.Duration) time.Duration {
	if w.cfg.SpeedFactor <= 1 {
		return proc
	}
	time.Sleep(time.Duration(float64(proc) * (w.cfg.SpeedFactor - 1)))
	return time.Duration(float64(proc) * w.cfg.SpeedFactor)
}

// countProcessed adds one batch's successfully processed tuples.
func (w *Worker) countProcessed(n int) {
	if n > 0 {
		w.statsMu.Lock()
		w.processed += int64(n)
		w.statsMu.Unlock()
	}
}

// safeProcess invokes one processor under the panic sandbox: a panicking
// operator becomes an error (and panicked=true) instead of killing the
// worker process.
func (w *Worker) safeProcess(p graph.Processor, em graph.Emitter, in *tuple.Tuple) (err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			err = fmt.Errorf("processor panic: %v", r)
		}
	}()
	err = p.ProcessData(em, in)
	return
}

// chainRun is a chain runner's verdict on one tuple. Its outs never
// alias the runner's scratch, so the parent may keep them.
type chainRun struct {
	jobResult
	panicked bool
}

// chainRunner is a pool slot's child goroutine in watchdog mode: it owns
// an operator chain and processes one tuple at a time. The tuple's byte
// fields alias the batch's frame; the runner only reads them. The parent
// abandons a runner (close(in), fresh runner spawned) when a tuple blows
// its deadline or panics; the abandoned runner exits as soon as its
// current chain invocation returns.
type chainRunner struct {
	in  chan *tuple.Tuple
	out chan chainRun // buffered(1): an abandoned runner never blocks here
}

func (w *Worker) spawnChainRunner(chain []graph.Processor) *chainRunner {
	r := &chainRunner{in: make(chan *tuple.Tuple), out: make(chan chainRun, 1)}
	go func() {
		var em collectEmitter
		var scratch []*tuple.Tuple
		for t := range r.in {
			var run chainRun
			begin := time.Now()
			scratch, run.panicked = w.runTuple(chain, &em, scratch, t, &run.jobResult)
			run.proc = time.Since(begin)
			if run.reason == wire.DropNone {
				run.proc = w.slowDown(run.proc)
			}
			r.out <- run
		}
	}()
	return r
}

// poolSlotWatchdog is a pool slot with the per-tuple deadline armed. The
// chain runs on a child goroutine; if it has not returned within
// opDeadline the slot reports the tuple as a DropDeadline notice, hands
// the (still running) child to a reaper that holds a reference on the
// batch — and so on its frame buffer — until, if ever, the child
// finishes, and replaces child and chain. A processor stuck forever
// therefore costs one leaked goroutine, not the worker process; a finite
// hang drains on its own.
func (w *Worker) poolSlotWatchdog(s *workerSession, chain []graph.Processor) {
	runner := w.spawnChainRunner(chain)
	defer func() {
		if runner != nil {
			close(runner.in)
		}
	}()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for b := range s.queue {
		ok := 0
		for i := range b.tuples {
			if i > 0 {
				b.finish(i)
			}
			t, r := &b.tuples[i], &b.res[i]
			runner.in <- t
			timer.Reset(s.opDeadline)
			select {
			case run := <-runner.out:
				if !timer.Stop() {
					<-timer.C
				}
				*r = run.jobResult
				r.outs = append(r.one[:0], run.outs...)
				if r.reason == wire.DropNone {
					ok++
				}
				if run.panicked {
					// runTuple already counted the panic; retire the chain
					// by retiring the whole runner (it owns the chain).
					close(runner.in)
					runner = w.respawnRunner(s)
				}
			case <-timer.C:
				w.cfg.Logger.Warn("swing worker: tuple blew processing deadline",
					"tuple", t.ID, "deadline", s.opDeadline)
				w.statsMu.Lock()
				w.dropped++
				w.deadlined++
				w.statsMu.Unlock()
				r.proc = s.opDeadline
				r.dropped = true
				r.reason = wire.DropDeadline
				// The child may still be inside the operator, reading tuple
				// bytes that alias the frame buffer: a reaper takes a
				// reference on the batch and releases it once the child
				// surfaces. Its release may be the batch's last.
				b.refs.Add(1)
				abandoned := runner
				go func() {
					select {
					case <-abandoned.out:
						b.release()
					case <-w.stop:
					}
				}()
				close(abandoned.in)
				runner = w.respawnRunner(s)
			case <-w.stop:
				return
			}
			if runner == nil {
				// Chain rebuild failed (cannot really happen — the deploy-time
				// build succeeded); degrade by retiring this slot.
				b.finish(i + 1)
				return
			}
		}
		w.countProcessed(ok)
		b.finish(len(b.tuples))
	}
}

// respawnRunner builds a fresh chain on a fresh runner, or nil if the
// chain cannot be rebuilt (the slot must then retire — an empty chain
// would echo inputs as outputs).
func (w *Worker) respawnRunner(s *workerSession) *chainRunner {
	fresh, err := buildChain(w.cfg.App, s.units)
	if err != nil {
		w.cfg.Logger.Warn("swing worker: rebuild chain", "err", err)
		return nil
	}
	return w.spawnChainRunner(fresh)
}

// Result-batch flush thresholds: a batch flushes when it crosses either,
// whatever the linger window says, bounding frame size and head-of-line
// wait behind a huge batch.
const (
	ackFlushBytes   = 256 << 10
	ackFlushEntries = 128
)

// sendLoop is the upstream writer: it walks a cursor through the
// arriving batches' tuples in arrival order and packs their results and
// acks into FrameResultBatch frames, releasing each batch after its last
// tuple. With AckLinger zero a result waits only for successors that are
// already finished (pure opportunistic batching); with a linger window d
// it may additionally wait up to d for stragglers, so a result's
// measured latency is inflated by at most d.
func (w *Worker) sendLoop(s *workerSession) {
	defer close(s.sendGone)
	var (
		batch wire.ResultBatch
		cur   *procBatch // the batch under the cursor; nil between batches
		next  int        // the cursor: cur's first unsent tuple
		timer *time.Timer
	)
	// add encodes the tuple under the cursor and advances it.
	add := func() {
		w.addResult(&batch, cur, next)
		if next++; next == len(cur.tuples) {
			cur.release()
			cur, next = nil, 0
		}
	}
	for {
		if cur == nil {
			var ok bool
			select {
			case cur, ok = <-s.order:
				if !ok {
					return
				}
			case <-w.stop:
				return
			}
		}
		// Head-of-line wait is unbounded: nothing may be sent before the
		// oldest tuple finishes anyway, or order would be lost.
		for cur.done.Load() <= int32(next) {
			select {
			case <-cur.ready:
			case <-w.stop:
				return
			}
		}
		add()
		var deadline <-chan time.Time
		if s.ackLinger > 0 {
			if timer == nil {
				timer = time.NewTimer(s.ackLinger)
			} else {
				timer.Reset(s.ackLinger)
			}
			deadline = timer.C
		}
	gather:
		for batch.Size() < ackFlushBytes && batch.Count() < ackFlushEntries {
			if cur == nil {
				var ok bool
				select {
				case cur, ok = <-s.order:
				default:
					if deadline == nil {
						break gather
					}
					select {
					case cur, ok = <-s.order:
					case <-deadline:
						deadline = nil
						break gather
					case <-w.stop:
						return
					}
				}
				if !ok {
					break gather // read loop closed the order channel
				}
			}
			for cur.done.Load() <= int32(next) {
				if deadline == nil {
					// Not finished and no linger budget: it heads the next
					// result frame.
					break gather
				}
				select {
				case <-cur.ready:
				case <-deadline:
					deadline = nil
					break gather
				case <-w.stop:
					return
				}
			}
			add()
		}
		if timer != nil && deadline != nil {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		if w.flushBatch(s, &batch) != nil {
			return
		}
	}
}

// addResult encodes tuple i of b — its result tuples, marshaled straight
// into the result frame, or a lone ack/drop notice.
func (w *Worker) addResult(batch *wire.ResultBatch, b *procBatch, i int) {
	t, r := &b.tuples[i], &b.res[i]
	meta := wire.ResultMeta{
		TupleID:   t.ID,
		Attempt:   t.Attempt,
		EmitNanos: t.EmitNanos,
		ProcNanos: int64(r.proc),
		Dropped:   r.dropped,
		Reason:    r.reason,
	}
	if len(r.outs) == 0 {
		batch.Add(meta, nil)
		return
	}
	for _, out := range r.outs {
		start := batch.Begin(meta)
		err := batch.Append(func(dst []byte) ([]byte, error) { return tuple.AppendMarshal(dst, out) })
		if err == nil {
			batch.End(start)
			continue
		}
		batch.Cancel(start)
		w.cfg.Logger.Warn("swing worker: marshal result", "err", err)
		w.statsMu.Lock()
		w.dropped++
		w.statsMu.Unlock()
		dm := meta
		dm.Dropped = true
		dm.Reason = wire.DropError
		batch.Add(dm, nil)
	}
}

// flushBatch writes the accumulated batch as one frame, straight from
// the buffer it was encoded in, and resets it.
func (w *Worker) flushBatch(s *workerSession, batch *wire.ResultBatch) error {
	frame := batch.Frame()
	if frame == nil {
		return nil
	}
	err := wire.CheckFrame(frame)
	if err == nil {
		s.writeMu.Lock()
		_, err = s.conn.Write(frame)
		s.writeMu.Unlock()
	}
	batch.Reset()
	return err
}

func (w *Worker) writeFrame(s *workerSession, typ wire.FrameType, payload []byte) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return wire.WriteFrame(s.conn, typ, payload)
}

func (w *Worker) statsLoop(s *workerSession) {
	period := s.reportEvery
	if period <= 0 {
		period = time.Second
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			w.statsMu.Lock()
			st := wire.Stats{
				DeviceID:   w.cfg.DeviceID,
				Processed:  w.processed,
				Dropped:    w.dropped,
				QueueLen:   len(s.queue),
				Reconnects: w.reconnects,
				Panics:     w.panics,
				Deadlined:  w.deadlined,
				UptimeMS:   time.Since(w.start).Milliseconds(),
			}
			w.statsMu.Unlock()
			b, err := wire.EncodeJSON(st)
			if err != nil {
				continue
			}
			if w.writeFrame(s, wire.FrameStats, b) != nil {
				return
			}
		case <-s.dead:
			return
		case <-w.stop:
			return
		}
	}
}

// Processed reports how many tuples this worker has completed.
func (w *Worker) Processed() int64 {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	return w.processed
}

// Dropped reports how many tuples this worker discarded on processor
// errors.
func (w *Worker) Dropped() int64 {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	return w.dropped
}

// Panics reports how many operator panics this worker's sandbox has
// recovered (each retired the panicking chain and dropped one tuple).
func (w *Worker) Panics() int64 {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	return w.panics
}

// Deadlined reports how many tuples the per-tuple watchdog abandoned.
func (w *Worker) Deadlined() int64 {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	return w.deadlined
}

// Reconnects reports how many times this worker has rejoined the master
// after a broken link.
func (w *Worker) Reconnects() int64 {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	return w.reconnects
}

// MasterEpoch reports the incarnation number of the master that deployed
// the current session; it advances when a reconnect lands on a restarted
// master (re-adoption) rather than the original one.
func (w *Worker) MasterEpoch() uint64 {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	return w.lastEpoch
}

// Close leaves the swarm: the connection closes (the master observes an
// abrupt leave) and all goroutines drain.
func (w *Worker) Close() error {
	w.once.Do(func() {
		close(w.stop)
		w.mu.Lock()
		conn := w.conn
		w.mu.Unlock()
		_ = conn.Close()
		<-w.done
	})
	return nil
}

// Err reports the worker's terminal failure, if any: non-nil once the
// reconnect budget is exhausted (wrapping ErrReconnectExhausted). A clean
// stop — master-initiated Stop, Close, or a link break with reconnection
// disabled — leaves it nil.
func (w *Worker) Err() error {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	return w.termErr
}

// Wait blocks until the worker has fully shut down: the master stopped
// it, the link broke with reconnection disabled, or the reconnect budget
// ran out. It returns the terminal failure from Err, so callers learn the
// difference between a clean stop and a worker that gave up rejoining.
func (w *Worker) Wait() error {
	<-w.done
	return w.Err()
}
