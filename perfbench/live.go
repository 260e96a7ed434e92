package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/device"
	"github.com/swingframework/swing/internal/graph"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/runtime"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
)

// workerSpec is one in-process worker: its device ID and how long its
// operator sleeps per tuple before echoing it (0 for a passthrough).
type workerSpec struct {
	id    string
	sleep time.Duration
}

// liveSpec describes one live-swarm workload. A closed loop (window > 0)
// submits batch tuples per SubmitBatch call while fewer than window are
// unplayed; an open loop (rate > 0) submits one tuple per Submit call on
// a fixed schedule of rate tuples per second.
type liveSpec struct {
	name        string
	tcp         bool
	journal     bool
	policy      routing.PolicyKind
	workers     []workerSpec
	frameBytes  int
	parallelism int
	batch       int
	window      int
	rate        float64
	// warmup is the number of tuples played before the first measured op.
	warmup int
	// setupTrials is how many times a run sets the swarm up; setup_s is
	// the median.
	setupTrials int
	// flood workloads must finish with zero shed and zero retransmitted
	// tuples.
	flood bool
}

var floodMemSpec = liveSpec{
	name:        "flood-mem",
	policy:      routing.RR,
	workers:     passthroughWorkers(2),
	frameBytes:  600,
	batch:       256,
	window:      4096,
	warmup:      64 * 256,
	setupTrials: 7,
	flood:       true,
}

var floodJournalSpec = liveSpec{
	name:        "flood-journal-tcp",
	tcp:         true,
	journal:     true,
	policy:      routing.RR,
	workers:     passthroughWorkers(2),
	frameBytes:  600,
	batch:       256,
	window:      4096,
	warmup:      64 * 256,
	setupTrials: 7,
	flood:       true,
}

// Stream workload parameters. Each testbed worker sleeps its Table I
// delay divided by streamDelayDivisor, so the fastest device (H) takes
// 17.8 ms and the slowest (E) 115.9 ms. At streamRate LRS needs the three
// fastest workers (Σ 1/L ≈ 154/s ≥ 130/s, while the two fastest give only
// ≈ 106/s), and streamParallelism keeps each selected worker far from
// saturation so queueing does not inflate its latency estimate and flip
// the selection. Probe tuples to slow workers then stall in-order
// playback for about 3% of tuples, clearly above the 1% a p99 resolves.
const (
	streamDelayDivisor = 4
	streamRate         = 130
	streamParallelism  = 4
)

var streamSpec = liveSpec{
	name:        "stream-lrs-tcp",
	tcp:         true,
	policy:      routing.LRS,
	workers:     testbedWorkers(streamDelayDivisor),
	frameBytes:  6000,
	parallelism: streamParallelism,
	batch:       1,
	rate:        streamRate,
	warmup:      2 * streamRate,
	setupTrials: 3,
}

func passthroughWorkers(n int) []workerSpec {
	ws := make([]workerSpec, n)
	for i := range ws {
		ws[i] = workerSpec{id: fmt.Sprintf("w%d", i+1)}
	}
	return ws
}

// testbedWorkers returns the paper's workers B–I, each sleeping its
// Table I face-recognition delay divided by divisor.
func testbedWorkers(divisor float64) []workerSpec {
	profiles := device.TestbedProfiles()
	var ws []workerSpec
	for _, id := range device.WorkerIDs() {
		d := profiles[id].ProcessingDelay(1, 0)
		ws = append(ws, workerSpec{id: id, sleep: time.Duration(float64(d) / divisor)})
	}
	return ws
}

// app builds the workload's application: source → op → sink, where op
// sleeps for sleep and echoes its input tuple unchanged. Master and
// workers each build their own copy under the same name. TargetFPS sizes
// the sink's reorder buffer to one second of input; the closed loop uses
// a rate no window can overflow.
func (spec *liveSpec) app(sleep time.Duration) (*apps.App, error) {
	g, err := graph.NewBuilder(spec.name).
		Source("src").
		Operator("op",
			graph.WithWork(0.001),
			graph.WithProcessor(func() graph.Processor {
				return graph.ProcessorFunc(func(em graph.Emitter, t *tuple.Tuple) error {
					if sleep > 0 {
						time.Sleep(sleep)
					}
					return em.Emit(t)
				})
			})).
		Sink("sink").
		Chain("src", "op", "sink").
		Build()
	if err != nil {
		return nil, err
	}
	fps := spec.rate
	if fps == 0 {
		fps = 100_000
	}
	return &apps.App{Graph: g, FrameBytes: spec.frameBytes, TargetFPS: fps, TotalWork: 0.001}, nil
}

// payloadCount distinct frame payloads are generated per run; tuple seq
// carries payload seq % payloadCount. Few enough that the pool stays a
// small part of the live heap the benchmark reports.
const payloadCount = 64

// The due-time table is a ring indexed by sequence number. It must hold
// every submitted-but-unplayed tuple: the closed loop keeps at most
// window in flight and the open loop about a second of input; an
// overwritten slot fails the correctness gate rather than skewing a
// latency.
const (
	ringBits = 13
	ringMask = 1<<ringBits - 1
)

// dueSlot holds one tuple's due time (nanoseconds since the swarm's base)
// and its sequence number plus one, so a slot reused by a later tuple or
// never written is detected instead of read.
type dueSlot struct {
	seq atomic.Uint64
	at  atomic.Int64
}

// wakeEvery is how many plays pass between wake-ups of a waiting closed
// loop generator.
const wakeEvery = 256

// swarm is one running master with its workers and the harness state
// around it: the generator's tuple source and the sink-side recorders.
type swarm struct {
	spec    *liveSpec
	m       *runtime.Master
	workers []*runtime.Worker
	faulty  *transport.Faulty
	jdir    string
	spans   *spanLog
	base    time.Time

	payloads [payloadCount][]byte
	digests  [payloadCount]uint64
	due      [1 << ringBits]dueSlot
	lat      *slicedHist

	// Generator state, owned by the generator goroutine.
	next     uint64
	batchBuf []*tuple.Tuple
	dueBase  time.Duration
	dueIdx   int64

	winSeq    atomic.Uint64 // first measured sequence number
	played    atomic.Int64
	playedWin atomic.Int64
	bad       atomic.Int64 // digest or due-table mismatches
	wake      chan struct{}
}

func newSwarm(spec *liveSpec, seed int64, spans *spanLog) *swarm {
	s := &swarm{
		spec:     spec,
		spans:    spans,
		batchBuf: make([]*tuple.Tuple, spec.batch),
		wake:     make(chan struct{}, 1),
	}
	s.winSeq.Store(math.MaxUint64)
	x := uint64(seed)*0x9e3779b97f4a7c15 + 1
	for i := range s.payloads {
		p := make([]byte, spec.frameBytes)
		for j := 0; j+8 <= len(p); j += 8 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			binary.LittleEndian.PutUint64(p[j:], x)
		}
		s.payloads[i] = p
		s.digests[i] = digest(p)
	}
	return s
}

// digest is a word-at-a-time FNV-style hash, cheap enough to run on every
// played tuple.
func digest(b []byte) uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325) ^ uint64(len(b))
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// startSwarm starts a master and the spec's workers, waits until all of
// them joined, and plays the warm-up tuples. The returned duration runs
// from StartMaster to the first measured op. With faulty set the
// transport is wrapped in a zero-fault transport.WithFaults so its write
// counters can be read.
func startSwarm(spec *liveSpec, seed int64, spans *spanLog, faulty bool) (*swarm, time.Duration, error) {
	s := newSwarm(spec, seed, spans)
	masterApp, err := spec.app(0)
	if err != nil {
		return nil, 0, err
	}
	workerApps := make([]*apps.App, len(spec.workers))
	for i, ws := range spec.workers {
		if workerApps[i], err = spec.app(ws.sleep); err != nil {
			return nil, 0, err
		}
	}
	var tr transport.Transport = transport.NewMem()
	addr := "perfbench-master"
	if spec.tcp {
		tr, addr = transport.TCP{}, "127.0.0.1:0"
	}
	if faulty {
		s.faulty = transport.WithFaults(tr, transport.FaultConfig{Seed: seed})
		tr = s.faulty
	}
	cfg := runtime.MasterConfig{
		App:         masterApp,
		Policy:      spec.policy,
		ListenAddr:  addr,
		Transport:   tr,
		Parallelism: spec.parallelism,
		OnResult:    s.onResult,
		Seed:        seed,
		Logger:      quietLogger,
	}
	if spec.journal {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return nil, 0, err
		}
		if s.jdir, err = os.MkdirTemp(".bench_build", "journal-"); err != nil {
			return nil, 0, err
		}
		cfg.JournalPath = filepath.Join(s.jdir, "journal")
		// A checkpoint stalls the dataplane for a moment. One per second
		// puts five in every latency stretch, so the share of tuples they
		// delay is the same in each stretch and sits well above the 1% a
		// p99 resolves; a period that does not divide the stretch makes
		// p99 jump with the checkpoint count. Compacting this often also
		// keeps the journal file small. The fsync interval keeps its
		// default.
		cfg.CheckpointEvery = time.Second
	}

	s.base = time.Now()
	if s.m, err = runtime.StartMaster(cfg); err != nil {
		s.close()
		return nil, 0, err
	}
	for i, ws := range spec.workers {
		w, err := runtime.StartWorker(runtime.WorkerConfig{
			DeviceID:   ws.id,
			MasterAddr: s.m.Addr(),
			App:        workerApps[i],
			Transport:  tr,
			Seed:       seed + int64(i),
			Logger:     quietLogger,
		})
		if err != nil {
			s.close()
			return nil, 0, err
		}
		s.workers = append(s.workers, w)
	}
	for deadline := time.Now().Add(10 * time.Second); len(s.m.Workers()) < len(spec.workers); {
		if time.Now().After(deadline) {
			s.close()
			return nil, 0, errors.New("workers did not all join within 10 s")
		}
		time.Sleep(time.Millisecond)
	}
	if spec.window > 0 {
		s.closedLoop(spec.warmup, time.Time{})
		if !s.waitPlayed(10 * time.Second) {
			s.close()
			return nil, 0, errors.New("warm-up tuples were not all played within 10 s")
		}
		return s, time.Since(s.base), nil
	}
	s.dueBase = time.Since(s.base)
	s.openLoop(spec.warmup, 0)
	return s, s.nextDue(), nil
}

func (s *swarm) close() {
	if s.m != nil {
		_ = s.m.Close()
	}
	for _, w := range s.workers {
		_ = w.Close()
	}
	if s.jdir != "" {
		_ = os.RemoveAll(s.jdir)
	}
}

// onResult is the sink callback: it checks the played tuple's payload
// against the digest of the payload it was built from, and for measured
// tuples records latency from the tuple's due time.
func (s *swarm) onResult(r runtime.Result) {
	now := int64(time.Since(s.base))
	seq := r.Tuple.SeqNo
	sampled := s.spans != nil && seq%onResultSampleEvery == 0
	var t0 int64
	if sampled {
		t0 = s.spans.now()
	}
	v, err := r.Tuple.Get(apps.FieldFrame)
	b, ok := v.AsBytes()
	if err != nil || !ok || digest(b) != s.digests[seq%payloadCount] {
		s.bad.Add(1)
	}
	if seq >= s.winSeq.Load() {
		slot := &s.due[seq&ringMask]
		if slot.seq.Load() != seq+1 {
			s.bad.Add(1)
		} else {
			due := slot.at.Load()
			s.lat.record(time.Duration(due), time.Duration(now-due))
		}
		s.playedWin.Add(1)
	}
	if p := s.played.Add(1); p%wakeEvery == 0 {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	if sampled {
		parent := seq
		if n := uint64(s.spec.batch); n > 1 {
			parent = seq / n * n
		}
		s.spans.add(spanOnResult, seq, parent, t0, s.spans.now())
	}
}

// fill builds len(batch) fresh tuples due at the given time.
func (s *swarm) fill(batch []*tuple.Tuple, due time.Duration) {
	for i := range batch {
		seq := s.next
		s.next++
		t := tuple.New(seq, seq)
		t.Set(apps.FieldFrame, tuple.Bytes(s.payloads[seq%payloadCount]))
		slot := &s.due[seq&ringMask]
		slot.at.Store(int64(due))
		slot.seq.Store(seq + 1)
		batch[i] = t
	}
}

// submit hands one batch to the master, through Submit for a single
// tuple and SubmitBatch otherwise.
func (s *swarm) submit(batch []*tuple.Tuple) {
	var t0 int64
	if s.spans != nil {
		t0 = s.spans.now()
	}
	// A refused tuple is never played, so it counts as failed; the
	// error itself adds nothing to that.
	kind := spanSubmitBatch
	if len(batch) == 1 {
		kind = spanSubmit
		_ = s.m.Submit(batch[0])
	} else {
		_ = s.m.SubmitBatch(batch)
	}
	if s.spans != nil {
		s.spans.add(kind, batch[0].SeqNo, 0, t0, s.spans.now())
	}
}

// closedLoop submits n tuples, or until the deadline when n is 0, never
// letting more than the spec's window go unplayed.
func (s *swarm) closedLoop(n int, until time.Time) {
	batch := s.batchBuf
	poll := time.NewTicker(5 * time.Millisecond)
	defer poll.Stop()
	for sent := 0; ; {
		if n > 0 && sent >= n || n == 0 && !time.Now().Before(until) {
			return
		}
		if int(int64(s.next)-s.played.Load())+len(batch) > s.spec.window {
			select {
			case <-s.wake:
			case <-poll.C:
			}
			continue
		}
		s.fill(batch, time.Since(s.base))
		s.submit(batch)
		sent += len(batch)
	}
}

// nextDue is the open loop's next scheduled send time since the base.
func (s *swarm) nextDue() time.Duration {
	return s.dueBase + time.Duration(float64(s.dueIdx)*float64(time.Second)/s.spec.rate)
}

// openLoop submits n tuples, or every tuple due before until when n is
// 0, each at its scheduled time; a late generator sends immediately and
// the lateness counts in the tuple's latency.
func (s *swarm) openLoop(n int, until time.Duration) {
	batch := s.batchBuf[:1]
	for sent := 0; n == 0 || sent < n; sent++ {
		due := s.nextDue()
		if n == 0 && due >= until {
			return
		}
		if d := due - time.Since(s.base); d > 0 {
			time.Sleep(d)
		}
		s.fill(batch, due)
		s.submit(batch)
		s.dueIdx++
	}
}

// waitPlayed waits until every submitted tuple has been played.
func (s *swarm) waitPlayed(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for s.played.Load() < int64(s.next) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// window is what one measured window produced.
type window struct {
	elapsed     time.Duration
	ops         int64
	attempted   int64
	failed      int64
	p50, p99    float64 // ms
	cpuPerOp    float64 // µs
	allocsPerOp float64
	heapP90     float64 // MB
}

// measure runs the generator for d, drains the swarm, and checks the
// correctness gates at quiescence.
func (s *swarm) measure(d time.Duration, g *gate) window {
	first := s.next
	start := time.Now()
	s.lat = newSlicedHist(start.Sub(s.base), d)
	s.winSeq.Store(first)
	ws := startWindowSampler(d, s.played.Load)
	if s.spec.window > 0 {
		s.closedLoop(0, start.Add(d))
	} else {
		s.openLoop(0, start.Sub(s.base)+d)
	}
	w := ws.finish()

	g.check(s.waitPlayed(10*time.Second), "%s: %d of %d submitted tuples not played 10 s after the window",
		s.spec.name, int64(s.next)-s.played.Load(), s.next)
	led := s.m.StatusSnapshot().Ledger
	g.check(led.Balanced && led.CheckBalance(), "%s: ledger unbalanced at quiescence: %+v", s.spec.name, led)
	g.check(led.InFlight == 0 && led.Retransmitting == 0, "%s: not quiescent: %+v", s.spec.name, led)
	g.check(s.bad.Load() == 0, "%s: %d played tuples failed the payload digest or due-table check", s.spec.name, s.bad.Load())
	if s.spec.flood {
		g.check(led.Shed == 0 && led.Retransmitted == 0, "%s: shed=%d retransmitted=%d, want 0", s.spec.name, led.Shed, led.Retransmitted)
	}

	w.attempted = int64(s.next - first)
	w.failed = w.attempted - s.playedWin.Load()
	q := s.lat.quantiles(0.50, 0.99)
	w.p50, w.p99 = q[0]/1e6, q[1]/1e6
	return w
}

func (w window) opsPerSec() float64 { return float64(w.ops) / w.elapsed.Seconds() }

// outcome reports the window's end-to-end metrics with the set-up time.
func (w window) outcome(setup float64, g *gate) *outcome {
	ms := metricSet{
		"setup_s":          setup,
		"ops_per_s":        w.opsPerSec(),
		"latency_p50_ms":   w.p50,
		"latency_p99_ms":   w.p99,
		"cpu_us_per_op":    w.cpuPerOp,
		"allocs_per_op":    w.allocsPerOp,
		"heap_live_p90_mb": w.heapP90,
	}
	return &outcome{Correct: g.ok(), Attempted: w.attempted, Failed: w.failed, Metrics: ms.render(endToEnd)}
}

func runLive(spec *liveSpec, cfg runConfig) (*outcome, error) {
	// Set up setupTrials times and measure on the last swarm; setup_s is
	// the median.
	var (
		s     *swarm
		setup = make([]float64, 0, spec.setupTrials)
	)
	for i := 0; ; i++ {
		sw, d, err := startSwarm(spec, cfg.seed, nil, false)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
		if i == spec.setupTrials-1 {
			s = sw
			break
		}
		sw.close()
	}
	var g gate
	w := s.measure(cfg.seconds, &g)
	s.close()
	return w.outcome(median(setup), &g), nil
}
