package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/swingframework/swing/internal/device"
	"github.com/swingframework/swing/internal/graph"
	"github.com/swingframework/swing/internal/metrics"
	"github.com/swingframework/swing/internal/netem"
	"github.com/swingframework/swing/internal/reorder"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/sim"
)

// frameRec tracks one source frame end to end.
type frameRec struct {
	seq    uint64
	born   time.Duration
	tx     time.Duration // accumulated link delay (send queue + airtime)
	queue  time.Duration // accumulated worker input-queue wait
	proc   time.Duration // accumulated compute time
	worker string        // device that ran the first operator stage
}

// simTuple is the in-simulator representation of a data tuple: payload
// sizes and timestamps only; content is irrelevant to resource management.
type simTuple struct {
	seq      uint64
	size     int
	rec      *frameRec
	emitAt   time.Duration // timestamp attached by the sending upstream
	arriveAt time.Duration // arrival at the current instance
	from     *instState    // upstream instance, for the ACK path
	fromEdge string        // downstream unit id at the upstream's router
}

// pendingSend is an emit blocked on a full per-link send queue.
type pendingSend struct {
	t    *simTuple
	flow *flow
	inst *instState
}

// flow models one upstream-instance → downstream-instance connection: a
// bounded send queue (socket-buffer analog) drained through the sender
// device's radio. A full send queue blocks the sending instance — the
// TCP backpressure that turns one weak link into a pipeline stall.
type flow struct {
	from     *instState
	to       *instState
	outbox   []*simTuple
	inflight bool
	waiters  []*pendingSend
}

// instState is one function-unit instance activated on a device.
type instState struct {
	id    string
	unit  *graph.Unit
	dev   *devState
	alive bool

	queue    []*simTuple
	reserved int // delivery slots claimed by in-flight transmissions

	// downUnits caches the graph's downstream unit IDs for this unit —
	// Graph.Downstream returns a fresh copy per call, which the per-tuple
	// emit path cannot afford.
	downUnits []string
	// routers maps each downstream unit ID to this instance's router for
	// that edge.
	routers map[string]*routing.Router
	// inRate measures Λ, the instance's incoming tuple rate.
	inRate *metrics.RateMeter
	// pending lists emits blocked on full send queues; a non-empty list
	// stalls this instance's processing.
	pending []*pendingSend
	// inbound lists flows targeting this instance, retried when queue
	// space frees.
	inbound []*flow

	stopReconfig func()
}

func (i *instState) blocked() bool { return len(i.pending) > 0 }

func (i *instState) queueFull(cap int) bool {
	return len(i.queue)+i.reserved >= cap
}

// devState is one mobile device in the swarm.
type devState struct {
	id      string
	prof    device.Profile
	mob     netem.Mobility
	bg      float64
	radio   netem.Radio
	present bool

	instances []*instState

	busy     bool
	nextInst int // round-robin cursor over instances
	busyTime time.Duration
	lastBusy time.Duration
	utilEWMA float64

	lastTxBytes int64
	cpuJoules   float64
	wifiJoules  float64
	utilSum     float64
	utilSamples int

	processed  int64
	srcRouted  int64
	srcMeter   *metrics.RateMeter
	joinedAt   time.Duration
	presentFor time.Duration
}

// swarm is one simulation run in progress.
type swarm struct {
	cfg Config
	eng *sim.Engine
	rc  routing.Config

	devices map[string]*devState
	// unitInsts maps unit ID to its alive instances.
	unitInsts map[string][]*instState
	insts     map[string]*instState
	flows     map[string]*flow

	source *instState
	sink   *instState

	opUnits []string // operator unit IDs in topological order

	// Sink-side state.
	sinkMeter *metrics.RateMeter
	playback  *reorder.Ring[struct{}]

	// Counters.
	generated   int64
	delivered   int64
	droppedSrc  int64
	lostOnLeave int64

	// Aggregates.
	latency   metrics.Summary
	txSum     metrics.Summary
	queueSum  metrics.Summary
	procSum   metrics.Summary
	frames    []FrameStat
	frameRecs map[uint64]*frameRec

	thrSeries *metrics.Series
	srcSeries map[string]*metrics.Series
}

// Run executes one swarm experiment and returns its results.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rc := cfg.routingConfig()
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	s := &swarm{
		cfg:       cfg,
		eng:       sim.New(cfg.Seed),
		rc:        rc,
		devices:   make(map[string]*devState),
		unitInsts: make(map[string][]*instState),
		insts:     make(map[string]*instState),
		flows:     make(map[string]*flow),
		sinkMeter: metrics.NewRateMeter(time.Second),
		frameRecs: make(map[uint64]*frameRec),
		thrSeries: metrics.NewSeries("throughput"),
		srcSeries: make(map[string]*metrics.Series),
	}
	s.playback = reorder.New[struct{}](int(cfg.ReorderBuffer.Seconds() * cfg.InputFPS))
	if err := s.setup(); err != nil {
		return nil, err
	}
	if err := s.eng.RunUntil(cfg.Duration); err != nil {
		return nil, fmt.Errorf("core: simulation aborted: %w", err)
	}
	return s.finish(), nil
}

// setup builds devices, instances, flows and schedules the initial events.
func (s *swarm) setup() error {
	g := s.cfg.App.Graph
	s.opUnits = nil
	topo, err := g.TopoOrder()
	if err != nil {
		return err
	}
	for _, id := range topo {
		u, err := g.Unit(id)
		if err != nil {
			return err
		}
		if u.Role == graph.RoleOperator {
			s.opUnits = append(s.opUnits, id)
		}
	}

	// Devices for source, sink and initial workers; scripted devices are
	// created on demand at join time.
	s.ensureDevice(s.cfg.SourceDevice)
	s.ensureDevice(s.cfg.SinkDevice)

	// Source and sink instances.
	srcUnits := g.Sources()
	sinkUnits := g.Sinks()
	if len(srcUnits) != 1 || len(sinkUnits) != 1 {
		return fmt.Errorf("core: need exactly one source and sink, have %d/%d", len(srcUnits), len(sinkUnits))
	}
	srcUnit, err := g.Unit(srcUnits[0])
	if err != nil {
		return err
	}
	sinkUnit, err := g.Unit(sinkUnits[0])
	if err != nil {
		return err
	}
	s.sink = s.newInstance(sinkUnit, s.devices[s.cfg.SinkDevice])
	s.source = s.newInstance(srcUnit, s.devices[s.cfg.SourceDevice])

	for _, w := range s.cfg.Workers {
		s.addWorker(w)
	}

	// Frame generation at the input rate.
	period := time.Duration(float64(time.Second) / s.cfg.InputFPS)
	genCancel, err := s.eng.Every(period, s.generate)
	if err != nil {
		return err
	}
	_ = genCancel // generation runs for the whole experiment

	// Metrics sampling.
	if _, err := s.eng.Every(s.cfg.SampleInterval, s.sample); err != nil {
		return err
	}

	// Membership script.
	for _, ev := range s.cfg.Script {
		ev := ev
		s.eng.ScheduleAt(ev.At, func() {
			switch ev.Action {
			case ActionJoin:
				s.addWorker(ev.Device)
			case ActionLeave:
				s.removeWorker(ev.Device)
			}
		})
	}
	return nil
}

func (s *swarm) ensureDevice(id string) *devState {
	if d, ok := s.devices[id]; ok {
		return d
	}
	prof := s.cfg.Profiles[id]
	mob := netem.Mobility(netem.Static(netem.RSSIGood))
	if m, ok := s.cfg.Mobility[id]; ok && m != nil {
		mob = m
	}
	d := &devState{
		id:       id,
		prof:     prof,
		mob:      mob,
		bg:       s.cfg.BackgroundLoad[id],
		present:  true,
		srcMeter: metrics.NewRateMeter(time.Second),
		joinedAt: s.eng.Now(),
	}
	s.devices[id] = d
	s.srcSeries[id] = metrics.NewSeries(id)
	return d
}

func instID(unit, dev string) string { return unit + "@" + dev }

// chainLocally reports whether an edge between two concrete instances
// should exist. With local chaining (the default, matching the paper's
// Figure 3 deployment where each worker hosts a vertical slice of the
// pipeline), operator→operator edges connect only colocated instances;
// edges touching the source or sink always connect.
func (s *swarm) chainLocally(from, to *instState) bool {
	if s.cfg.CrossChaining {
		return true
	}
	if from.unit.Role != graph.RoleOperator || to.unit.Role != graph.RoleOperator {
		return true
	}
	return from.dev == to.dev
}

// newInstance activates a function unit on a device and wires its routers
// to all alive downstream instances.
func (s *swarm) newInstance(u *graph.Unit, d *devState) *instState {
	inst := &instState{
		id:        instID(u.ID, d.id),
		unit:      u,
		dev:       d,
		alive:     true,
		downUnits: s.cfg.App.Graph.Downstream(u.ID),
		routers:   make(map[string]*routing.Router),
		inRate:    metrics.NewRateMeter(time.Second),
	}
	for _, down := range inst.downUnits {
		r, err := routing.NewRouter(s.rc, s.eng.Rand())
		if err != nil {
			// Config was validated in Run; a failure here is a bug.
			panic(fmt.Sprintf("core: router: %v", err))
		}
		for _, di := range s.unitInsts[down] {
			if s.chainLocally(inst, di) {
				_ = r.AddDownstream(di.id)
			}
		}
		inst.routers[down] = r
	}
	// Existing upstream instances learn about the newcomer.
	for _, up := range s.cfg.App.Graph.Upstream(u.ID) {
		for _, ui := range s.unitInsts[up] {
			if r := ui.routers[u.ID]; r != nil && s.chainLocally(ui, inst) {
				_ = r.AddDownstream(inst.id)
			}
		}
	}
	d.instances = append(d.instances, inst)
	s.unitInsts[u.ID] = append(s.unitInsts[u.ID], inst)
	s.insts[inst.id] = inst

	// Periodic reconfiguration from measured Λ (paper: every 1 s).
	if len(inst.routers) > 0 {
		cancel, err := s.eng.Every(s.rc.ReconfigurePeriod, func() {
			if !inst.alive {
				return
			}
			lambda := inst.inRate.WindowRate(s.eng.Now())
			if inst == s.source {
				lambda = s.cfg.InputFPS
			}
			for _, r := range inst.routers {
				r.Reconfigure(lambda)
			}
		})
		if err != nil {
			panic(fmt.Sprintf("core: reconfigure timer: %v", err))
		}
		inst.stopReconfig = cancel
	}
	return inst
}

// addWorker activates all operator units on the device (join workflow).
// A device that left earlier rejoins with fresh instances.
func (s *swarm) addWorker(id string) {
	d := s.ensureDevice(id)
	if d.present && len(d.instances) > 0 {
		// Idempotent join of an already-active worker.
		alive := false
		for _, inst := range d.instances {
			if inst.alive {
				alive = true
				break
			}
		}
		if alive {
			return
		}
	}
	d.present = true
	d.joinedAt = s.eng.Now()
	// Prune instances from a previous membership; their routing edges
	// were removed at leave detection.
	if len(d.instances) > 0 {
		live := d.instances[:0]
		for _, inst := range d.instances {
			if inst.alive {
				live = append(live, inst)
			} else {
				delete(s.insts, inst.id)
			}
		}
		d.instances = live
	}
	for _, uid := range s.opUnits {
		if inst, exists := s.insts[instID(uid, id)]; exists && inst.alive {
			continue
		}
		u, err := s.cfg.App.Graph.Unit(uid)
		if err != nil {
			continue
		}
		s.newInstance(u, d)
	}
}

// removeWorker abruptly terminates a worker (leave workflow): queued and
// in-flight tuples are lost; upstreams detect the broken link after
// LeaveDetectDelay and reroute.
func (s *swarm) removeWorker(id string) {
	d, ok := s.devices[id]
	if !ok || !d.present {
		return
	}
	d.present = false
	d.presentFor += s.eng.Now() - d.joinedAt
	for _, inst := range d.instances {
		if !inst.alive {
			continue
		}
		inst.alive = false
		if inst.stopReconfig != nil {
			inst.stopReconfig()
		}
		// Queued tuples die with the device.
		s.lostOnLeave += int64(len(inst.queue))
		inst.queue = nil
		// Emits blocked at this device die too.
		s.lostOnLeave += int64(len(inst.pending))
		inst.pending = nil
		// Outgoing send queues from this device are gone. The flow
		// entries themselves are purged so a future rejoin (same
		// instance IDs, fresh instances) starts with clean connections.
		for key, f := range s.flows {
			if f.from == inst {
				s.lostOnLeave += int64(len(f.outbox))
				f.outbox = nil
				f.waiters = nil
				delete(s.flows, key)
			}
		}
		s.dropInstance(inst)
	}
	// Upstreams keep routing to the dead device until detection fires.
	s.eng.Schedule(s.cfg.LeaveDetectDelay, func() { s.detectLeave(d) })
}

// dropInstance removes the instance from the alive index.
func (s *swarm) dropInstance(inst *instState) {
	list := s.unitInsts[inst.unit.ID]
	for idx, x := range list {
		if x == inst {
			s.unitInsts[inst.unit.ID] = append(list[:idx], list[idx+1:]...)
			break
		}
	}
}

// detectLeave is the delayed broken-connection detection: upstreams remove
// the departed instances from routing tables and flush their send queues;
// blocked emits are re-routed to surviving workers.
func (s *swarm) detectLeave(d *devState) {
	for _, dead := range d.instances {
		for _, up := range s.cfg.App.Graph.Upstream(dead.unit.ID) {
			for _, ui := range s.unitInsts[up] {
				if r := ui.routers[dead.unit.ID]; r != nil && r.Has(dead.id) {
					_ = r.RemoveDownstream(dead.id)
				}
			}
		}
		// Flush flows pointed at the dead instance and re-route waiters.
		keys := make([]string, 0, len(s.flows))
		for k, f := range s.flows {
			if f.to == dead {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, key := range keys {
			f := s.flows[key]
			s.lostOnLeave += int64(len(f.outbox))
			f.outbox = nil
			waiters := f.waiters
			f.waiters = nil
			delete(s.flows, key)
			for _, w := range waiters {
				if !w.inst.alive {
					continue
				}
				w.inst.removePending(w)
				s.dispatch(w.inst, w.t, w.t.fromEdge)
				s.devTryStart(w.inst.dev)
			}
		}
	}
}

func (i *instState) removePending(p *pendingSend) {
	for idx, x := range i.pending {
		if x == p {
			i.pending = append(i.pending[:idx], i.pending[idx+1:]...)
			return
		}
	}
}

// generate produces one source frame per input period.
func (s *swarm) generate() {
	now := s.eng.Now()
	seq := uint64(s.generated)
	s.generated++
	rec := &frameRec{seq: seq, born: now}
	s.frameRecs[seq] = rec
	t := &simTuple{
		seq:  seq,
		size: s.cfg.App.FrameBytes,
		rec:  rec,
	}
	s.source.inRate.Tick(now)
	if s.source.queueFull(s.cfg.SourceBacklogCap) {
		s.droppedSrc++
		delete(s.frameRecs, seq)
		return
	}
	t.arriveAt = now
	s.source.queue = append(s.source.queue, t)
	s.devTryStart(s.source.dev)
}

// devTryStart starts the device's processor on the next runnable instance,
// cycling instances round-robin — the OS time-slices unit threads fairly,
// so a saturated upstream stage cannot starve its downstream neighbor.
func (s *swarm) devTryStart(d *devState) {
	if d.busy || !d.present {
		return
	}
	var pick *instState
	n := len(d.instances)
	for i := 0; i < n; i++ {
		inst := d.instances[(d.nextInst+i)%n]
		if !inst.alive || inst.blocked() || len(inst.queue) == 0 {
			continue
		}
		pick = inst
		d.nextInst = (d.nextInst + i + 1) % n
		break
	}
	if pick == nil {
		return
	}
	t := pick.queue[0]
	pick.queue = pick.queue[1:]
	s.notifyInbound(pick)

	now := s.eng.Now()
	t.rec.queue += now - t.arriveAt
	delay := s.processingDelay(d, pick.unit)
	d.busy = true
	s.eng.Schedule(delay, func() { s.finishProcessing(d, pick, t, delay) })
}

// processingDelay computes the compute time for one tuple on the device,
// including background load, thermal throttling and execution noise.
func (s *swarm) processingDelay(d *devState, u *graph.Unit) time.Duration {
	if u.Work <= 0 {
		return 0
	}
	base := d.prof.ProcessingDelay(u.Work, d.bg)
	mult := 1 + s.cfg.ThermalFactor*d.utilEWMA
	if s.cfg.ProcNoiseSigma > 0 {
		mult *= math.Exp(s.cfg.ProcNoiseSigma * s.eng.Rand().NormFloat64())
	}
	return time.Duration(float64(base) * mult)
}

// finishProcessing completes one tuple: account, ACK upstream, emit
// downstream and pick up the next tuple.
func (s *swarm) finishProcessing(d *devState, inst *instState, t *simTuple, procDelay time.Duration) {
	d.busy = false
	if !inst.alive {
		// Device left mid-processing; the tuple is lost.
		s.lostOnLeave++
		return
	}
	d.busyTime += procDelay
	d.processed++
	t.rec.proc += procDelay
	if t.rec.worker == "" {
		t.rec.worker = d.id
	}
	s.ack(t, procDelay, inst)

	// Emit the stage result toward each downstream unit, in graph edge
	// order for determinism.
	outSize := t.size
	if inst.unit.OutputScale > 0 {
		outSize = int(float64(t.size) * inst.unit.OutputScale)
	}
	if outSize < 16 {
		outSize = 16 // headers dominate tiny results
	}
	for _, down := range inst.downUnits {
		if inst.routers[down] == nil {
			continue
		}
		out := &simTuple{seq: t.seq, size: outSize, rec: t.rec}
		s.dispatch(inst, out, down)
	}
	s.devTryStart(d)
}

// ack returns the tuple's ACK to its upstream, carrying the original
// timestamp and measured processing delay (§V-B). at is the instance
// acknowledging (the tuple's current holder).
func (s *swarm) ack(t *simTuple, procDelay time.Duration, at *instState) {
	up := t.from
	if up == nil {
		return
	}
	ackDelay := netem.PropagationDelay
	if up.dev == at.dev {
		ackDelay = 0 // in-process acknowledgment
	}
	toID := at.id
	edge := t.fromEdge
	emitAt := t.emitAt
	s.eng.Schedule(ackDelay, func() {
		if !up.alive {
			return
		}
		r := up.routers[edge]
		if r == nil {
			return
		}
		_ = r.ObserveAck(toID, s.eng.Now()-emitAt, procDelay, s.eng.Now())
	})
}

// dispatch routes a tuple from an instance toward one downstream unit.
func (s *swarm) dispatch(from *instState, t *simTuple, downUnit string) {
	r := from.routers[downUnit]
	if r == nil {
		return
	}
	targetID, err := r.RouteAvoiding(func(id string) bool {
		to, ok := s.insts[id]
		if !ok || !to.alive {
			return true
		}
		f := s.flow(from, to)
		return len(f.outbox) >= s.cfg.OutboxCap
	})
	if err != nil {
		// No downstream available (all workers gone): the tuple waits
		// nowhere — it is lost.
		s.lostOnLeave++
		return
	}
	target, ok := s.insts[targetID]
	if !ok || !target.alive {
		s.lostOnLeave++
		return
	}
	t.emitAt = s.eng.Now()
	t.from = from
	t.fromEdge = downUnit

	if from == s.source {
		target.dev.srcRouted++
		target.dev.srcMeter.Tick(s.eng.Now())
	}

	f := s.flow(from, target)
	if len(f.outbox) >= s.cfg.OutboxCap {
		p := &pendingSend{t: t, flow: f, inst: from}
		from.pending = append(from.pending, p)
		f.waiters = append(f.waiters, p)
		return
	}
	f.outbox = append(f.outbox, t)
	s.tryDrain(f)
}

func (s *swarm) flow(from, to *instState) *flow {
	key := from.id + ">" + to.id
	f, ok := s.flows[key]
	if !ok {
		f = &flow{from: from, to: to}
		s.flows[key] = f
		to.inbound = append(to.inbound, f)
	}
	return f
}

// tryDrain advances a flow: one in-flight transmission at a time, gated by
// the receiver's queue space and the sender's shared radio.
func (s *swarm) tryDrain(f *flow) {
	if f.inflight || len(f.outbox) == 0 || !f.to.alive || !f.from.dev.present {
		return
	}
	isSink := f.to == s.sink
	if !isSink && f.to.queueFull(s.cfg.QueueCap) {
		return // retried via notifyInbound when the receiver dequeues
	}
	t := f.outbox[0]
	f.outbox = f.outbox[1:]
	s.resumeWaiters(f)
	if !isSink {
		f.to.reserved++
	}

	now := s.eng.Now()
	if f.from.dev == f.to.dev {
		// In-process handoff between colocated units: no radio.
		s.eng.Schedule(0, func() { s.deliver(f, t) })
		f.inflight = true
		return
	}
	rssi := f.from.dev.mob.RSSIAt(now)
	if r2 := f.to.dev.mob.RSSIAt(now); r2 < rssi {
		rssi = r2
	}
	// Radio occupancy uses the MAC airtime rate (gentle degradation);
	// end-to-end flow pacing uses the TCP-level goodput (collapses at
	// weak signal). A weak link therefore slows its own flow long before
	// it saturates the sender's radio.
	jitter := netem.JitterMultiplier(s.eng.Rand().NormFloat64())
	airtime := time.Duration(float64(netem.AirTime(t.size, rssi)) * jitter)
	flowTime := time.Duration(float64(netem.TxTime(t.size, rssi)) * jitter)
	_, airEnd := f.from.dev.radio.Reserve(now, airtime, t.size)
	deliverAt := now + flowTime
	if airEnd > deliverAt {
		deliverAt = airEnd
	}
	f.inflight = true
	s.eng.ScheduleAt(deliverAt+netem.PropagationDelay, func() { s.deliver(f, t) })
}

// resumeWaiters moves blocked emits into freed send-queue space.
func (s *swarm) resumeWaiters(f *flow) {
	for len(f.waiters) > 0 && len(f.outbox) < s.cfg.OutboxCap {
		p := f.waiters[0]
		f.waiters = f.waiters[1:]
		if !p.inst.alive {
			continue
		}
		p.inst.removePending(p)
		p.t.emitAt = s.eng.Now() // timestamp re-attached at actual send
		f.outbox = append(f.outbox, p.t)
		s.devTryStart(p.inst.dev)
	}
}

// deliver lands a tuple at its target instance.
func (s *swarm) deliver(f *flow, t *simTuple) {
	f.inflight = false
	now := s.eng.Now()
	defer s.tryDrain(f)

	if !f.to.alive {
		s.lostOnLeave++
		return
	}
	t.rec.tx += now - t.emitAt
	t.arriveAt = now
	if f.to == s.sink {
		s.sinkArrive(t)
		return
	}
	f.to.reserved--
	f.to.queue = append(f.to.queue, t)
	f.to.inRate.Tick(now)
	s.devTryStart(f.to.dev)
}

// notifyInbound retries flows blocked on the instance's queue space.
func (s *swarm) notifyInbound(inst *instState) {
	for _, f := range inst.inbound {
		s.tryDrain(f)
	}
}

// sinkArrive records a frame's arrival at the sink and runs the reorder
// buffer (§IV-C "Reordering Service", Figure 8).
func (s *swarm) sinkArrive(t *simTuple) {
	now := s.eng.Now()
	s.delivered++
	s.sinkMeter.Tick(now)
	rec := t.rec
	latency := now - rec.born
	s.latency.ObserveDuration(latency)
	s.txSum.ObserveDuration(rec.tx)
	s.queueSum.ObserveDuration(rec.queue)
	s.procSum.ObserveDuration(rec.proc)
	s.ack(t, 0, s.sink)

	if s.cfg.KeepFrameRecords {
		s.frames = append(s.frames, FrameStat{
			Seq:          t.seq,
			BornAt:       rec.born,
			SinkAt:       now,
			Latency:      latency,
			Transmission: rec.tx,
			Queuing:      rec.queue,
			Processing:   rec.proc,
			Worker:       rec.worker,
		})
	}
	delete(s.frameRecs, t.seq)

	// Reorder buffer: play in sequence; when the buffer overflows, give
	// up on the missing frames and jump to the earliest buffered one.
	// Frames arriving after playback has passed them are late and never
	// played (they were already counted as skipped).
	s.playback.Arrive(t.seq, struct{}{})
	for {
		seq, _, ok := s.playback.Play()
		if !ok {
			break
		}
		if s.cfg.KeepFrameRecords {
			s.markPlayed(seq, now)
		}
	}
}

// markPlayed stamps the playback time on a kept frame record.
func (s *swarm) markPlayed(seq uint64, at time.Duration) {
	for i := len(s.frames) - 1; i >= 0; i-- {
		if s.frames[i].Seq == seq {
			s.frames[i].PlayAt = at
			return
		}
	}
}

// sample integrates per-device utilisation, power and the timeline series.
func (s *swarm) sample() {
	now := s.eng.Now()
	sec := s.cfg.SampleInterval.Seconds()
	ids := make([]string, 0, len(s.devices))
	for id := range s.devices {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		d := s.devices[id]
		busy := d.busyTime - d.lastBusy
		d.lastBusy = d.busyTime
		busyFrac := float64(busy) / float64(s.cfg.SampleInterval)
		if busyFrac > 1 {
			busyFrac = 1
		}
		overhead := 0.0
		if d.present && s.hasActiveOperator(d) {
			// The paper measures ~14% per-device framework overhead
			// (§VI-B2); a share is fixed service cost, charged here.
			overhead = 0.06
		}
		util := busyFrac + d.bg + overhead
		if util > 1 {
			util = 1
		}
		d.utilSum += util
		d.utilSamples++
		d.utilEWMA = 0.5*d.utilEWMA + 0.5*(busyFrac+d.bg)

		appUtil := busyFrac + overhead
		if appUtil > 1 {
			appUtil = 1
		}
		txDelta := d.radio.TxBytes() - d.lastTxBytes
		d.lastTxBytes = d.radio.TxBytes()
		txRate := float64(txDelta*8) / sec
		d.cpuJoules += d.prof.Power.CPUDynPower(appUtil) * sec
		d.wifiJoules += d.prof.Power.WiFiDynPower(txRate) * sec

		s.srcSeries[d.id].Add(now, d.srcMeter.WindowRate(now))
	}
	s.thrSeries.Add(now, s.sinkMeter.WindowRate(now))
}

func (s *swarm) hasActiveOperator(d *devState) bool {
	for _, inst := range d.instances {
		if inst.alive && inst.unit.Role == graph.RoleOperator {
			return true
		}
	}
	return false
}

// finish assembles the Result.
func (s *swarm) finish() *Result {
	dur := s.cfg.Duration
	res := &Result{
		App:              s.cfg.App.Name(),
		Policy:           s.cfg.Policy.String(),
		Duration:         dur,
		Generated:        s.generated,
		Delivered:        s.delivered,
		DroppedAtSource:  s.droppedSrc,
		LostOnLeave:      s.lostOnLeave,
		SkippedByReorder: s.playback.Skipped(),
		ThroughputFPS:    float64(s.delivered) / dur.Seconds(),
		Latency:          s.latency,
		Transmission:     s.txSum,
		Queuing:          s.queueSum,
		Processing:       s.procSum,
		Devices:          make(map[string]*DeviceStats, len(s.devices)),
		Throughput:       s.thrSeries,
		SourceInput:      s.srcSeries,
		Frames:           s.frames,
	}
	agg := 0.0
	ids := make([]string, 0, len(s.devices))
	for id := range s.devices {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		d := s.devices[id]
		if d.present {
			d.presentFor += s.eng.Now() - d.joinedAt
		}
		util := 0.0
		if d.utilSamples > 0 {
			util = d.utilSum / float64(d.utilSamples)
		}
		cpuW := d.cpuJoules / dur.Seconds()
		wifiW := d.wifiJoules / dur.Seconds()
		res.Devices[id] = &DeviceStats{
			Device:         id,
			CPUUtil:        util,
			SourceInputFPS: float64(d.srcRouted) / dur.Seconds(),
			TxBytes:        d.radio.TxBytes(),
			CPUPowerW:      cpuW,
			WiFiPowerW:     wifiW,
			EnergyJ:        d.cpuJoules + d.wifiJoules,
			Processed:      d.processed,
			PresentFor:     d.presentFor,
		}
		agg += cpuW + wifiW
	}
	res.AggregatePowerW = agg
	if agg > 0 {
		res.FPSPerWatt = res.ThroughputFPS / agg
	}
	return res
}
