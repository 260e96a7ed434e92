// Package swing is the public API of the Swing framework — a reproduction
// of "Swing: Swarm Computing for Mobile Sensing" (ICDCS 2018). Swing
// aggregates a swarm of heterogeneous devices to collaboratively execute
// compute-intensive sensing applications expressed as dataflow graphs,
// managed by the paper's LRS algorithm (Latency-based Routing with worker
// Selection).
//
// The package exposes three layers:
//
//   - Application composition: build dataflow graphs with NewApp (or use
//     the paper's two evaluation apps, FaceRecognition and
//     VoiceTranslation).
//   - Simulated swarms: RunSim executes a deterministic discrete-event
//     model of the paper's nine-device wireless testbed; every figure and
//     table of the paper regenerates through RunExperiment.
//   - Live swarms: StartMaster / StartWorker run the same routing logic
//     over real TCP connections between processes or machines, with UDP
//     discovery via Announce / Discover.
//
// Quickstart (simulated):
//
//	app, _ := swing.FaceRecognition()
//	res, _ := swing.RunSim(swing.TestbedConfig(app, swing.LRS, 42, time.Minute))
//	fmt.Printf("throughput: %.1f FPS\n", res.ThroughputFPS)
package swing

import (
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/core"
	"github.com/swingframework/swing/internal/device"
	"github.com/swingframework/swing/internal/discovery"
	"github.com/swingframework/swing/internal/experiments"
	"github.com/swingframework/swing/internal/graph"
	"github.com/swingframework/swing/internal/netem"
	"github.com/swingframework/swing/internal/obs"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/runtime"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
)

// ---- Dataflow programming model (paper §IV-A) ----

// Tuple is the unit of data flowing along dataflow edges.
type Tuple = tuple.Tuple

// Value is a typed tuple field.
type Value = tuple.Value

// Tuple field constructors.
var (
	Bytes       = tuple.Bytes
	String      = tuple.String
	Int64       = tuple.Int64
	Float64     = tuple.Float64
	Bool        = tuple.Bool
	FloatMatrix = tuple.FloatMatrix
)

// NewTuple returns an empty tuple with the given identity.
func NewTuple(id, seq uint64) *Tuple { return tuple.New(id, seq) }

// Schema declares the tuple structure flowing along a graph edge.
type Schema = tuple.Schema

// SchemaBuilder composes a Schema.
type SchemaBuilder = tuple.SchemaBuilder

// NewSchema starts composing a tuple schema:
//
//	s, _ := swing.NewSchema().
//		Field("frame", swing.KindBytes).
//		Field("camera", swing.KindString).
//		Build()
func NewSchema() *SchemaBuilder { return tuple.NewSchema() }

// Field kinds for schemas and values.
const (
	KindBytes       = tuple.KindBytes
	KindString      = tuple.KindString
	KindInt64       = tuple.KindInt64
	KindFloat64     = tuple.KindFloat64
	KindBool        = tuple.KindBool
	KindFloatMatrix = tuple.KindFloatMatrix
)

// Emitter lets a function unit send result tuples downstream.
type Emitter = graph.Emitter

// Processor is the user-implemented body of a function unit.
type Processor = graph.Processor

// ProcessorFunc adapts a function to Processor.
type ProcessorFunc = graph.ProcessorFunc

// AppBuilder composes an application dataflow graph fluently.
type AppBuilder = graph.Builder

// UnitOption configures a unit added through an AppBuilder.
type UnitOption = graph.UnitOption

// Unit options.
var (
	WithWork        = graph.WithWork
	WithOutputScale = graph.WithOutputScale
	WithProcessor   = graph.WithProcessor
)

// NewApp starts composing an application graph, e.g.:
//
//	g, err := swing.NewApp("myapp").
//		Source("camera").
//		Operator("analyze", swing.WithWork(1.0)).
//		Sink("display").
//		Chain("camera", "analyze", "display").
//		Build()
func NewApp(name string) *AppBuilder { return graph.NewBuilder(name) }

// App bundles a dataflow graph with its workload parameters.
type App = apps.App

// FrameSource generates synthetic sensor frames.
type FrameSource = apps.FrameSource

// NewFrameSource returns a deterministic generator of frames of the given
// size.
func NewFrameSource(frameBytes int, seed uint64) *FrameSource {
	return apps.NewFrameSource(frameBytes, seed)
}

// FaceRecognition composes the paper's face recognition app: a 24 FPS
// video stream of 6 kB frames through detect and recognize stages.
func FaceRecognition() (*App, error) { return apps.FaceRecognition() }

// VoiceTranslation composes the paper's voice translation app: 72 kB
// audio frames through speech recognition and translation stages.
func VoiceTranslation() (*App, error) { return apps.VoiceTranslation() }

// ---- Resource management (paper §V) ----

// Policy selects a resource-management algorithm.
type Policy = routing.PolicyKind

// The five policies the paper compares (§VI-B).
const (
	// RR is round-robin over all downstreams — the data-center default.
	RR = routing.RR
	// PR routes probabilistically by processing delay, no selection.
	PR = routing.PR
	// LR routes probabilistically by end-to-end latency, no selection.
	LR = routing.LR
	// PRS is PR plus Worker Selection.
	PRS = routing.PRS
	// LRS is Swing's algorithm: Latency-based Routing with worker
	// Selection.
	LRS = routing.LRS
)

// ParsePolicy resolves a policy name ("RR", "PR", "LR", "PRS", "LRS").
func ParsePolicy(s string) (Policy, error) { return routing.ParsePolicy(s) }

// Policies lists all policies in the paper's order.
func Policies() []Policy { return routing.Policies() }

// RoutingConfig tunes the routing algorithm (EWMA factor, reconfigure
// period, probe cadence, selection headroom).
type RoutingConfig = routing.Config

// DefaultRoutingConfig returns the paper's operating parameters.
func DefaultRoutingConfig(p Policy) RoutingConfig { return routing.DefaultConfig(p) }

// ---- Devices and network (paper §III) ----

// DeviceProfile describes one device's compute capability and power model.
type DeviceProfile = device.Profile

// TestbedProfiles returns the paper's nine devices (A..I, Table I).
func TestbedProfiles() map[string]DeviceProfile { return device.TestbedProfiles() }

// WorkerIDs returns the worker device IDs B..I.
func WorkerIDs() []string { return device.WorkerIDs() }

// RSSI is a received signal strength in dBm.
type RSSI = netem.RSSI

// Signal regions used in the paper's experiments.
const (
	RSSIGood = netem.RSSIGood
	RSSIFair = netem.RSSIFair
	RSSIBad  = netem.RSSIBad
)

// Mobility yields a device's RSSI over time.
type Mobility = netem.Mobility

// StaticSignal is a Mobility that never moves.
type StaticSignal = netem.Static

// MobilityEpoch is one leg of a walk between signal regions.
type MobilityEpoch = netem.Epoch

// NewWalk builds a piecewise mobility trace (Figure 10's scenario).
func NewWalk(epochs []MobilityEpoch) (Mobility, error) { return netem.NewWalk(epochs) }

// ---- Simulated swarms ----

// SimConfig parameterizes a simulated swarm run.
type SimConfig = core.Config

// SimResult aggregates a simulated run's measurements.
type SimResult = core.Result

// SimScriptEvent schedules a membership change during a simulated run.
type SimScriptEvent = core.ScriptEvent

// Script actions.
const (
	ActionJoin  = core.ActionJoin
	ActionLeave = core.ActionLeave
)

// TestbedConfig returns the paper's §VI-B setup: the app on nine devices
// with A as source/master and B, C, D at weak-signal locations.
func TestbedConfig(app *App, p Policy, seed int64, duration time.Duration) SimConfig {
	return core.TestbedConfig(app, p, seed, duration)
}

// RunSim executes one deterministic simulated swarm run.
func RunSim(cfg SimConfig) (*SimResult, error) { return core.Run(cfg) }

// ---- Experiments (paper §III, §VI) ----

// ExperimentOptions configures a paper experiment.
type ExperimentOptions = experiments.Options

// ExperimentReport is a rendered experiment.
type ExperimentReport = experiments.Report

// Experiments lists the reproducible tables and figures.
func Experiments() []string { return experiments.Names() }

// RunExperiment regenerates one paper table or figure by name ("table1",
// "fig1", "fig2", "fig4" ... "fig10").
func RunExperiment(name string, opt ExperimentOptions) (*ExperimentReport, error) {
	return experiments.Run(name, opt)
}

// RunExperiments regenerates the named experiments, fanning independent
// simulation runs out across opt.Parallelism workers (0 = GOMAXPROCS,
// 1 = serial). Reports come back in name order and are byte-identical to
// the serial path: every run owns a private seeded engine.
func RunExperiments(names []string, opt ExperimentOptions) ([]*ExperimentReport, error) {
	return experiments.RunAll(names, opt)
}

// ---- Live swarms (paper §IV-B,C) ----

// Master coordinates a live swarm run.
type Master = runtime.Master

// MasterConfig configures StartMaster.
type MasterConfig = runtime.MasterConfig

// Worker executes the operator pipeline on a device.
type Worker = runtime.Worker

// WorkerConfig configures StartWorker.
type WorkerConfig = runtime.WorkerConfig

// LiveResult is one in-order playback delivery at the master's sink.
// Its Tuple is valid only during the OnResult call that delivers it: the
// master reuses a result frame's memory once the frame's last result has
// played. Call Tuple.Clone to keep one.
type LiveResult = runtime.Result

// MasterStats summarizes the master's side of a live run: the
// fault-tolerance ledger (every submitted tuple ends acked or shed, never
// silently lost) and the sink counters, embedded as the same records
// /status.json serves, plus the epoch, the submit dataplane's counters
// and the connected workers' liveness view.
type MasterStats = runtime.MasterStats

// WorkerStatus is one worker's health as the master sees it — failure
// detector state, circuit breaker position and the worker's latest
// self-reported queue/drop/reconnect counters — as the /status.json
// worker row, whose routing columns MasterStats leaves zero.
type WorkerStatus = runtime.WorkerStatus

// StartMaster launches a live master that accepts workers and routes
// submitted tuples. With MasterConfig.JournalPath set it first recovers
// the previous incarnation's state — ledger counters, warm routing
// estimates, and the un-acked backlog — from the write-ahead journal and
// checkpoint, then listens under a new epoch so reconnecting workers are
// re-adopted.
func StartMaster(cfg MasterConfig) (*Master, error) { return runtime.StartMaster(cfg) }

// FsyncMode selects how aggressively the master's write-ahead journal is
// flushed to stable storage (the -fsync flag of swingd).
type FsyncMode = runtime.FsyncMode

// Journal fsync policies.
const (
	// FsyncInterval (default) syncs every MasterConfig.FsyncEvery on a
	// goroutine of the journal's own: a power loss loses at most
	// FsyncEvery plus one sync of appends. Appends never wait for the
	// sync, only for pages it is writing back: on a journal-bound flood
	// (2 vCPUs) p99 is 7.3 ms where a sync inside the group commit gave
	// 23.5 ms, for 3% on p50.
	FsyncInterval = runtime.FsyncInterval
	// FsyncAlways syncs inside every group commit: zero loss window, and
	// every append waits for the disk.
	FsyncAlways = runtime.FsyncAlways
	// FsyncNever leaves flushing to the OS.
	FsyncNever = runtime.FsyncNever
)

// ParseFsyncMode resolves an fsync policy name ("always", "interval",
// "never").
func ParseFsyncMode(s string) (FsyncMode, error) { return runtime.ParseFsyncMode(s) }

// StartWorker joins a live swarm as a worker device.
func StartWorker(cfg WorkerConfig) (*Worker, error) { return runtime.StartWorker(cfg) }

// ErrReconnectExhausted is a worker's terminal failure: its reconnect
// attempt budget ran out without rejoining the master. Worker.Wait and
// Worker.Err return an error wrapping it.
var ErrReconnectExhausted = runtime.ErrReconnectExhausted

// ErrStaleMaster reports a worker's epoch fence firing: the dialed
// master is an older incarnation than the one that last deployed the
// worker — a zombie primary outlived by its promoted standby.
var ErrStaleMaster = runtime.ErrStaleMaster

// Standby is a hot-standby master: it tails a primary's write-ahead
// journal over the replication stream and promotes itself — running the
// ordinary crash-recovery path over its mirror, with a bumped epoch
// fencing out the dead primary — once the primary has been silent past
// StandbyConfig.TakeoverAfter.
type Standby = runtime.Standby

// StandbyConfig configures StartStandby.
type StandbyConfig = runtime.StandbyConfig

// StartStandby connects a hot standby to a primary master whose
// MasterConfig.ReplicateAddr is set. Promotion is signaled on the
// standby's Promoted channel.
func StartStandby(cfg StandbyConfig) (*Standby, error) { return runtime.StartStandby(cfg) }

// Transport abstracts the byte transport under the live runtime (default
// TCP); swap it for an in-memory network in tests or wrap it with fault
// injection.
type Transport = transport.Transport

// TCPTransport is the production transport over real sockets.
type TCPTransport = transport.TCP

// MemTransport is an in-process transport for tests and single-process
// demos.
type MemTransport = transport.Mem

// NewMemTransport returns an empty in-memory network.
func NewMemTransport() *MemTransport { return transport.NewMem() }

// FaultConfig parameterizes deterministic fault injection: frame drops,
// delays, mid-stream link breaks and dial failures, all driven by a
// seeded PRNG for reproducible resilience tests.
type FaultConfig = transport.FaultConfig

// WithFaults wraps a transport so every connection it creates injects the
// configured faults. Wrap only the endpoint under test to confine the
// faults to its links.
func WithFaults(inner Transport, cfg FaultConfig) Transport {
	return transport.WithFaults(inner, cfg)
}

// ---- Live network emulation (link shaping) ----

// Shape is the instantaneous condition of one shaped link direction:
// effective goodput, fixed delay, log-normal transmission jitter and
// frame-loss probability.
type Shape = transport.Shape

// Scenario scripts every link's Shape over experiment time; links are
// numbered in connection order on the shaped transport.
type Scenario = transport.Scenario

// ShapedTransport applies a Scenario's per-link conditions to every
// connection it creates — the live-runtime counterpart of the simulator's
// calibrated wireless model. Its Report method returns the per-link
// shaping totals as an inspectable artifact.
type ShapedTransport = transport.Shaped

// ShapingReport is a ShapedTransport's per-link accounting: frames,
// bytes, drops and injected delay per link.
type ShapingReport = transport.ShapingReport

// ShapeFromRSSI derives a link Shape from the calibrated 802.11n model:
// the RSSI→goodput curve, propagation delay and airtime jitter.
func ShapeFromRSSI(r RSSI) Shape { return transport.ShapeFromRSSI(r) }

// ParseScenario resolves a shaping scenario spec: the named packs
// "wifi-degrade[:leg]", "mobility[:leg]" and "flash-crowd[:leg]", or a
// custom trace "walk:<rssi>@<until>,..." applied to link 0 (the swingd
// -shape flag).
func ParseScenario(spec string) (Scenario, error) { return transport.ParseScenario(spec) }

// WithShaping wraps a transport with scenario-driven link shaping; seed
// drives every link's jitter and loss draws deterministically.
func WithShaping(inner Transport, scn Scenario, seed int64) *ShapedTransport {
	return transport.WithShaping(inner, scn, seed)
}

// ---- Master observability ----

// StatusSnapshot is one consistent sample of a live master's observable
// state: the exact fault-tolerance ledger (balanced on every sample), the
// sink, routing weights and probe budget, per-worker health and breaker
// state, and journal depths. Master.StatusSnapshot returns it; with
// MasterConfig.StatusAddr set, the master serves the same value over HTTP
// at /statusz (HTML; ?format=json for JSON) and /status.json.
type StatusSnapshot = obs.Snapshot

// StatusEvent is one entry of the master's ring-buffered event log
// (joins, leaves, evictions, breaker transitions, shed bursts, epoch
// changes), served at /events and returned by Master.Events.
type StatusEvent = obs.Event

// Announcement is a master discovery beacon.
type Announcement = discovery.Announcement

// Announcer periodically broadcasts a master's presence over UDP.
type Announcer = discovery.Announcer

// DiscoveryPort is the default UDP discovery port.
const DiscoveryPort = discovery.DefaultPort

// Announce starts broadcasting a master's address toward target (e.g.
// "255.255.255.255:17716") every period.
func Announce(target string, ann Announcement, period time.Duration) (*Announcer, error) {
	return discovery.NewAnnouncer(target, ann, period)
}

// Discover blocks until a master announcement for app arrives on the UDP
// listen address, or the timeout expires.
func Discover(listenAddr, app string, timeout time.Duration) (Announcement, error) {
	return discovery.Listen(listenAddr, app, timeout)
}

// DiscoverSince is Discover filtered by master incarnation: beacons with
// an epoch below minEpoch are ignored, so a worker re-discovering after a
// master crash cannot be steered back to the dead incarnation by stale
// datagrams.
func DiscoverSince(listenAddr, app string, minEpoch uint64, timeout time.Duration) (Announcement, error) {
	return discovery.ListenSince(listenAddr, app, minEpoch, timeout)
}
