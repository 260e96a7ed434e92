// Command swingd runs a live Swing node: a master that coordinates a
// swarm and streams sensed frames into it, or a worker that joins a
// master and contributes compute. Nodes find each other via UDP discovery
// or an explicit address.
//
// Usage:
//
//	swingd -role master -app facerec -listen :7716 [-fps 24] [-duration 30s]
//	swingd -role worker -id B [-master host:7716] [-speed 2.0]
//
// With no -master, a worker listens for the master's UDP announcement.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	swing "github.com/swingframework/swing"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "swingd:", err)
		os.Exit(1)
	}
}

// masterOpts collects the master-role flags.
type masterOpts struct {
	listen, policy, announce string
	fps                      float64
	duration                 time.Duration
	retryDeadline            time.Duration
	maxAttempts              int
	heartbeat                time.Duration
	suspectAfter             time.Duration
	deadAfter                time.Duration
	breakerThreshold         int
	breakerCooldown          time.Duration
	breakerAckTimeout        time.Duration
	inflightHighWater        int
	shards                   int
	parallelism              int
	linger                   time.Duration
	opDeadline               time.Duration
	poisonAttempts           int
	hedgeAfter               time.Duration
	statusEvery              time.Duration
	statusAddr               string
	pprof                    bool
	submitBatch              int
	submitLinger             time.Duration
	journal                  string
	checkpointEvery          time.Duration
	fsync                    string
	replicateAddr            string
	standby                  bool
	takeoverAfter            time.Duration
	transport                swing.Transport
	shaped                   *swing.ShapedTransport
}

// workerOpts collects the worker-role flags.
type workerOpts struct {
	id, master, discover string
	speed                float64
	reconnect            bool
	reconnectBackoff     time.Duration
	reconnectAttempts    int
	transport            swing.Transport
}

func run(args []string) error {
	fs := flag.NewFlagSet("swingd", flag.ContinueOnError)
	var (
		role     = fs.String("role", "", "master or worker")
		appName  = fs.String("app", "facerec", "application (facerec or voicetrans)")
		listen   = fs.String("listen", ":7716", "master: control/data listen address")
		policyN  = fs.String("policy", "LRS", "master: routing policy")
		fps      = fs.Float64("fps", 24, "master: source frame rate")
		duration = fs.Duration("duration", 30*time.Second, "master: streaming duration (0 = until interrupted)")
		announce = fs.String("announce", "", "master: UDP discovery target, e.g. 255.255.255.255:17716")
		retryDL  = fs.Duration("retry-deadline", 3*time.Second, "master: how long a tuple may still be retransmitted after its worker dies")
		maxTries = fs.Int("max-attempts", 3, "master: total transmission attempts per tuple, first included")

		// Liveness and overload protection (master).
		heartbeat = fs.Duration("heartbeat", 500*time.Millisecond, "master: liveness ping period per worker (0 = no failure detector)")
		suspectN  = fs.Duration("suspect-after", 0, "master: silence before a worker is marked suspect (0 = 3x heartbeat)")
		deadN     = fs.Duration("dead-after", 0, "master: silence before a hung worker is evicted (0 = 6x heartbeat)")
		brThresh  = fs.Int("breaker-threshold", 5, "master: consecutive failures that open a worker's circuit breaker (0 = no breakers)")
		brCool    = fs.Duration("breaker-cooldown", 2*time.Second, "master: how long an open breaker blocks a worker before the half-open probe")
		brAckTO   = fs.Duration("breaker-ack-timeout", 0, "master: unacked-tuple age counted as a breaker failure (0 = drops alone drive breakers)")
		inflHW    = fs.Int("inflight-high-water", 0, "master: in-flight tuples beyond which Submit sheds oldest-first instead of blocking (0 = block on backpressure)")

		// Failure containment (master).
		opDL      = fs.Duration("op-deadline", 0, "master: per-tuple operator deadline deployed to every worker; a hung chain is abandoned as a deadline drop (0 = no watchdog)")
		poisonAtt = fs.Int("poison-attempts", 0, "master: distinct workers a tuple may burn with drop notices before it is quarantined as poison (0 = no quarantine)")
		hedgeAft  = fs.Duration("hedge-after", 0, "master: age past which a straggling in-flight tuple is speculatively duplicated to a second worker, floored by 2x the worker's recent p95 latency (0 = no hedging)")
		statusEv  = fs.Duration("status-every", 5*time.Second, "master: period of the status log line (0 = silent)")
		statusAdr = fs.String("status-addr", "", "master: HTTP observability endpoint address serving /statusz, /status.json and /events (empty = off; \":0\" picks a free port)")
		pprofF    = fs.Bool("pprof", false, "master: mount net/http/pprof under /debug/pprof/ on the -status-addr listener (requires -status-addr)")

		// Live network emulation (master; shapes the downlink of every
		// accepted worker connection).
		shapeSpec = fs.String("shape", "", "master: link-shaping scenario: wifi-degrade[:leg], mobility[:leg], flash-crowd[:leg], or walk:<rssi>@<until>,... (empty = off)")
		shapeSeed = fs.Int64("shape-seed", 1, "master: PRNG seed for shaping jitter and loss draws")

		// Dataplane tuning (master; deployed to every worker).
		shards   = fs.Int("shards", 0, "master: hot-state shard count, rounded up to a power of two and capped at 128 (0 = GOMAXPROCS)")
		parallel = fs.Int("parallelism", 0, "master: worker processor-pool width deployed to every worker (0 = worker GOMAXPROCS)")
		linger   = fs.Duration("linger", 0, "master: worker ack/result batching window; a result may wait up to this long to share a frame (0 = opportunistic batching only)")
		subBatch = fs.Int("submit-batch", 1, "master: source-side submit batch size; frames accumulate into one SubmitBatch of up to this many tuples (1 = one Submit per tuple, sent as a batch of one)")
		subLing  = fs.Duration("submit-linger", 0, "master: submit-side linger window; a partial submit batch flushes after waiting at most this long for more frames (0 = flush only on a full batch)")

		// Crash recovery (master).
		journalP = fs.String("journal", "", "master: write-ahead journal path enabling crash recovery (empty = off); a restart with the same path resumes the previous incarnation")
		ckptEv   = fs.Duration("checkpoint-every", 10*time.Second, "master: checkpoint + journal compaction period (<0 = recovery/close checkpoints only)")
		fsyncM   = fs.String("fsync", "interval", "master: journal fsync policy: always, interval or never")

		// Hot-standby failover (master).
		replAddr = fs.String("replicate-addr", "", "master: hot-standby replication address — the replication listen address on a primary; with -standby, the primary's replication address to dial (empty = off)")
		standbyF = fs.Bool("standby", false, "master: run as a hot standby instead of a primary: mirror the journal streamed from -replicate-addr and promote when the primary goes silent (requires -journal)")
		takeover = fs.Duration("takeover-after", 2*time.Second, "standby: primary silence before the standby promotes itself")
		id       = fs.String("id", "", "worker: device id")
		master   = fs.String("master", "", "worker: master address (empty = discover via UDP)")
		discover = fs.String("discover", fmt.Sprintf(":%d", swing.DiscoveryPort), "worker: UDP discovery listen address")
		speed    = fs.Float64("speed", 1, "worker: artificial slowdown factor (>= 1)")
		rejoin   = fs.Bool("reconnect", false, "worker: rejoin the master with backoff after a broken link")
		rejoinBO = fs.Duration("reconnect-backoff", 50*time.Millisecond, "worker: initial reconnect delay (doubles per failure)")
		rejoinN  = fs.Int("reconnect-attempts", 0, "worker: cumulative failed rejoins before giving up; the budget refills after a session survives 30s (0 = forever)")

		// Fault injection (for resilience drills; off by default).
		faultSeed      = fs.Int64("fault-seed", 1, "fault injection: PRNG seed for deterministic replay")
		faultDropNth   = fs.Int("fault-drop-nth", 0, "fault injection: drop every Nth written frame")
		faultDelay     = fs.Duration("fault-delay", 0, "fault injection: fixed per-frame write delay")
		faultJitter    = fs.Duration("fault-jitter", 0, "fault injection: extra uniform random per-frame delay")
		faultBreak     = fs.Int("fault-break-after", 0, "fault injection: break the link after N written frames")
		faultDialFails = fs.Int("fault-dial-failures", 0, "fault injection: fail the first N dial attempts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Contradictory flag combinations fail loudly with usage instead of
	// silently misbehaving at runtime (a standby that never mirrors, a
	// takeover timer nothing reads, a shaping pack that does not exist).
	if *standbyF && *replAddr == "" {
		return usageErr(fs, "-standby needs -replicate-addr (the primary's replication address to mirror)")
	}
	if *standbyF && *journalP == "" {
		return usageErr(fs, "-standby needs -journal (the mirrored journal lives there)")
	}
	if !*standbyF && flagSet(fs, "takeover-after") {
		return usageErr(fs, "-takeover-after only applies to a -standby master")
	}
	if *shapeSpec != "" {
		if _, err := swing.ParseScenario(*shapeSpec); err != nil {
			return usageErr(fs, "bad -shape: %v", err)
		}
	}
	if *pprofF && *statusAdr == "" {
		return usageErr(fs, "-pprof needs -status-addr (the profiling handlers mount on that listener)")
	}
	if *subBatch < 1 {
		return usageErr(fs, "-submit-batch must be >= 1")
	}
	if *subLing > 0 && *subBatch <= 1 {
		return usageErr(fs, "-submit-linger only applies with -submit-batch > 1")
	}
	app, err := loadApp(*appName)
	if err != nil {
		return err
	}
	faults := faultTransport(swing.FaultConfig{
		Seed:             *faultSeed,
		DropEveryNth:     *faultDropNth,
		Delay:            *faultDelay,
		Jitter:           *faultJitter,
		BreakAfterFrames: *faultBreak,
		DialFailures:     *faultDialFails,
	})
	switch *role {
	case "master":
		opt := masterOpts{
			listen: *listen, policy: *policyN, announce: *announce,
			fps: *fps, duration: *duration,
			retryDeadline: *retryDL, maxAttempts: *maxTries,
			heartbeat: *heartbeat, suspectAfter: *suspectN, deadAfter: *deadN,
			breakerThreshold: *brThresh, breakerCooldown: *brCool, breakerAckTimeout: *brAckTO,
			inflightHighWater: *inflHW, shards: *shards, parallelism: *parallel, linger: *linger,
			submitBatch: *subBatch, submitLinger: *subLing,
			opDeadline: *opDL, poisonAttempts: *poisonAtt, hedgeAfter: *hedgeAft,
			statusEvery: *statusEv, statusAddr: *statusAdr, pprof: *pprofF,
			journal: *journalP, checkpointEvery: *ckptEv, fsync: *fsyncM,
			replicateAddr: *replAddr, standby: *standbyF, takeoverAfter: *takeover,
			transport: faults,
		}
		if *shapeSpec != "" {
			scn, err := swing.ParseScenario(*shapeSpec)
			if err != nil {
				return err
			}
			inner := opt.transport
			if inner == nil {
				inner = swing.TCPTransport{}
			}
			opt.shaped = swing.WithShaping(inner, scn, *shapeSeed)
			opt.transport = opt.shaped
		}
		return runMaster(app, opt)
	case "worker":
		return runWorker(app, workerOpts{
			id: *id, master: *master, discover: *discover, speed: *speed,
			reconnect: *rejoin, reconnectBackoff: *rejoinBO, reconnectAttempts: *rejoinN,
			transport: faults,
		})
	default:
		return fmt.Errorf("missing or invalid -role %q (master or worker)", *role)
	}
}

// flagSet reports whether the named flag was explicitly set on the
// command line (as opposed to resting at its default).
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// usageErr prints the flag usage and returns the validation error, so a
// contradictory invocation exits non-zero with the full flag reference.
func usageErr(fs *flag.FlagSet, format string, args ...any) error {
	fs.Usage()
	return fmt.Errorf(format, args...)
}

// faultTransport wraps the production TCP transport with fault injection
// when any fault is configured; with none it returns nil so the runtime
// keeps its default transport.
func faultTransport(cfg swing.FaultConfig) swing.Transport {
	if cfg.DropEveryNth == 0 && cfg.Delay == 0 && cfg.Jitter == 0 &&
		cfg.BreakAfterFrames == 0 && cfg.DialFailures == 0 {
		return nil
	}
	return swing.WithFaults(swing.TCPTransport{}, cfg)
}

func loadApp(name string) (*swing.App, error) {
	switch name {
	case "facerec":
		return swing.FaceRecognition()
	case "voicetrans":
		return swing.VoiceTranslation()
	default:
		return nil, fmt.Errorf("unknown app %q", name)
	}
}

func runMaster(app *swing.App, opt masterOpts) error {
	policy, err := swing.ParsePolicy(opt.policy)
	if err != nil {
		return err
	}
	fsync, err := swing.ParseFsyncMode(opt.fsync)
	if err != nil {
		return err
	}
	delivered := 0
	cfg := swing.MasterConfig{
		App:               app,
		Policy:            policy,
		ListenAddr:        opt.listen,
		Transport:         opt.transport,
		StatusAddr:        opt.statusAddr,
		StatusPprof:       opt.pprof,
		RetryDeadline:     opt.retryDeadline,
		MaxAttempts:       opt.maxAttempts,
		Heartbeat:         opt.heartbeat,
		SuspectAfter:      opt.suspectAfter,
		DeadAfter:         opt.deadAfter,
		BreakerThreshold:  opt.breakerThreshold,
		BreakerCooldown:   opt.breakerCooldown,
		BreakerAckTimeout: opt.breakerAckTimeout,
		InflightHighWater: opt.inflightHighWater,
		OpDeadline:        opt.opDeadline,
		PoisonAttempts:    opt.poisonAttempts,
		HedgeAfter:        opt.hedgeAfter,
		Shards:            opt.shards,
		Parallelism:       opt.parallelism,
		AckLinger:         opt.linger,
		JournalPath:       opt.journal,
		CheckpointEvery:   opt.checkpointEvery,
		Fsync:             fsync,
		OnResult: func(r swing.LiveResult) {
			delivered++
			if delivered%24 == 0 {
				result, _ := r.Tuple.MustString("result")
				fmt.Printf("frame %d: %q from %s (latency %s)\n",
					r.Tuple.SeqNo, result, r.Worker, r.Latency.Round(time.Millisecond))
			}
		},
	}
	if opt.standby {
		return runStandby(app, opt, cfg)
	}
	cfg.ReplicateAddr = opt.replicateAddr
	m, err := swing.StartMaster(cfg)
	if err != nil {
		return err
	}
	if opt.replicateAddr != "" {
		fmt.Println("replication listener on", opt.replicateAddr)
	}
	return serveMaster(app, opt, m)
}

// runStandby mirrors a primary until it dies, then serves the swarm as
// the promoted master. The promoted master announces under its bumped
// epoch, so workers rediscovering the swarm home onto it and ignore
// stale beacons from the dead incarnation.
func runStandby(app *swing.App, opt masterOpts, cfg swing.MasterConfig) error {
	if opt.replicateAddr == "" {
		return fmt.Errorf("-standby needs -replicate-addr (the primary's replication address)")
	}
	if opt.journal == "" {
		return fmt.Errorf("-standby needs -journal (the mirror lives there)")
	}
	// The promoted master does not re-open a replication listener: on a
	// one-host drill it would collide with the dead primary's address.
	cfg.ReplicateAddr = ""
	sb, err := swing.StartStandby(swing.StandbyConfig{
		PrimaryAddr:   opt.replicateAddr,
		TakeoverAfter: opt.takeoverAfter,
		Master:        cfg,
	})
	if err != nil {
		return err
	}
	fmt.Printf("standby mirroring primary at %s (takeover after %s of silence)\n",
		opt.replicateAddr, opt.takeoverAfter)

	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	select {
	case <-interrupted:
		fmt.Println("interrupted")
		return sb.Close()
	case <-sb.Promoted():
	}
	signal.Stop(interrupted)
	defer func() { _ = sb.Close() }()
	if err := sb.Err(); err != nil {
		return err
	}
	m := sb.Master()
	fmt.Printf("standby promoted to primary: epoch %d\n", m.Epoch())
	return serveMaster(app, opt, m)
}

// serveMaster drives a started master: discovery announcements, the
// frame source, the periodic status line, and the exit summary. The
// promoted-standby path joins here with the swarm's journal already
// recovered, so the source resumes exactly like a crash-restart.
func serveMaster(app *swing.App, opt masterOpts, m *swing.Master) error {
	defer func() { _ = m.Close() }()
	if opt.journal != "" && m.Epoch() > 1 {
		fmt.Printf("master recovered from %s: epoch %d, resuming stream at frame %d\n",
			opt.journal, m.Epoch(), m.NextSeq())
	}
	fmt.Println("master listening on", m.Addr())
	if addr := m.StatusAddr(); addr != "" {
		fmt.Printf("status endpoint on http://%s/statusz\n", addr)
	}
	if opt.shaped != nil {
		// The shaping report is the scenario's inspectable artifact: what
		// it actually did to each link, printed on exit.
		defer func() {
			if b, err := json.Marshal(opt.shaped.Report()); err == nil {
				fmt.Printf("shaping report: %s\n", b)
			}
		}()
	}

	if opt.announce != "" {
		ann, err := swing.Announce(opt.announce,
			swing.Announcement{App: app.Name(), Addr: m.Addr(), Epoch: m.Epoch()}, time.Second)
		if err != nil {
			return err
		}
		defer func() { _ = ann.Close() }()
	}

	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)

	src := swing.NewFrameSource(app.FrameBytes, 1)
	// After a crash-recovery restart the source resumes past every burned
	// sequence number, so replayed backlog and fresh frames never collide.
	src.SeekTo(m.NextSeq())
	ticker := time.NewTicker(time.Duration(float64(time.Second) / opt.fps))
	defer ticker.Stop()
	var deadline <-chan time.Time
	if opt.duration > 0 {
		deadline = time.After(opt.duration)
	}
	var statusTick <-chan time.Time
	if opt.statusEvery > 0 {
		status := time.NewTicker(opt.statusEvery)
		defer status.Stop()
		statusTick = status.C
	}
	submitted, dropped := 0, 0
	// Submit-side batching: frames accumulate into one SubmitBatch of up
	// to opt.submitBatch tuples; a partial batch flushes after waiting at
	// most opt.submitLinger for stragglers (0 = only full batches flush,
	// which at a steady fps just trades one frame interval of latency).
	batchN := opt.submitBatch
	if batchN < 1 {
		batchN = 1
	}
	var (
		pend        []*swing.Tuple
		lingerTimer *time.Timer
		lingerC     <-chan time.Time
	)
	flush := func() {
		if lingerTimer != nil {
			lingerTimer.Stop()
		}
		lingerC = nil
		if len(pend) == 0 {
			return
		}
		if err := m.SubmitBatch(pend); err != nil {
			dropped += len(pend)
		} else {
			submitted += len(pend)
		}
		pend = pend[:0]
	}
	for {
		select {
		case <-ticker.C:
			if batchN <= 1 {
				if err := m.Submit(src.Next()); err != nil {
					dropped++
				} else {
					submitted++
				}
				break
			}
			pend = append(pend, src.Next())
			if len(pend) >= batchN {
				flush()
			} else if opt.submitLinger > 0 && lingerC == nil {
				if lingerTimer == nil {
					lingerTimer = time.NewTimer(opt.submitLinger)
				} else {
					lingerTimer.Reset(opt.submitLinger)
				}
				lingerC = lingerTimer.C
			}
		case <-lingerC:
			lingerC = nil
			flush()
		case <-statusTick:
			printStatus(m.StatusSnapshot())
		case <-deadline:
			flush()
			st := m.Stats()
			fmt.Printf("done: submitted=%d dropped=%d arrived=%d played=%d skipped=%d\n",
				submitted, dropped, st.Arrived, st.Played, st.Skipped)
			fmt.Printf("ledger: acked=%d retransmitted=%d hedged=%d shadowed=%d shed=%d (overload %d, poison %d) workerDropped=%d evicted=%d inFlight=%d\n",
				st.Acked, st.Retransmitted, st.Hedged, st.Shadowed, st.Shed, st.ShedOverload, st.ShedPoison, st.WorkerDropped, st.Evicted, st.InFlight)
			if st.WorkerDropped > 0 {
				fmt.Printf("drops: errors=%d panics=%d deadlines=%d filtered=%d\n",
					st.DropErrors, st.DropPanics, st.DropDeadlines, st.Filtered)
			}
			return nil
		case <-interrupted:
			fmt.Println("interrupted")
			return nil
		}
	}
}

// printStatus logs the periodic master status line. It renders the same
// StatusSnapshot the HTTP endpoint serves — one snapshot path, so the log
// line and /statusz can never disagree.
func printStatus(snap swing.StatusSnapshot) {
	l := snap.Ledger
	fmt.Printf("status: submitted=%d acked=%d shed=%d (overload %d) inFlight=%d retransmitting=%d evicted=%d balanced=%v\n",
		l.Submitted, l.Acked, l.Shed, l.ShedOverload, l.InFlight, l.Retransmitting, l.Evicted, l.Balanced)
	for _, ws := range snap.Workers {
		fmt.Printf("  worker %s: health=%s silence=%dms breaker=%s opens=%d queue=%d weight=%.2f latency=%.1fms processed=%d dropped=%d reconnects=%d\n",
			ws.ID, ws.Health, ws.SilenceMillis, ws.Breaker, ws.BreakerOpens,
			ws.QueueLen, ws.Weight, ws.LatencyMillis, ws.Processed, ws.Dropped, ws.Reconnects)
	}
}

func runWorker(app *swing.App, opt workerOpts) error {
	if opt.id == "" {
		return fmt.Errorf("worker needs -id")
	}
	masterAddr := opt.master
	rediscover := ""
	if masterAddr == "" {
		fmt.Println("discovering master on", opt.discover, "...")
		ann, err := swing.Discover(opt.discover, app.Name(), 30*time.Second)
		if err != nil {
			return fmt.Errorf("discovery: %w", err)
		}
		masterAddr = ann.Addr
		fmt.Println("found master at", masterAddr)
		// A worker that found its master by discovery keeps rediscovering
		// on reconnect failures, so a promoted standby announcing under a
		// bumped epoch is found instead of redialing the dead primary
		// forever. An explicit -master stays pinned to that address.
		rediscover = opt.discover
	}
	w, err := swing.StartWorker(swing.WorkerConfig{
		DeviceID:          opt.id,
		MasterAddr:        masterAddr,
		App:               app,
		Transport:         opt.transport,
		SpeedFactor:       opt.speed,
		Reconnect:         opt.reconnect,
		ReconnectBackoff:  opt.reconnectBackoff,
		ReconnectAttempts: opt.reconnectAttempts,
		DiscoverAddr:      rediscover,
	})
	if err != nil {
		return err
	}
	fmt.Printf("worker %s joined %s (speed factor %.1f)\n", opt.id, masterAddr, opt.speed)

	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- w.Wait() }()
	select {
	case <-interrupted:
		fmt.Println("leaving swarm")
		return w.Close()
	case err := <-done:
		if err != nil {
			// Terminal failure (e.g. reconnect budget exhausted): exit
			// non-zero so supervisors notice the worker fell out of the
			// swarm instead of reading it as a clean shutdown.
			return fmt.Errorf("worker terminated: %w (processed %d tuples)", err, w.Processed())
		}
		fmt.Printf("master closed the session; processed %d tuples\n", w.Processed())
		return nil
	}
}
