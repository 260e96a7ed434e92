package chaos

import (
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	stdruntime "runtime"
	"sync"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/routing"
	rt "github.com/swingframework/swing/internal/runtime"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
)

// Config parameterizes one nemesis run. The zero value is not runnable;
// use the defaults applied by Run (Duration 2s, Workers 4, SubmitEvery
// 2ms, PoisonAttempts 3).
type Config struct {
	// Seed drives every random choice — the schedule, link shaping, and
	// frame content. The same Config always produces the same schedule.
	Seed int64
	// Duration is the injection window; quiescence and teardown checks
	// run after it.
	Duration time.Duration
	// Workers is the swarm size.
	Workers int
	// Churn schedules abrupt worker kills with staggered restarts.
	Churn bool
	// Shape is a transport scenario pack spec (transport.ParseScenario)
	// applied to every worker link; "" disables shaping.
	Shape string
	// CrashPrimary schedules one mid-run primary crash; a hot standby
	// must take over. Requires Dir for the journals.
	CrashPrimary bool
	// Dir holds journal + checkpoint files (required with CrashPrimary).
	Dir string
	// PoisonEvery marks every Nth submitted tuple as poison (operator
	// panic); 0 injects none.
	PoisonEvery int
	// HangEvery marks every Nth submitted tuple to hang past OpDeadline;
	// 0 injects none. Set OpDeadline when using this.
	HangEvery int
	// HangMS is how long a hang tuple sleeps (default 150 ms — finite, so
	// abandoned watchdog runners drain before the leak check).
	HangMS int64
	// PoisonAttempts is the master's distinct-worker quarantine budget K.
	PoisonAttempts int
	// OpDeadline is the worker per-tuple processing deadline (0 = off).
	OpDeadline time.Duration
	// HedgeAfter arms straggler hedging at the master (0 = off).
	HedgeAfter time.Duration
	// SubmitEvery paces the source.
	SubmitEvery time.Duration
	// Logger defaults to a discard logger.
	Logger *slog.Logger
}

// Report is what a nemesis run observed. Violations empty means every
// invariant held: the ledger balanced on every poll, no tuple was
// delivered twice across epochs, no poison tuple reached the sink, no
// healthy worker was evicted, the swarm re-converged, and every spawned
// goroutine drained at shutdown.
type Report struct {
	Seed     int64
	Schedule []string
	// Polls counts invariant samples; BalancedPolls how many balanced.
	Polls         int
	BalancedPolls int
	// Submitted counts successful Submit calls (poison included);
	// PoisonSubmitted the poison subset.
	Submitted       int64
	PoisonSubmitted int64
	// Delivered counts distinct tuples played at the sink; Duplicates
	// counts extra deliveries of an already-played tuple (must be 0).
	Delivered  int64
	Duplicates int64
	// Quarantined / Hedged / Panics / Deadlined are the final ledger and
	// worker counters.
	Quarantined int64
	Hedged      int64
	// Crashes / Kills / Restarts count executed nemesis actions.
	Crashes    int
	Kills      int
	Restarts   int
	FinalEpoch uint64
	Violations []string
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

func (r *Report) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Run executes one seeded nemesis schedule against a live swarm on the
// in-memory transport and returns what it observed. Errors are setup
// failures; invariant violations land in the Report instead.
func Run(cfg Config) (*Report, error) {
	if cfg.Duration == 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.SubmitEvery == 0 {
		cfg.SubmitEvery = 2 * time.Millisecond
	}
	if cfg.PoisonAttempts == 0 {
		cfg.PoisonAttempts = 3
	}
	if cfg.HangMS == 0 {
		cfg.HangMS = 150
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.CrashPrimary && cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: CrashPrimary requires Dir for journals")
	}
	app, err := App()
	if err != nil {
		return nil, err
	}
	rep := &Report{Seed: cfg.Seed}
	baseline := stdruntime.NumGoroutine()

	mem := transport.NewMem()
	workerTr := transport.Transport(mem)
	if cfg.Shape != "" {
		scn, err := transport.ParseScenario(cfg.Shape)
		if err != nil {
			return nil, fmt.Errorf("chaos: shape: %w", err)
		}
		workerTr = transport.WithShaping(mem, scn, cfg.Seed)
	}

	// deliveries is the cross-epoch at-most-once ledger: per-tuple play
	// counts surviving master crashes, fed by every incarnation's sink.
	var delivMu sync.Mutex
	deliveries := make(map[uint64]int)
	onResult := func(r rt.Result) {
		delivMu.Lock()
		deliveries[r.Tuple.ID]++
		if deliveries[r.Tuple.ID] == 1 {
			rep.Delivered++
		} else {
			rep.Duplicates++
		}
		delivMu.Unlock()
	}

	masterCfg := rt.MasterConfig{
		App:            app,
		Policy:         routing.LRS,
		ListenAddr:     "chaos-master",
		Transport:      mem,
		Heartbeat:      40 * time.Millisecond,
		SuspectAfter:   500 * time.Millisecond,
		DeadAfter:      5 * time.Second, // shaping stalls must never evict
		RetryDeadline:  10 * time.Second,
		MaxAttempts:    6,
		OpDeadline:     cfg.OpDeadline,
		PoisonAttempts: cfg.PoisonAttempts,
		HedgeAfter:     cfg.HedgeAfter,
		OnResult:       onResult,
		Logger:         cfg.Logger,
	}
	var sb *rt.Standby
	if cfg.CrashPrimary {
		masterCfg.JournalPath = filepath.Join(cfg.Dir, "wal-0")
		masterCfg.CheckpointEvery = 200 * time.Millisecond
		masterCfg.Fsync = rt.FsyncNever
		masterCfg.ReplicateAddr = "chaos-rep"
		masterCfg.ReplicatePingEvery = 20 * time.Millisecond
	}
	m, err := rt.StartMaster(masterCfg)
	if err != nil {
		return nil, fmt.Errorf("chaos: start master: %w", err)
	}
	defer func() { _ = m.Close() }()
	if cfg.CrashPrimary {
		sbCfg := masterCfg
		sbCfg.JournalPath = filepath.Join(cfg.Dir, "wal-1")
		sb, err = rt.StartStandby(rt.StandbyConfig{
			ID:            "chaos-standby",
			PrimaryAddr:   "chaos-rep",
			TakeoverAfter: 300 * time.Millisecond,
			RedialBackoff: 20 * time.Millisecond,
			Master:        sbCfg,
			Logger:        cfg.Logger,
		})
		if err != nil {
			return nil, fmt.Errorf("chaos: start standby: %w", err)
		}
		defer func() {
			if sb != nil {
				_ = sb.Close()
			}
		}()
	}

	workers := make(map[string]*rt.Worker, cfg.Workers)
	startWorker := func(id string) error {
		w, err := rt.StartWorker(rt.WorkerConfig{
			DeviceID:         id,
			MasterAddr:       "chaos-master",
			App:              app,
			Transport:        workerTr,
			Reconnect:        true,
			ReconnectBackoff: 20 * time.Millisecond,
			Logger:           cfg.Logger,
		})
		if err != nil {
			return err
		}
		workers[id] = w
		return nil
	}
	defer func() {
		for _, w := range workers {
			_ = w.Close()
		}
	}()
	for i := 0; i < cfg.Workers; i++ {
		if err := startWorker(workerID(i)); err != nil {
			return nil, fmt.Errorf("chaos: start worker: %w", err)
		}
	}
	if !waitUntil(5*time.Second, func() bool { return len(m.Workers()) == cfg.Workers }) {
		return nil, fmt.Errorf("chaos: swarm never assembled")
	}

	schedule := Compose(cfg.Seed, cfg)
	for _, a := range schedule {
		rep.Schedule = append(rep.Schedule, a.String())
	}
	poisonIDs := make(map[uint64]bool)
	src := apps.NewFrameSource(600, uint64(cfg.Seed)+1)

	// Main injection loop: one goroutine fires due schedule actions,
	// paces submissions, and samples the invariants. Ticking at the
	// submit cadence keeps the loop simple; polls run every ~25 ms.
	start := time.Now()
	ticker := time.NewTicker(cfg.SubmitEvery)
	defer ticker.Stop()
	var nextAct int
	var submitted int64
	lastPoll := start
	poll := func() {
		snap := m.StatusSnapshot()
		rep.Polls++
		if snap.Ledger.Balanced {
			rep.BalancedPolls++
		} else {
			rep.violate("ledger unbalanced at poll %d: %+v", rep.Polls, snap.Ledger)
		}
		if snap.Ledger.Evicted > 0 {
			rep.violate("healthy worker evicted (evicted=%d)", snap.Ledger.Evicted)
		}
	}
	for time.Since(start) < cfg.Duration {
		<-ticker.C
		now := time.Now()
		// Fire due nemesis actions.
		for nextAct < len(schedule) && now.Sub(start) >= schedule[nextAct].At {
			a := schedule[nextAct]
			nextAct++
			switch a.Kind {
			case ActKillWorker:
				if w, ok := workers[a.Target]; ok {
					_ = w.Close()
					delete(workers, a.Target)
					rep.Kills++
				}
			case ActRestartWorker:
				if _, ok := workers[a.Target]; !ok {
					if err := startWorker(a.Target); err == nil {
						rep.Restarts++
					} else {
						// Master mid-failover; retry shortly.
						schedule[nextAct-1].At = now.Sub(start) + 100*time.Millisecond
						nextAct--
					}
				}
			case ActCrashPrimary:
				m.Crash()
				rep.Crashes++
				select {
				case <-sb.Promoted():
				case <-time.After(10 * time.Second):
					rep.violate("standby never promoted after primary crash")
					return rep, nil
				}
				if err := sb.Err(); err != nil {
					rep.violate("standby promotion failed: %v", err)
					return rep, nil
				}
				m = sb.Master()
				_ = sb.Close()
				sb = nil
				src.SeekTo(m.NextSeq())
			}
		}
		// Paced submission with deterministic fault marks.
		t := src.Next()
		submitted++
		poison := cfg.PoisonEvery > 0 && submitted%int64(cfg.PoisonEvery) == 0
		if poison {
			t.Set(FieldPoison, tuple.Bool(true))
		} else if cfg.HangEvery > 0 && submitted%int64(cfg.HangEvery) == 0 {
			t.Set(FieldHangMS, tuple.Int64(cfg.HangMS))
		}
		if err := m.Submit(t); err == nil {
			rep.Submitted++
			if poison {
				rep.PoisonSubmitted++
				poisonIDs[t.ID] = true
			}
		}
		if now.Sub(lastPoll) >= 25*time.Millisecond {
			lastPoll = now
			poll()
		}
	}

	// Injection over: fire any pending restarts so the swarm can
	// re-converge, then require quiescence with the ledger balanced.
	for ; nextAct < len(schedule); nextAct++ {
		a := schedule[nextAct]
		if a.Kind == ActRestartWorker {
			if _, ok := workers[a.Target]; !ok {
				if err := startWorker(a.Target); err == nil {
					rep.Restarts++
				}
			}
		}
	}
	if !waitUntil(20*time.Second, func() bool {
		snap := m.StatusSnapshot()
		return snap.Ledger.InFlight == 0 && snap.Ledger.Retransmitting == 0 && snap.Ledger.Balanced
	}) {
		rep.violate("swarm never quiesced: %+v", m.StatusSnapshot().Ledger)
	}
	if !waitUntil(10*time.Second, func() bool { return len(m.Workers()) == cfg.Workers }) {
		rep.violate("routing never re-converged: %d/%d workers", len(m.Workers()), cfg.Workers)
	}
	poll()

	final := m.Stats()
	rep.Quarantined = final.ShedPoison
	rep.Hedged = final.Hedged
	rep.FinalEpoch = final.Epoch
	delivMu.Lock()
	for id := range poisonIDs {
		if deliveries[id] > 0 {
			rep.violate("poison tuple %d reached the sink", id)
		}
	}
	delivMu.Unlock()
	if rep.Duplicates > 0 {
		rep.violate("%d duplicate sink deliveries across epochs", rep.Duplicates)
	}

	// Teardown + leak check: everything the run spawned must drain.
	for id, w := range workers {
		_ = w.Close()
		delete(workers, id)
	}
	if sb != nil {
		_ = sb.Close()
		sb = nil
	}
	_ = m.Close()
	if !waitUntil(15*time.Second, func() bool {
		stdruntime.GC()
		return stdruntime.NumGoroutine() <= baseline+4
	}) {
		rep.violate("goroutine leak: %d live, baseline %d", stdruntime.NumGoroutine(), baseline)
	}
	return rep, nil
}

func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}
