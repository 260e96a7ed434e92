package runtime

import (
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/graph"
	"github.com/swingframework/swing/internal/obs"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
)

// Shadow-probe scenario: under LRS with a 200 ms reconfigure period, a
// "primary" worker taking shadowPrimaryDelay per tuple carries a stream
// of one tuple per shadowSubmitEvery alone, and a "probed" worker taking
// shadowProbedSlow stays unselected once measured. The probed worker then
// speeds up to shadowProbedFast, below the primary's delay.
const (
	shadowPeriod       = 200 * time.Millisecond
	shadowPrimaryDelay = 40 * time.Millisecond
	shadowProbedSlow   = 60 * time.Millisecond
	shadowProbedFast   = time.Millisecond
	shadowSubmitEvery  = 100 * time.Millisecond
)

// delayProc returns a containment-app operator that sleeps for the
// current value of d before echoing its result, so a test can change a
// worker's speed mid-run.
func delayProc(d *atomic.Int64) func(graph.Emitter, *tuple.Tuple) error {
	return func(em graph.Emitter, tp *tuple.Tuple) error {
		time.Sleep(time.Duration(d.Load()))
		return containProcess(em, tp)
	}
}

// shadowRun is what runShadowReselect observed.
type shadowRun struct {
	m   *Master
	col *resultCollector
	// n tuples were submitted, seqs 0..n-1. flipSeq was the next seq when
	// the probed worker sped up, reselectSeq when it was seen selected
	// again, took later.
	n, flipSeq, reselectSeq uint64
	took                    time.Duration
	probeCycle              time.Duration
}

// runShadowReselect runs the shadow-probe scenario until the probed
// worker is selected again — failing the test if that takes more than
// two probe cycles after it sped up — then stops the stream and waits
// until every tuple is acked and played. journalPath, if set, turns the
// write-ahead journal on.
func runShadowReselect(t *testing.T, journalPath string) shadowRun {
	t.Helper()
	mem := transport.NewMem()
	col := &resultCollector{}
	rc := routing.DefaultConfig(routing.LRS)
	rc.ReconfigurePeriod = shadowPeriod
	m, err := StartMaster(MasterConfig{
		App:             containApp(t, containProcess),
		Policy:          routing.LRS,
		Routing:         &rc,
		ListenAddr:      "master",
		Transport:       mem,
		OnResult:        col.add,
		ReorderBuffer:   10 * time.Second, // no skip: every seq must play
		JournalPath:     journalPath,
		CheckpointEvery: time.Hour,
		Logger:          quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	var primaryDelay, probedDelay atomic.Int64
	primaryDelay.Store(int64(shadowPrimaryDelay))
	probedDelay.Store(int64(shadowProbedSlow))
	startContainWorker(t, mem, m, "primary", delayProc(&primaryDelay))
	startContainWorker(t, mem, m, "probed", delayProc(&probedDelay))
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 2 }, "both workers join")

	var next atomic.Uint64
	stop := make(chan struct{})
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		ticker := time.NewTicker(shadowSubmitEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if err := m.Submit(plainTuple(next.Load())); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				next.Add(1)
			case <-stop:
				return
			}
		}
	}()
	stopped := false
	stopStream := func() {
		if !stopped {
			stopped = true
			close(stop)
			<-submitted
		}
	}
	defer stopStream()

	info := func(id string) routing.Info {
		for _, in := range m.Snapshot() {
			if in.ID == id {
				return in
			}
		}
		return routing.Info{}
	}
	waitFor(t, 5*time.Second, func() bool {
		p := info("probed")
		return p.Estimate.Samples > 0 && !p.Selected && info("primary").Selected
	}, "probed worker measured and left unselected")

	run := shadowRun{m: m, col: col, probeCycle: time.Duration(rc.ProbeEvery) * shadowPeriod}
	probedDelay.Store(int64(shadowProbedFast))
	run.flipSeq = next.Load()
	start := time.Now()
	waitFor(t, 2*run.probeCycle, func() bool { return info("probed").Selected },
		"sped-up probed worker re-selected within two probe cycles")
	run.took = time.Since(start)
	run.reselectSeq = next.Load()

	stopStream()
	run.n = next.Load()
	waitFor(t, 10*time.Second, func() bool {
		st := m.Stats()
		return st.InFlight == 0 && st.Acked == int64(run.n) && len(col.snapshot()) == int(run.n)
	}, "every tuple acked and played")
	return run
}

// TestShadowProbeReselectsSpedUpWorker: probing with shadow copies keeps
// an unselected worker's estimate as fresh as round-robin probes did —
// once its delay drops below the selected worker's, it is selected again
// within two probe cycles.
func TestShadowProbeReselectsSpedUpWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live session in -short mode")
	}
	run := runShadowReselect(t, "")
	t.Logf("re-selected %v after the speed-up (probe cycle %v)", run.took, run.probeCycle)
}

// TestShadowCopyFirstResultWins: a shadow copy on a worker faster than
// the tuple's own pick wins the race to the sink. Playback takes
// whichever result arrives first and drops the other, so every seq plays
// exactly once; the copy takes no ledger entry, so the four-term balance
// holds with Shadowed counted beside it; and it takes no journal record,
// so each tuple has exactly one submit record.
func TestShadowCopyFirstResultWins(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live session in -short mode")
	}
	jpath := filepath.Join(t.TempDir(), "wal")
	run := runShadowReselect(t, jpath)

	played := make(map[uint64]string, run.n)
	for _, r := range run.col.snapshot() {
		seq := r.Tuple.SeqNo
		if _, dup := played[seq]; dup {
			t.Fatalf("seq %d played twice", seq)
		}
		played[seq] = r.Worker
	}
	for seq := uint64(0); seq < run.n; seq++ {
		if _, ok := played[seq]; !ok {
			t.Fatalf("seq %d never played", seq)
		}
	}
	// Until the probed worker was selected again it carried no tuple of
	// its own, so a result it played for a tuple submitted after the
	// speed-up, and a full submit interval before the re-selection was
	// seen, came from a copy that beat the primary.
	won := 0
	for seq := run.flipSeq; seq+1 < run.reselectSeq; seq++ {
		if played[seq] == "probed" {
			won++
		}
	}
	if won == 0 {
		t.Fatalf("no shadow copy won between seq %d and %d", run.flipSeq, run.reselectSeq)
	}

	st := run.m.Stats()
	if st.Shadowed == 0 {
		t.Fatal("no shadow copies counted")
	}
	if st.Acked+st.Shed+int64(st.InFlight)+st.Retransmitting != st.Submitted || st.Submitted != int64(run.n) {
		t.Fatalf("ledger unbalanced: %+v, %d submitted", st, run.n)
	}
	if st.Arrived < st.Played || st.Played != int64(run.n) {
		t.Fatalf("sink: arrived %d, played %d, want %d played", st.Arrived, st.Played, run.n)
	}
	t.Logf("n=%d shadowed=%d arrived=%d copies won=%d", run.n, st.Shadowed, st.Arrived, won)

	// Read the journal as a crash leaves it: Close would fold it into a
	// final checkpoint.
	run.m.Crash()
	submits := map[uint64]int{}
	for _, f := range journalFiles(jpath) {
		_, recs, _ := readJournalFile(t, f.path)
		for _, rec := range recs {
			if rec.typ != recSubmit {
				continue
			}
			tp, err := tuple.Unmarshal(rec.payload)
			if err != nil {
				t.Fatal(err)
			}
			submits[tp.ID]++
		}
	}
	for id := uint64(0); id < run.n; id++ {
		if submits[id] != 1 {
			t.Fatalf("tuple %d has %d submit records, want 1", id, submits[id])
		}
	}
	if len(submits) != int(run.n) {
		t.Fatalf("%d tuples journaled, %d submitted", len(submits), run.n)
	}
}

// TestCheckpointCarriesShadowed: the Shadowed annotation survives a
// checkpoint round trip into a recovering master's ledger, as Hedged
// does.
func TestCheckpointCarriesShadowed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ckpt")
	if err := saveCheckpoint(path, &checkpointState{Version: checkpointVersion, Counters: obs.Counters{Hedged: 2, Shadowed: 3}}); err != nil {
		t.Fatal(err)
	}
	st, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl := newInflightTable()
	tbl.seedLedger(st.Counters)
	if led := tbl.ledgerSnapshot(); led.Hedged != 2 || led.Shadowed != 3 {
		t.Fatalf("recovered hedged %d, shadowed %d; want 2 and 3", led.Hedged, led.Shadowed)
	}
}
