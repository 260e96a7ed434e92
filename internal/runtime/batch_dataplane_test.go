package runtime

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
)

// TestBatchedDispatchReducesDownstreamFrames drives the batched submit
// path end-to-end over a counter-instrumented (fault-free) transport:
// every tuple of every batch must come back acked and played exactly
// once, and the wire counters must prove batching actually happened —
// many tuples per FrameTupleBatch, far fewer downstream frames than
// tuples.
func TestBatchedDispatchReducesDownstreamFrames(t *testing.T) {
	mem := transport.NewMem()
	mf := transport.WithFaults(mem, transport.FaultConfig{})
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	col := &resultCollector{}
	m, err := StartMaster(MasterConfig{
		App:        app,
		Policy:     routing.LRS,
		ListenAddr: "master",
		Transport:  mf,
		OnResult:   col.add,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	startTestWorker(t, mem, m, "w1", 1)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "join")

	src := apps.NewFrameSource(600, 7)
	const batches, per = 5, 24
	const n = batches * per
	for b := 0; b < batches; b++ {
		batch := make([]*tuple.Tuple, per)
		for i := range batch {
			batch[i] = src.Next()
		}
		if err := m.SubmitBatch(batch); err != nil {
			t.Fatalf("SubmitBatch %d: %v", b, err)
		}
	}
	waitFor(t, 15*time.Second, func() bool {
		st := m.Stats()
		return st.Acked == n && st.InFlight == 0
	}, "all acked")

	st := m.Stats()
	if st.SubmitBatches != batches {
		t.Fatalf("SubmitBatches = %d, want %d", st.SubmitBatches, batches)
	}
	if st.BatchedTuples != n {
		t.Fatalf("BatchedTuples = %d, want %d (single worker: every tuple batches)", st.BatchedTuples, n)
	}
	if st.BatchFrames == 0 || st.BatchFrames >= st.BatchedTuples {
		t.Fatalf("BatchFrames = %d for %d tuples: no coalescing", st.BatchFrames, st.BatchedTuples)
	}
	// Wire-level proof via the transport counters: every tuple crossed
	// the link, carried by far fewer frames than tuples.
	if got := mf.TuplesWritten(); got != n {
		t.Fatalf("TuplesWritten = %d, want %d", got, n)
	}
	// Deploy + Start + pings + batch frames; without batching the tuple
	// traffic alone would contribute n frames.
	if frames := mf.FramesWritten(); frames > int64(n/2) {
		t.Fatalf("FramesWritten = %d for %d tuples: batching too weak", frames, n)
	}
	t.Logf("downstream: %d tuples in %d batch frames (%d total frames written)",
		st.BatchedTuples, st.BatchFrames, mf.FramesWritten())

	// Exactly-once delivery survives the batched path.
	seen := make(map[uint64]bool)
	for _, r := range col.snapshot() {
		if seen[r.Tuple.SeqNo] {
			t.Fatalf("seq %d delivered twice", r.Tuple.SeqNo)
		}
		seen[r.Tuple.SeqNo] = true
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct results, want %d", len(seen), n)
	}
}

// TestLedgerConsistentUnderConcurrentSubmit hammers a master from several
// submitters while a sampler reads MasterStats concurrently: every sample
// must satisfy Acked + Shed + InFlight == Submitted exactly. With stable
// workers (no deaths, so no retransmit transient) any torn read of the
// ledger counters would surface as an unbalanced sample.
func TestLedgerConsistentUnderConcurrentSubmit(t *testing.T) {
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	mem := transport.NewMem()
	m, err := StartMaster(MasterConfig{
		App:        app,
		Policy:     routing.RR,
		ListenAddr: "master",
		Transport:  mem,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	for i := 0; i < 4; i++ {
		startTestWorker(t, mem, m, fmt.Sprintf("w%d", i), 1)
	}
	waitFor(t, 5*time.Second, func() bool { return len(m.Workers()) == 4 }, "workers join")

	const (
		submitters = 4
		perSub     = 300
	)
	var wg sync.WaitGroup
	stopSampling := make(chan struct{})
	var samples, torn atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			st := m.Stats()
			samples.Add(1)
			if !ledgerBalanced(st) {
				torn.Add(1)
				t.Errorf("torn ledger sample: submitted=%d acked=%d shed=%d inFlight=%d",
					st.Submitted, st.Acked, st.Shed, st.InFlight)
				return
			}
		}
	}()
	errs := make(chan error, submitters)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSub; i++ {
				seq := uint64(s*perSub + i)
				if err := m.Submit(frameTuple(seq)); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	waitFor(t, 15*time.Second, func() bool {
		return m.Stats().Acked == int64(submitters*perSub)
	}, "all tuples acked")
	close(stopSampling)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if samples.Load() == 0 {
		t.Fatal("sampler never ran")
	}
	st := m.Stats()
	if st.Submitted != int64(submitters*perSub) || !ledgerBalanced(st) {
		t.Fatalf("final ledger: %+v", st)
	}
}

// TestLedgerConsistentUnderConcurrentSubmitBatch is the batched twin of
// TestLedgerConsistentUnderConcurrentSubmit: several goroutines hammer
// SubmitBatch while a sampler reads MasterStats concurrently, and every
// sample must balance exactly. The batched path takes the table lock once
// per batch instead of once per tuple, so a torn batch insert would
// surface here.
func TestLedgerConsistentUnderConcurrentSubmitBatch(t *testing.T) {
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	mem := transport.NewMem()
	m, err := StartMaster(MasterConfig{
		App:        app,
		Policy:     routing.RR,
		ListenAddr: "master",
		Transport:  mem,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	for i := 0; i < 4; i++ {
		startTestWorker(t, mem, m, fmt.Sprintf("w%d", i), 1)
	}
	waitFor(t, 5*time.Second, func() bool { return len(m.Workers()) == 4 }, "workers join")

	const (
		submitters = 4
		perBatch   = 25
		batches    = 12
		total      = submitters * perBatch * batches
	)
	var wg sync.WaitGroup
	stopSampling := make(chan struct{})
	var samples atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			st := m.Stats()
			samples.Add(1)
			if !ledgerBalanced(st) {
				t.Errorf("torn ledger sample: submitted=%d acked=%d shed=%d inFlight=%d retransmitting=%d",
					st.Submitted, st.Acked, st.Shed, st.InFlight, st.Retransmitting)
				return
			}
		}
	}()
	errs := make(chan error, submitters)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]*tuple.Tuple, perBatch)
				for i := range batch {
					batch[i] = frameTuple(uint64(s*perBatch*batches + b*perBatch + i))
				}
				if err := m.SubmitBatch(batch); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	waitFor(t, 15*time.Second, func() bool {
		return m.Stats().Acked == int64(total)
	}, "all tuples acked")
	close(stopSampling)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if samples.Load() == 0 {
		t.Fatal("sampler never ran")
	}
	st := m.Stats()
	if st.Submitted != int64(total) || !ledgerBalanced(st) {
		t.Fatalf("final ledger: %+v", st)
	}
	if st.SubmitBatches != submitters*batches {
		t.Fatalf("SubmitBatches = %d, want %d", st.SubmitBatches, submitters*batches)
	}
}

// toggleLossScenario shapes link 0 with total loss while armed and
// passes everything else untouched — a deterministic handle on "this
// worker's downlink eats every data frame right now".
type toggleLossScenario struct{ lossy *atomic.Bool }

func (s toggleLossScenario) Name() string { return "toggle-loss" }
func (s toggleLossScenario) ShapeAt(link int, _ time.Duration) transport.Shape {
	if link == 0 && s.lossy.Load() {
		return transport.Shape{Loss: 1}
	}
	return transport.Shape{}
}

// TestSubmitBatchShapedLossRecovery pins the batch dataplane's loss
// semantics end-to-end: a shaped link drops whole FrameTupleBatch frames
// (every tuple inside vanishes together), the lost tuples sit in-flight
// — not silently gone — and the containment machinery (hedged
// re-dispatch to the healthy worker) recovers each one. The ledger ends
// balanced with every tuple acked exactly once.
func TestSubmitBatchShapedLossRecovery(t *testing.T) {
	mem := transport.NewMem()
	var lossy atomic.Bool
	shaped := transport.WithShaping(mem, toggleLossScenario{&lossy}, 3)
	app, err := apps.FaceRecognition()
	if err != nil {
		t.Fatal(err)
	}
	col := &resultCollector{}
	m, err := StartMaster(MasterConfig{
		App:        app,
		Policy:     routing.RR,
		ListenAddr: "master",
		Transport:  shaped, // shapes the downlink of accepted conns
		OnResult:   col.add,
		HedgeAfter: 30 * time.Millisecond,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	// Join order fixes link numbering: "unlucky" is link 0.
	startTestWorker(t, mem, m, "unlucky", 1)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "unlucky joins")
	startTestWorker(t, mem, m, "healthy", 1)
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 2 }, "healthy joins")

	lossy.Store(true)
	src := apps.NewFrameSource(600, 9)
	const n = 24
	batch := make([]*tuple.Tuple, n)
	for i := range batch {
		batch[i] = src.Next()
	}
	if err := m.SubmitBatch(batch); err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}

	// Everything lands despite link 0 eating its whole share of the
	// batch: hedged duplicates reach the healthy worker.
	waitFor(t, 15*time.Second, func() bool {
		st := m.Stats()
		return st.Acked == n && st.InFlight == 0
	}, "ledger recovers from batch loss")
	lossy.Store(false)

	st := m.Stats()
	if !ledgerBalanced(st) {
		t.Fatalf("unbalanced ledger after recovery: %+v", st)
	}
	if st.Hedged == 0 {
		t.Fatalf("no hedged dispatches despite total loss on link 0: %+v", st)
	}
	r := shaped.Report()
	if len(r.Links) == 0 || r.Links[0].Dropped == 0 {
		t.Fatalf("shaping report shows no dropped frames on link 0: %+v", r)
	}
	seen := make(map[uint64]bool)
	for _, res := range col.snapshot() {
		if seen[res.Tuple.SeqNo] {
			t.Fatalf("seq %d delivered twice despite hedged recovery", res.Tuple.SeqNo)
		}
		seen[res.Tuple.SeqNo] = true
	}
}

// TestSubmitBatchProcessorDrops routes a batch containing poison and
// filtered tuples through the batched dataplane: drop notices and
// filter acks must flow back exactly as on the per-tuple path, leaving
// the ledger balanced with the drops attributed.
func TestSubmitBatchProcessorDrops(t *testing.T) {
	mem := transport.NewMem()
	app := poisonApp(t)
	col := &resultCollector{}
	m, err := StartMaster(MasterConfig{
		App:        app,
		ListenAddr: "master",
		Transport:  mem,
		OnResult:   col.add,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	w, err := StartWorker(WorkerConfig{
		DeviceID:   "w1",
		MasterAddr: m.Addr(),
		App:        app,
		Transport:  mem,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 1 }, "join")

	const good, poisoned, filtered = 10, 4, 3
	var batch []*tuple.Tuple
	seq := uint64(0)
	add := func(field string) {
		tp := tuple.New(seq, seq)
		seq++
		tp.Set("x", tuple.Int64(1))
		if field != "" {
			tp.Set(field, tuple.Bool(true))
		}
		batch = append(batch, tp)
	}
	for i := 0; i < good; i++ {
		add("")
	}
	for i := 0; i < poisoned; i++ {
		add("poison")
	}
	for i := 0; i < filtered; i++ {
		add("filter")
	}
	if err := m.SubmitBatch(batch); err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}

	total := int64(good + poisoned + filtered)
	waitFor(t, 5*time.Second, func() bool {
		st := m.Stats()
		return st.Acked == total && st.InFlight == 0
	}, "every batched tuple acked, including drops and filtered")
	st := m.Stats()
	if st.WorkerDropped != poisoned {
		t.Fatalf("WorkerDropped = %d, want %d", st.WorkerDropped, poisoned)
	}
	if st.Arrived != good {
		t.Fatalf("Arrived = %d, want %d (only real results deliver)", st.Arrived, good)
	}
	if st.SubmitBatches != 1 || st.BatchedTuples != total {
		t.Fatalf("batch counters = %d batches / %d tuples, want 1 / %d",
			st.SubmitBatches, st.BatchedTuples, total)
	}
}

// TestSubmitBatchSkipsUnmarshalableTuple: a tuple that cannot be
// marshaled is left out of its frame, its journal round and the
// in-flight table before anything is tracked. SubmitBatch reports it,
// the rest of the batch is dispatched, acked and journaled, and the
// tuple leaves no count.
func TestSubmitBatchSkipsUnmarshalableTuple(t *testing.T) {
	mem := transport.NewMem()
	jpath := filepath.Join(t.TempDir(), "wal")
	app := benchApp(t)
	m, err := StartMaster(MasterConfig{
		App: app, Policy: routing.RR, ListenAddr: "master", Transport: mem,
		JournalPath: jpath, CheckpointEvery: -1, Fsync: FsyncNever, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Crash)
	for i := 0; i < 2; i++ {
		w, err := StartWorker(WorkerConfig{
			DeviceID: fmt.Sprintf("echo%d", i), MasterAddr: m.Addr(), App: app,
			Transport: mem, Logger: quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
	}
	waitFor(t, 2*time.Second, func() bool { return len(m.Workers()) == 2 }, "workers join")

	const n, bad = 8, 3
	batch := make([]*tuple.Tuple, n)
	for i := range batch {
		batch[i] = frameTuple(uint64(i + 1))
	}
	batch[bad].Set(strings.Repeat("x", 300), tuple.Int64(1)) // name past the codec's limit
	if err := m.SubmitBatch(batch); err == nil || !strings.Contains(err.Error(), "runtime: submit") {
		t.Fatalf("SubmitBatch = %v, want the marshal error", err)
	}
	waitFor(t, 5*time.Second, func() bool { return m.Stats().Acked == n-1 }, "the rest acked")
	if st := m.Stats(); st.Submitted != n-1 || st.InFlight != 0 || !st.Balanced {
		t.Fatalf("ledger %+v, want %d submitted and acked", st.Ledger, n-1)
	}
	m.Crash()
	rs, err := recoverState(jpath, jpath+".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if rs.counters.Submitted != n-1 || rs.counters.Acked != n-1 || len(rs.pending) != 0 {
		t.Fatalf("recovered submitted/acked/pending = %d/%d/%d, want %d/%d/0",
			rs.counters.Submitted, rs.counters.Acked, len(rs.pending), n-1, n-1)
	}
}
