package runtime

import (
	"fmt"
	"os"
	goruntime "runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/graph"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
)

// envInt reads an integer benchmark knob from the environment.
func envInt(name string, def int) int {
	s := os.Getenv(name)
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return def
	}
	return n
}

// throughputApp is a passthrough pipeline with small (600 B) frames: the
// many-worker benchmark measures the master's coordination ceiling —
// routing draws, in-flight tracking, ledger counters, ack handling — not
// payload memcpy, so frames are kept far below the 6 KiB facerec size.
func throughputApp(b *testing.B) *apps.App {
	b.Helper()
	g, err := graph.NewBuilder("throughput").
		Source("src").
		Operator("echo",
			graph.WithWork(0.001),
			graph.WithProcessor(func() graph.Processor {
				return graph.ProcessorFunc(func(em graph.Emitter, t *tuple.Tuple) error {
					return em.Emit(t)
				})
			})).
		Sink("sink").
		Chain("src", "echo", "sink").
		Build()
	if err != nil {
		b.Fatal(err)
	}
	// TargetFPS sizes the sink reorder buffer (rcap = ReorderBuffer×FPS):
	// at throughput-bench rates a video-sized 25-slot buffer would skip-
	// thrash on the wild cross-submitter disorder, so the buffer is sized
	// for the measured rate.
	return &apps.App{Graph: g, FrameBytes: 600, TargetFPS: 100_000, TotalWork: 0.001}
}

// throughputTuples pre-builds n tuples sharing one payload slice so tuple
// construction stays out of the measured window.
func throughputTuples(n int, firstSeq uint64) []*tuple.Tuple {
	payload := make([]byte, 600)
	out := make([]*tuple.Tuple, n)
	for i := range out {
		t := tuple.New(firstSeq+uint64(i), firstSeq+uint64(i))
		t.Set("frame", tuple.Bytes(payload))
		out[i] = t
	}
	return out
}

// BenchmarkManyWorkerThroughput is the aggregate-throughput ceiling: many
// in-proc workers (SWING_BENCH_WORKERS, default 1000) served by one
// master over the in-memory transport while several goroutines
// (SWING_BENCH_SUBMITTERS, default 8) Submit concurrently. The reported
// tuples/sec metric is submitted-to-acked round trips completed per
// wall-clock second — the number that must scale with cores, tracked in
// BENCH_PR6.json. RR routing keeps every worker in the table so the
// measurement is the hot-state path, not worker-selection warmup.
//
// Run it fixed-count so each round's worker-swarm setup cost stays out of
// the comparison:
//
// SWING_BENCH_SUBMIT_BATCH (default 1 = per-tuple Submit) switches the
// submitters to SubmitBatch in chunks of that size, exercising the
// batched spine end to end on the identical swarm — the A/B behind
// BENCH_PR10.json is this benchmark with the knob off versus at 64.
//
//	go test -run=NONE -bench=ManyWorkerThroughput -benchtime=30000x ./internal/runtime
func BenchmarkManyWorkerThroughput(b *testing.B) {
	nWorkers := envInt("SWING_BENCH_WORKERS", 1000)
	nSubmitters := envInt("SWING_BENCH_SUBMITTERS", 8)
	submitBatch := envInt("SWING_BENCH_SUBMIT_BATCH", 1)

	app := throughputApp(b)
	mem := transport.NewMem()
	const maxHandshakes = 256
	m, err := StartMaster(MasterConfig{
		App:                  app,
		Policy:               routing.RR,
		ListenAddr:           "bench-master",
		Transport:            mem,
		OutboxCap:            64,
		MaxPendingHandshakes: maxHandshakes,
		Logger:               quietLogger(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = m.Close() }()

	var wg sync.WaitGroup
	workers := make([]*Worker, nWorkers)
	// Close the workers before the master (defers run last-in first-out),
	// also when a failed start ends the benchmark: Master.Close waits on
	// every live connection.
	defer func() {
		for _, w := range workers {
			if w != nil {
				_ = w.Close()
			}
		}
	}()
	errs := make(chan error, nWorkers)
	// Start workers in waves that stay inside the master's handshake cap
	// (TestHandshakeAdmissionCap covers the cap itself). A wave is half
	// the cap: the master frees a handshake slot only after its worker's
	// StartWorker has returned, so the previous wave's slots may still be
	// held when the next wave dials.
	const wave = maxHandshakes / 2
	for i := 0; i < nWorkers; i++ {
		if i > 0 && i%wave == 0 {
			wg.Wait()
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := StartWorker(WorkerConfig{
				DeviceID:   fmt.Sprintf("bw-%04d", i),
				MasterAddr: m.Addr(),
				App:        app,
				Transport:  mem,
				QueueCap:   64,
				Logger:     quietLogger(),
			})
			if err != nil {
				errs <- err
				return
			}
			workers[i] = w
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
	for len(m.Workers()) < nWorkers {
		goruntime.Gosched()
	}

	// Warm the dataplane: every queue, pool and estimate path touched once
	// before the timer starts.
	warm := 1024
	for _, t := range throughputTuples(warm, 0) {
		if err := m.Submit(t); err != nil {
			b.Fatal(err)
		}
	}
	waitAcked := func(want int64) {
		for m.Stats().Acked < want {
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitAcked(int64(warm))

	// Pre-split the measured tuples across submitters, IDs disjoint.
	batches := make([][]*tuple.Tuple, nSubmitters)
	per := b.N / nSubmitters
	next := uint64(warm)
	for i := range batches {
		n := per
		if i == nSubmitters-1 {
			n = b.N - per*(nSubmitters-1)
		}
		batches[i] = throughputTuples(n, next)
		next += uint64(n)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for _, batch := range batches {
		wg.Add(1)
		go func(batch []*tuple.Tuple) {
			defer wg.Done()
			if submitBatch > 1 {
				for i := 0; i < len(batch); i += submitBatch {
					end := i + submitBatch
					if end > len(batch) {
						end = len(batch)
					}
					if err := m.SubmitBatch(batch[i:end]); err != nil {
						errs <- err
						return
					}
				}
				return
			}
			for _, t := range batch {
				if err := m.Submit(t); err != nil {
					errs <- err
					return
				}
			}
		}(batch)
	}
	wg.Wait()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
	// Every tuple must complete its round trip inside the measured window:
	// the ceiling is submit-to-ack, not enqueue rate.
	waitAcked(int64(warm + b.N))
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/sec")

	st := m.Stats()
	if st.Shed != 0 || st.Retransmitted != 0 {
		b.Fatalf("benchmark run was not clean: %+v", st)
	}
	if !ledgerBalanced(st) {
		b.Fatalf("ledger unbalanced at quiescence: %+v", st)
	}
}
