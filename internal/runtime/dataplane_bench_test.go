package runtime

import (
	"fmt"
	goruntime "runtime"
	"sync/atomic"
	"testing"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/graph"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
)

// benchApp is a passthrough pipeline (source → echo → sink): the operator
// emits its input tuple unchanged, so the benchmark measures framework
// dataplane overhead — framing, queues, acks, reordering — rather than
// app kernel cost.
func benchApp(tb testing.TB) *apps.App {
	tb.Helper()
	g, err := graph.NewBuilder("benchapp").
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
		tb.Fatal(err)
	}
	return &apps.App{Graph: g, FrameBytes: 6000, TargetFPS: 24, TotalWork: 0.001}
}

// benchTuples pre-builds n tuples sharing one payload slice, so tuple
// construction does not pollute the measured dataplane allocations.
func benchTuples(n int, firstSeq uint64) []*tuple.Tuple {
	payload := make([]byte, 6000)
	out := make([]*tuple.Tuple, n)
	for i := range out {
		t := tuple.New(firstSeq+uint64(i), firstSeq+uint64(i))
		t.Set("frame", tuple.Bytes(payload))
		out[i] = t
	}
	return out
}

// BenchmarkLiveRoundTrip measures the full live dataplane: Submit on the
// master, one worker processing over the in-memory transport, the ack
// releasing the in-flight entry, and in-order sink delivery. allocs/op is
// the per-tuple framework overhead the LRS latency estimates ride on.
func BenchmarkLiveRoundTrip(b *testing.B) {
	app := benchApp(b)
	mem := transport.NewMem()
	var played atomic.Int64
	m, err := StartMaster(MasterConfig{
		App:        app,
		Policy:     routing.LRS,
		ListenAddr: "bench-master",
		Transport:  mem,
		OutboxCap:  256,
		OnResult:   func(Result) { played.Add(1) },
		Logger:     quietLogger(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	w, err := StartWorker(WorkerConfig{
		DeviceID:   "bench-worker",
		MasterAddr: m.Addr(),
		App:        app,
		Transport:  mem,
		QueueCap:   256,
		Logger:     quietLogger(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = w.Close() }()

	const warm = 32
	for _, t := range benchTuples(warm, 0) {
		if err := m.Submit(t); err != nil {
			b.Fatal(err)
		}
	}
	for played.Load() < warm {
		goruntime.Gosched()
	}

	tuples := benchTuples(b.N, warm)
	b.ReportAllocs()
	b.ResetTimer()
	for _, t := range tuples {
		if err := m.Submit(t); err != nil {
			b.Fatal(err)
		}
	}
	// Wait for every submitted tuple's ack so the measured window covers
	// the full round trip, not just the enqueue.
	want := int64(warm + b.N)
	for played.Load() < want {
		goruntime.Gosched()
	}
	b.StopTimer()
}

// benchSwarm boots the bench master/worker pair used by the round-trip
// benchmarks and returns the master plus the played counter.
func benchSwarm(b *testing.B) (*Master, *atomic.Int64) {
	b.Helper()
	app := benchApp(b)
	mem := transport.NewMem()
	var played atomic.Int64
	m, err := StartMaster(MasterConfig{
		App:        app,
		Policy:     routing.LRS,
		ListenAddr: "bench-master",
		Transport:  mem,
		OutboxCap:  256,
		OnResult:   func(Result) { played.Add(1) },
		Logger:     quietLogger(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = m.Close() })
	w, err := StartWorker(WorkerConfig{
		DeviceID:   "bench-worker",
		MasterAddr: m.Addr(),
		App:        app,
		Transport:  mem,
		QueueCap:   256,
		Logger:     quietLogger(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = w.Close() })
	return m, &played
}

// BenchmarkLiveRoundTripBatch is BenchmarkLiveRoundTrip's batched twin:
// the same echo round trip, submitted 64 tuples per SubmitBatch call so
// the whole spine — routing pass, ledger insert, frame build, queue
// slot, worker decode, result batch — amortizes per batch instead of
// per tuple. Compare its ns/op and allocs/op directly against
// BenchmarkLiveRoundTrip; the delta is what batching buys.
func BenchmarkLiveRoundTripBatch(b *testing.B) {
	m, played := benchSwarm(b)
	const warm = 32
	if err := m.SubmitBatch(benchTuples(warm, 0)); err != nil {
		b.Fatal(err)
	}
	for played.Load() < warm {
		goruntime.Gosched()
	}

	const per = 64
	tuples := benchTuples(b.N, warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < len(tuples); i += per {
		end := i + per
		if end > len(tuples) {
			end = len(tuples)
		}
		if err := m.SubmitBatch(tuples[i:end]); err != nil {
			b.Fatal(err)
		}
	}
	want := int64(warm + b.N)
	for played.Load() < want {
		goruntime.Gosched()
	}
	b.StopTimer()
}

// BenchmarkSubmitBatch sweeps the coalescing factor: the same round
// trip at batch sizes 16/64/256, reporting per-tuple cost. The curve
// flattening out is the point where per-frame overhead has fully
// amortized and per-tuple work (marshal, ledger, processing) dominates.
func BenchmarkSubmitBatch(b *testing.B) {
	for _, per := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", per), func(b *testing.B) {
			m, played := benchSwarm(b)
			const warm = 32
			if err := m.SubmitBatch(benchTuples(warm, 0)); err != nil {
				b.Fatal(err)
			}
			for played.Load() < warm {
				goruntime.Gosched()
			}
			tuples := benchTuples(b.N, warm)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < len(tuples); i += per {
				end := i + per
				if end > len(tuples) {
					end = len(tuples)
				}
				if err := m.SubmitBatch(tuples[i:end]); err != nil {
					b.Fatal(err)
				}
			}
			want := int64(warm + b.N)
			for played.Load() < want {
				goruntime.Gosched()
			}
			b.StopTimer()
		})
	}
}

// allocSwarm starts the allocation tests' swarm: one echo worker over
// the in-memory transport, with a counter of played results.
func allocSwarm(t *testing.T) (*Master, *atomic.Int64) {
	t.Helper()
	app := benchApp(t)
	mem := transport.NewMem()
	played := new(atomic.Int64)
	m, err := StartMaster(MasterConfig{
		App:        app,
		Policy:     routing.LRS,
		ListenAddr: "bench-master",
		Transport:  mem,
		OutboxCap:  256,
		OnResult:   func(Result) { played.Add(1) },
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	w, err := StartWorker(WorkerConfig{
		DeviceID:   "bench-worker",
		MasterAddr: m.Addr(),
		App:        app,
		Transport:  mem,
		QueueCap:   256,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	return m, played
}

// TestBatchRoundTripAllocs pins the batched dataplane's allocation
// budget: a full 64-tuple SubmitBatch round trip (submit, dispatch,
// worker decode + process, ack, in-order delivery) must cost at most 2
// allocations across every goroutine involved — both directions decode
// a frame's tuples into a pooled block instead of one tuple each, the
// worker moves the frame through its pipeline as one pooled batch, each
// frame is encoded once, in the buffer it is written from, and the
// master reads each result frame into a pooled buffer that its last
// result frees. Regressing this means a per-tuple or per-frame cost
// crept back into a per-batch path. In 90 runs, 64 measured 1 and 26
// measured 2; with a fresh buffer and block per result frame it was 6
// or 7, and 8 or 9 before that with a fresh worker tuple block and a
// second copy of each frame. It only runs at GOMAXPROCS=1
// (scripts/check.sh runs it that way).
func TestBatchRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceiling holds for production builds only")
	}
	if goruntime.GOMAXPROCS(0) > 1 {
		// AllocsPerRun counts every goroutine's allocations; beyond one
		// core, unrelated scheduler-parallel work pollutes the figure.
		t.Skip("alloc accounting is only stable at GOMAXPROCS=1")
	}
	m, played := allocSwarm(t)
	const per, runs, warm = 64, 20, 32
	for _, tp := range benchTuples(warm, 0) {
		if err := m.Submit(tp); err != nil {
			t.Fatal(err)
		}
	}
	for played.Load() < warm {
		goruntime.Gosched()
	}
	// Tuples for every run (AllocsPerRun calls f runs+1 times) are built
	// ahead so construction stays out of the measured window; each call
	// consumes the next fresh batch.
	tuples := benchTuples((runs+1)*per, warm)
	next := 0
	want := int64(warm)
	allocs := testing.AllocsPerRun(runs, func() {
		batch := tuples[next : next+per]
		next += per
		if err := m.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
		want += per
		for played.Load() < want {
			goruntime.Gosched()
		}
	})
	perTuple := allocs / per
	t.Logf("batched round trip: %.2f allocs/tuple (%.0f per %d-tuple batch)", perTuple, allocs, per)
	if allocs > 2 {
		t.Fatalf("batched round trip costs %.0f allocs per %d-tuple batch, want at most 2", allocs, per)
	}
}

// TestSubmitRoundTripAllocs pins the one-tuple round trip's allocation
// budget: Submit is SubmitBatch over a batch of one, and its round trip —
// submit, dispatch, worker decode and process, ack and in-order
// delivery — must cost at most 1 allocation across every goroutine
// (every one of 90 runs measured 1; with a fresh buffer and block per
// result frame it was 3, and 4 before the worker kept its tuple block).
// Like TestBatchRoundTripAllocs it only runs at GOMAXPROCS=1
// (scripts/check.sh runs it that way).
func TestSubmitRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceiling holds for production builds only")
	}
	if goruntime.GOMAXPROCS(0) > 1 {
		t.Skip("alloc accounting is only stable at GOMAXPROCS=1")
	}
	m, played := allocSwarm(t)
	const runs, warm = 200, 32
	for _, tp := range benchTuples(warm, 0) {
		if err := m.Submit(tp); err != nil {
			t.Fatal(err)
		}
	}
	for played.Load() < warm {
		goruntime.Gosched()
	}
	tuples := benchTuples(runs+1, warm)
	next := 0
	want := int64(warm)
	allocs := testing.AllocsPerRun(runs, func() {
		if err := m.Submit(tuples[next]); err != nil {
			t.Fatal(err)
		}
		next++
		want++
		for played.Load() < want {
			goruntime.Gosched()
		}
	})
	t.Logf("one-tuple round trip: %.2f allocs", allocs)
	if allocs > 1 {
		t.Fatalf("one-tuple round trip costs %.2f allocs, want at most 1", allocs)
	}
}

// BenchmarkJournalAppendFsyncAlways measures the Submit-path journal cost
// under the strictest durability mode, with concurrent appenders — the
// case group commit exists for: many Submits coalescing into one
// write+fsync.
func BenchmarkJournalAppendFsyncAlways(b *testing.B) {
	j, err := openJournal(b.TempDir()+"/bench.journal", 1, 1, FsyncAlways, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = j.close() }()
	t := tuple.New(1, 1)
	t.Set("frame", tuple.Bytes(make([]byte, 6000)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := j.appendSubmit(t); err != nil {
				b.Fatal(err)
			}
		}
	})
}
