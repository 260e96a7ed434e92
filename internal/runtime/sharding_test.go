package runtime

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/transport"
)

func TestCeilPow2(t *testing.T) {
	cases := []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8},
		{17, 32}, {64, 64}, {128, 128}, {129, 128}, {100000, 128},
	}
	for _, c := range cases {
		if got := ceilPow2(c.in); got != c.want {
			t.Errorf("ceilPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestShardsFlagNormalization(t *testing.T) {
	// Zero (the flag default) floors to GOMAXPROCS rounded up to a power
	// of two; explicit values round up and clamp to maxShards.
	def := MasterConfig{}.withDefaults()
	if want := ceilPow2(goruntime.GOMAXPROCS(0)); def.Shards != want {
		t.Errorf("default Shards = %d, want %d", def.Shards, want)
	}
	if got := (MasterConfig{Shards: 6}).withDefaults().Shards; got != 8 {
		t.Errorf("Shards 6 normalized to %d, want 8", got)
	}
	if got := (MasterConfig{Shards: 9999}).withDefaults().Shards; got != maxShards {
		t.Errorf("Shards 9999 normalized to %d, want %d", got, maxShards)
	}
	if got := (MasterConfig{Shards: -1}).withDefaults().Shards; got < 1 {
		t.Errorf("Shards -1 normalized to %d, want >= 1", got)
	}
}

// TestLedgerConsistentUnderConcurrentSubmit hammers a sharded master from
// several submitters while a sampler reads MasterStats concurrently: every
// sample must satisfy Acked + Shed + InFlight == Submitted exactly. With
// stable workers (no deaths, so no retransmit transient) any torn read of
// the per-shard counters would surface as an unbalanced sample.
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
		Shards:     8,
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
