package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

func TestBucketRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 255, 256, 257, 1000, 123456789, math.MaxUint64 / 3, math.MaxUint64} {
		i := bucketOf(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, i)
		}
		lo, width := bucketBounds(i)
		if v < lo || v-lo >= width {
			t.Fatalf("value %d outside its bucket %d [%d, %d+%d)", v, i, lo, lo, width)
		}
	}
}

// TestQuantileWithinOneBucket checks the histogram against exact sorted
// percentiles: each estimate must fall in the exact value's bucket or a
// neighbouring one.
func TestQuantileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	dists := map[string]func() time.Duration{
		"uniform":   func() time.Duration { return time.Duration(rng.Int64N(int64(50 * time.Millisecond))) },
		"lognormal": func() time.Duration { return time.Duration(math.Exp(rng.NormFloat64()*1.5 + 12)) },
		"bimodal": func() time.Duration {
			if rng.IntN(100) < 3 {
				return 200*time.Millisecond + time.Duration(rng.Int64N(int64(time.Millisecond)))
			}
			return 36*time.Millisecond + time.Duration(rng.Int64N(int64(100*time.Microsecond)))
		},
	}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			var h hist
			vals := make([]float64, 20000)
			for i := range vals {
				d := draw()
				h.record(d)
				vals[i] = float64(d)
			}
			sort.Float64s(vals)
			for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
				exact := vals[int(math.Ceil(q*float64(len(vals))))-1]
				got := h.quantile(q)
				eb, gb := bucketOf(uint64(exact)), bucketOf(uint64(got))
				if gb < eb-1 || gb > eb+1 {
					t.Errorf("q=%v: histogram %.0f (bucket %d), exact %.0f (bucket %d)", q, got, gb, exact, eb)
				}
			}
		})
	}
}

func TestRecordAllocatesNothing(t *testing.T) {
	var h hist
	if a := testing.AllocsPerRun(1000, func() { h.record(123 * time.Microsecond) }); a != 0 {
		t.Fatalf("record allocates %.1f per call", a)
	}
}

// TestSlicedQuantilesMedianOverStretches checks that one slow stretch
// moves the reported quantiles by its rank only, and that ops due after
// the window count in its last stretch.
func TestSlicedQuantilesMedianOverStretches(t *testing.T) {
	s := newSlicedHist(time.Second, 20*time.Second)
	if len(s.slices) != 4 {
		t.Fatalf("20 s window has %d stretches, want 4", len(s.slices))
	}
	for at := time.Second; at < 22*time.Second; at += time.Millisecond {
		d := time.Millisecond
		if at > 7*time.Second && at < 10*time.Second {
			d = 100 * time.Millisecond
		}
		s.record(at, d)
	}
	q := s.quantiles(0.5, 0.99)
	for i, v := range q {
		if v < 0.99e6 || v > 1.01e6 {
			t.Errorf("quantile %d = %.0f ns, want about 1 ms", i, v)
		}
	}
	if n := s.slices[3].count(); n != 6000 {
		t.Errorf("last stretch holds %d samples, want 6000", n)
	}
}
