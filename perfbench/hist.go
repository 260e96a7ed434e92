package main

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histSubBits sets the histogram's resolution: 2^histSubBits buckets per
// power of two, so a bucket is at most 1/128 (0.8%) of its lower bound
// wide. Values below 2^(histSubBits+1) ns get one bucket each.
const (
	histSubBits  = 7
	histSubCount = 1 << histSubBits
	histBuckets  = (65 - histSubBits) * histSubCount
)

// hist is a fixed log-bucket histogram of durations. Record is one atomic
// add into a preallocated array, so recording allocates nothing and may
// run on any number of goroutines at once; Quantile must run after the
// recorders have stopped.
type hist struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
}

// bucketOf maps a value in nanoseconds to its bucket index.
func bucketOf(v uint64) int {
	if v < 2*histSubCount {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits - 1
	return shift*histSubCount + int(v>>uint(shift))
}

// bucketBounds returns the lower bound and width of bucket i.
func bucketBounds(i int) (lo, width uint64) {
	if i < 2*histSubCount {
		return uint64(i), 1
	}
	shift := i/histSubCount - 1
	m := uint64(i - shift*histSubCount)
	return m << uint(shift), 1 << uint(shift)
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))].Add(1)
	h.n.Add(1)
}

func (h *hist) count() uint64 { return h.n.Load() }

// quantile returns the q-quantile (0 ≤ q ≤ 1) in nanoseconds, interpolated
// linearly inside the bucket that holds the target rank, so it lies in
// the same bucket as the exact order statistic.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo, width := bucketBounds(i)
			frac := (rank - float64(cum)) / float64(c)
			return float64(lo) + frac*float64(width)
		}
		cum += c
	}
	lo, width := bucketBounds(histBuckets - 1)
	return float64(lo + width)
}

// stretch is the part of a window each latency histogram covers: five
// seconds hold one full LRS probe cycle of the stream workload and
// hundreds of samples on every workload.
const stretch = 5 * time.Second

// slicedHist records a window's samples into one histogram per stretch,
// by the time each op was due, and reports quantiles as the median over
// stretches: a slow stretch moves the result by its rank, not its tail.
type slicedHist struct {
	start  time.Duration // window start, in the caller's time base
	slices []hist
}

func newSlicedHist(start, window time.Duration) *slicedHist {
	n := max(int((window+stretch-1)/stretch), 1)
	return &slicedHist{start: start, slices: make([]hist, n)}
}

// record files a sample taken for an op due at the given time; ops due
// after the window count in its last stretch.
func (s *slicedHist) record(due, d time.Duration) {
	i := int((due - s.start) / stretch)
	s.slices[min(max(i, 0), len(s.slices)-1)].record(d)
}

// quantiles returns, for each q, the median over stretches of the
// stretch's q-quantile.
func (s *slicedHist) quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	vals := make([]float64, 0, len(s.slices))
	for k, q := range qs {
		vals = vals[:0]
		for i := range s.slices {
			if s.slices[i].count() > 0 {
				vals = append(vals, s.slices[i].quantile(q))
			}
		}
		out[k] = median(vals)
	}
	return out
}
