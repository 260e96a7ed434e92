package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// processCPU returns the process's user+sys CPU time so far. Master and
// workers share the process, so this is the whole swarm's cost.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampledMetrics are the runtime metrics a sampler reads, in the order
// of the sample slices newSamples returns.
var sampledMetrics = [...]string{"/gc/heap/live:bytes", "/gc/heap/allocs:objects"}

func newSamples() []metrics.Sample {
	s := make([]metrics.Sample, len(sampledMetrics))
	for i, name := range sampledMetrics {
		s[i].Name = name
	}
	return s
}

// mark is the process's cost and the ops completed at one instant.
type mark struct {
	at     time.Time
	cpu    time.Duration
	allocs uint64
	ops    int64
}

// readMark takes a mark, reading the runtime metrics into s.
func readMark(s []metrics.Sample, ops func() int64) mark {
	metrics.Read(s)
	return mark{at: time.Now(), cpu: processCPU(), allocs: s[1].Value.Uint64(), ops: ops()}
}

// windowSampler runs beside a measured window: it marks the process's
// cost at both ends and reads the live heap every heapSamplePeriod into a
// buffer preallocated for the window, so sampling allocates nothing while
// the window runs.
type windowSampler struct {
	ops   func() int64
	first mark
	heap  []float64
	stop  chan struct{}
	done  chan struct{}
}

const heapSamplePeriod = 50 * time.Millisecond

func startWindowSampler(window time.Duration, ops func() int64) *windowSampler {
	ws := &windowSampler{
		ops:  ops,
		heap: make([]float64, 0, int(window/heapSamplePeriod)+16),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	ws.first = readMark(newSamples(), ops)
	s := newSamples()
	go func() {
		defer close(ws.done)
		tick := time.NewTicker(heapSamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				metrics.Read(s)
				if len(ws.heap) < cap(ws.heap) {
					ws.heap = append(ws.heap, float64(s[0].Value.Uint64()))
				}
			case <-ws.stop:
				return
			}
		}
	}()
	return ws
}

// finish stops the sampler, takes the closing mark and returns the
// window's rates and costs.
func (ws *windowSampler) finish() window {
	close(ws.stop)
	<-ws.done
	s := newSamples()
	last := readMark(s, ws.ops)
	if len(ws.heap) == 0 {
		ws.heap = append(ws.heap, float64(s[0].Value.Uint64()))
	}
	w := window{
		elapsed: last.at.Sub(ws.first.at),
		ops:     last.ops - ws.first.ops,
		heapP90: percentile(ws.heap, 0.9) / 1e6,
	}
	if w.ops > 0 {
		w.cpuPerOp = float64(last.cpu-ws.first.cpu) / 1e3 / float64(w.ops)
		w.allocsPerOp = float64(last.allocs-ws.first.allocs) / float64(w.ops)
	}
	return w
}

// percentile returns the q-quantile of vs by linear interpolation between
// order statistics. It sorts vs in place.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	i := int(pos)
	if i+1 >= len(vs) {
		return vs[len(vs)-1]
	}
	return vs[i] + (pos-float64(i))*(vs[i+1]-vs[i])
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }
