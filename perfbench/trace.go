package main

import (
	"fmt"
	"math"
	"os"
	"time"
)

// routeSamplePeriod is how often the traced run samples Master.Snapshot.
// It is finer than the one-second reconfigure period so that tuples a
// worker processed can be attributed to the selection in force when they
// were routed; selected_mean still takes one sample per period.
const (
	routeSamplePeriod = 100 * time.Millisecond
	samplesPerPeriod  = 10
)

// routeSampler polls the master's routing view and status snapshot while
// the traced window runs.
type routeSampler struct {
	s     *swarm
	index map[string]int
	stop  chan struct{}
	done  chan struct{}

	periods       int
	selectedSum   float64
	changes       int
	probeTuples   int64
	routedTuples  int64
	estErrSum     float64
	estErrSamples int
}

func startRouteSampler(s *swarm) *routeSampler {
	rs := &routeSampler{s: s, index: map[string]int{}, stop: make(chan struct{}), done: make(chan struct{})}
	for i, w := range s.spec.workers {
		rs.index[w.id] = i
	}
	go rs.loop()
	return rs
}

func (rs *routeSampler) loop() {
	defer close(rs.done)
	s := rs.s
	tick := time.NewTicker(routeSamplePeriod)
	defer tick.Stop()
	var (
		lastSel   uint64
		processed = make([]int64, len(s.workers))
	)
	for i, w := range s.workers {
		processed[i] = w.Processed()
	}
	for k := 0; ; k++ {
		select {
		case <-tick.C:
		case <-rs.stop:
			return
		}
		t0 := s.spans.now()
		infos := s.m.Snapshot()
		s.spans.add(spanSnapshot, uint64(k), 0, t0, s.spans.now())
		if k%samplesPerPeriod == 0 {
			t0 = s.spans.now()
			_ = s.m.StatusSnapshot()
			s.spans.add(spanStatusSnapshot, uint64(k), 0, t0, s.spans.now())
		}

		var sel uint64
		n := 0
		for _, info := range infos {
			if info.Selected {
				sel |= 1 << rs.index[info.ID]
				n++
			}
		}
		// Tuples processed since the last sample were routed under the
		// selection seen then; the first sample has no predecessor.
		for i, w := range s.workers {
			p := w.Processed()
			d := p - processed[i]
			processed[i] = p
			if k == 0 {
				continue
			}
			rs.routedTuples += d
			if lastSel&(1<<i) == 0 {
				rs.probeTuples += d
			}
		}
		if k > 0 && sel != lastSel {
			rs.changes++
		}
		lastSel = sel
		if k%samplesPerPeriod == 0 {
			rs.periods++
			rs.selectedSum += float64(n)
			for _, info := range infos {
				sleep := s.spec.workers[rs.index[info.ID]].sleep
				if info.Selected && sleep > 0 {
					rs.estErrSum += math.Abs(float64(info.Estimate.Processing-sleep)) / float64(sleep)
					rs.estErrSamples++
				}
			}
		}
	}
}

func (rs *routeSampler) finish() {
	close(rs.stop)
	<-rs.done
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traceLive measures the workload untraced for half the window, then on
// a fresh swarm with spans, a counting transport and the routing sampler
// for the other half, and finally runs the layer microbenchmarks with
// the workload's frames and routing table.
func traceLive(spec *liveSpec, cfg runConfig) (*outcome, error) {
	var g gate
	half := cfg.seconds / 2
	s, _, err := startSwarm(spec, cfg.seed, nil, false)
	if err != nil {
		return nil, err
	}
	plain := s.measure(half, &g)
	s.close()

	spans := newSpanLog()
	s, _, err = startSwarm(spec, cfg.seed, spans, true)
	if err != nil {
		return nil, err
	}
	st0 := s.m.Stats()
	j0 := s.m.StatusSnapshot().Journal
	writes0, written0 := s.faulty.WriteCalls(), s.faulty.TuplesWritten()
	proc0 := make([]int64, len(s.workers))
	for i, w := range s.workers {
		proc0[i] = w.Processed()
	}
	submit0, _ := spans.busy(spanSubmit)
	batch0, _ := spans.busy(spanSubmitBatch)
	sampler := startRouteSampler(s)
	traced := s.measure(cfg.seconds-half, &g)
	sampler.finish()
	st1 := s.m.Stats()
	j1 := s.m.StatusSnapshot().Journal
	writes, written := s.faulty.WriteCalls()-writes0, s.faulty.TuplesWritten()-written0
	var procTotal, procMax int64
	for i, w := range s.workers {
		d := w.Processed() - proc0[i]
		procTotal += d
		procMax = max(procMax, d)
	}
	infos := s.m.Snapshot()
	s.close()

	submit1, _ := spans.busy(spanSubmit)
	batch1, _ := spans.busy(spanSubmitBatch)
	submitBusy := submit1 - submit0 + batch1 - batch0
	statusBusy, statusCalls := spans.busy(spanStatusSnapshot)
	submitted := float64(st1.Submitted - st0.Submitted)
	ms := metricSet{
		"runtime.submit_us_per_tuple":       ratio(us(submitBusy), float64(traced.attempted)),
		"runtime.submit_busy_frac":          ratio(float64(submitBusy), float64(traced.elapsed)),
		"runtime.tuples_per_frame":          ratio(float64(st1.BatchedTuples-st0.BatchedTuples), float64(st1.BatchFrames-st0.BatchFrames)),
		"runtime.worker_share_max":          ratio(float64(procMax), float64(procTotal)),
		"runtime.reorder_skip_frac":         ratio(float64(st1.Skipped-st0.Skipped), submitted),
		"runtime.wasted_frac":               ratio(float64(st1.Retransmitted-st0.Retransmitted+st1.Hedged-st0.Hedged+st1.Shed-st0.Shed), submitted),
		"transport.write_calls_per_tuple":   ratio(float64(writes), submitted),
		"transport.tuples_per_write":        ratio(float64(written), float64(writes)),
		"routing.selected_mean":             ratio(sampler.selectedSum, float64(sampler.periods)),
		"routing.selection_changes_per_min": ratio(float64(sampler.changes), traced.elapsed.Minutes()),
		"routing.probe_tuple_frac":          ratio(float64(sampler.probeTuples), float64(sampler.routedTuples)),
		"routing.estimate_error_frac":       ratio(sampler.estErrSum, float64(sampler.estErrSamples)),
		"obs.status_snapshot_us":            ratio(us(statusBusy), float64(statusCalls)),
		"trace.overhead_frac":               1 - ratio(traced.opsPerSec(), plain.opsPerSec()),
	}
	if j0 != nil && j1 != nil {
		ms["journal.records_per_tuple"] = ratio(float64(j1.Records-j0.Records), submitted)
		ms["journal.bytes_per_tuple"] = ratio(float64(j1.Bytes-j0.Bytes), submitted)
	}

	p := layerParams{
		seed:       cfg.seed,
		frameBytes: spec.frameBytes,
		perFrame:   max(spec.batch/len(spec.workers), 1),
		policy:     spec.policy,
		lambda:     traced.opsPerSec(),
	}
	for _, info := range infos {
		p.workers = append(p.workers, info.ID)
		p.estimates = append(p.estimates, info.Estimate)
	}
	if err := runLayerBenches(p, ms); err != nil {
		return nil, err
	}
	runMs, err := simRunMs(cfg.seed, &g)
	if err != nil {
		return nil, err
	}
	ms["core.run_ms"] = runMs
	if err := writeSpans(spans, spec.name, cfg.seed); err != nil {
		return nil, err
	}
	return &outcome{
		Correct:   g.ok(),
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   ms.render(perLayer),
	}, nil
}

func writeSpans(spans *spanLog, workload string, seed int64) error {
	path, err := spans.write(workload, seed)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}
