package main

import (
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/core"
	"github.com/swingframework/swing/internal/metrics"
	"github.com/swingframework/swing/internal/routing"
)

// simRuns is how many times the simulator layer row runs the testbed
// scenario; it reports the median wall time.
const simRuns = 15

// simPrint is the part of a simulator result the correctness gate
// compares: every run must reproduce the first run for its seed exactly.
type simPrint struct {
	generated, delivered, dropped, lost, skipped int64
	throughput                                   float64
	latency, transmission, queuing, processing   metrics.Summary
	processed                                    [16]int64
}

func fingerprint(r *core.Result, workers []string) simPrint {
	p := simPrint{
		generated:    r.Generated,
		delivered:    r.Delivered,
		dropped:      r.DroppedAtSource,
		lost:         r.LostOnLeave,
		skipped:      r.SkippedByReorder,
		throughput:   r.ThroughputFPS,
		latency:      r.Latency,
		transmission: r.Transmission,
		queuing:      r.Queuing,
		processing:   r.Processing,
	}
	for i, id := range workers {
		if d := r.Devices[id]; d != nil && i < len(p.processed) {
			p.processed[i] = d.Processed
		}
	}
	return p
}

// simRunMs runs core.Run on the paper's testbed scenario (face
// recognition, LRS, 60 s simulated) simRuns times after one unmeasured
// run, checks that every run equals the first, and returns the median
// wall time of one run in milliseconds.
func simRunMs(seed int64, g *gate) (float64, error) {
	app, err := apps.FaceRecognition()
	if err != nil {
		return 0, err
	}
	cfg := core.TestbedConfig(app, routing.LRS, seed, 60*time.Second)
	first, err := core.Run(cfg)
	if err != nil {
		return 0, err
	}
	ref := fingerprint(first, cfg.Workers)
	walls := make([]float64, simRuns)
	for i := range walls {
		start := time.Now()
		r, err := core.Run(cfg)
		walls[i] = float64(time.Since(start)) / 1e6
		if err != nil {
			return 0, err
		}
		g.check(fingerprint(r, cfg.Workers) == ref, "core.Run on seed %d differs from its first run", seed)
	}
	return median(walls), nil
}
