package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
	"time"

	"github.com/swingframework/swing/internal/apps"
	"github.com/swingframework/swing/internal/device"
	"github.com/swingframework/swing/internal/netem"
	"github.com/swingframework/swing/internal/routing"
	"github.com/swingframework/swing/internal/sim"
	"github.com/swingframework/swing/internal/transport"
	"github.com/swingframework/swing/internal/tuple"
	"github.com/swingframework/swing/internal/wire"
)

// layerParams are the workload properties the layer microbenchmarks
// reproduce: frame size, tuples per dispatched frame, and the routing
// table the workload ran with.
type layerParams struct {
	seed       int64
	frameBytes int
	perFrame   int
	policy     routing.PolicyKind
	// workers and estimates are index-aligned.
	workers   []string
	estimates []routing.Estimate
	lambda    float64
}

// sinks keep benchmarked results alive so the compiler cannot drop the
// calls that produce them.
var (
	sinkBytes []byte
	sinkTuple *tuple.Tuple
	sinkID    string
	sinkDur   time.Duration
	sinkInt   int
)

// timeOp returns the median over reps of the mean time per call of f in
// nanoseconds, each rep making n calls.
func timeOp(n int, f func(i int)) float64 {
	const reps = 5
	per := make([]float64, reps)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		per[r] = float64(time.Since(start)) / float64(n)
	}
	return median(per)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// runLayerBenches measures the codec, framing, routing, simulator and
// loopback-transport layers on the workload's own frames and tables.
func runLayerBenches(p layerParams, ms metricSet) error {
	payload := make([]byte, p.frameBytes)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	perFrame := max(p.perFrame, 1)
	tuples := make([]*tuple.Tuple, perFrame)
	encoded := make([][]byte, perFrame)
	for i := range tuples {
		tuples[i] = tuple.New(uint64(i), uint64(i)).Set(apps.FieldFrame, tuple.Bytes(payload))
		b, err := tuple.Marshal(tuples[i])
		if err != nil {
			return err
		}
		encoded[i] = b
	}

	buf := make([]byte, 0, p.frameBytes+256)
	ms["tuple.marshal_ns"] = timeOp(20000, func(int) {
		buf, _ = tuple.AppendMarshal(buf[:0], tuples[0])
	})
	ms["tuple.unmarshal_ns"] = timeOp(20000, func(int) { sinkTuple, _ = tuple.Unmarshal(encoded[0]) })
	ms["tuple.unmarshal_shared_ns"] = timeOp(20000, func(int) { sinkTuple, _ = tuple.UnmarshalShared(encoded[0]) })
	ms["tuple.allocs_per_unmarshal"] = testing.AllocsPerRun(1000, func() { sinkTuple, _ = tuple.Unmarshal(encoded[0]) })

	// Framing alone, on tuples already marshaled: the tuple codec rows
	// above cost the rest of the path.
	frames := max(20000/perFrame, 50)
	var tb wire.TupleBatch
	ms["wire.tuple_batch_encode_ns"] = timeOp(frames, func(int) {
		tb.Reset()
		for _, e := range encoded {
			tb.Add(e)
		}
		sinkBytes = tb.Payload()
	}) / float64(perFrame)
	tb.Reset()
	for _, e := range encoded {
		tb.Add(e)
	}
	tupleFrame := append([]byte(nil), tb.Payload()...)
	ms["wire.tuple_batch_decode_ns"] = timeOp(frames, func(int) {
		_ = wire.DecodeTupleBatch(tupleFrame, func(entry []byte) error {
			sinkInt += len(entry)
			return nil
		})
	}) / float64(perFrame)
	var rb wire.ResultBatch
	meta := wire.ResultMeta{TupleID: 1, EmitNanos: 1, ProcNanos: 1}
	ms["wire.result_batch_encode_ns"] = timeOp(frames, func(int) {
		rb.Reset()
		for _, e := range encoded {
			rb.Add(meta, e)
		}
		sinkBytes = rb.Payload()
	}) / float64(perFrame)
	resultFrame := append([]byte(nil), rb.Payload()...)
	ms["wire.result_batch_decode_ns"] = timeOp(frames, func(int) {
		_ = wire.DecodeResultBatch(resultFrame, func(entry []byte) error {
			_, tb, err := wire.DecodeResult(entry)
			sinkInt += len(tb)
			return err
		})
	}) / float64(perFrame)

	if err := routingBenches(p, ms); err != nil {
		return err
	}
	simBenches(p, ms)
	rtt, err := tcpFrameRTT(p.frameBytes)
	if err != nil {
		return err
	}
	ms["transport.tcp_frame_rtt_us"] = us(rtt)
	return nil
}

// newRouter builds a router over the given workers with each estimate
// observed once, reconfigured for lambda.
func newRouter(policy routing.PolicyKind, seed int64, workers []string, ests []routing.Estimate, lambda float64) (*routing.Router, error) {
	r, err := routing.NewRouter(routing.DefaultConfig(policy), rand.New(rand.NewPCG(uint64(seed), 99)))
	if err != nil {
		return nil, err
	}
	for i, id := range workers {
		if err := r.AddDownstream(id); err != nil {
			return nil, err
		}
		if err := r.ObserveAck(id, ests[i].Latency, ests[i].Processing, time.Second); err != nil {
			return nil, err
		}
	}
	r.Reconfigure(lambda)
	return r, nil
}

func routingBenches(p layerParams, ms metricSet) error {
	r, err := newRouter(p.policy, p.seed, p.workers, p.estimates, p.lambda)
	if err != nil {
		return err
	}
	table := r.Table()
	var draws [1024]float64
	rng := rand.New(rand.NewPCG(uint64(p.seed), 7))
	for i := range draws {
		draws[i] = rng.Float64()
	}
	ms["routing.pick_ns"] = timeOp(200000, func(i int) { sinkID, _ = table.Pick(draws[i&1023], nil) })
	ms["routing.route_ns"] = timeOp(200000, func(int) { sinkID, _ = r.Route() })

	// Reconfigure always runs over the paper's eight testbed workers.
	ids, ests := testbedEstimates()
	r8, err := newRouter(routing.LRS, p.seed, ids, ests, streamRate)
	if err != nil {
		return err
	}
	ms["routing.reconfigure_us"] = timeOp(20000, func(int) { r8.Reconfigure(streamRate) }) / 1e3
	return nil
}

// testbedEstimates returns workers B–I with their Table I delays as the
// processing estimate and 1.2× that as the end-to-end latency.
func testbedEstimates() ([]string, []routing.Estimate) {
	profiles := device.TestbedProfiles()
	ids := device.WorkerIDs()
	ests := make([]routing.Estimate, len(ids))
	for i, id := range ids {
		d := profiles[id].ProcessingDelay(1, 0)
		ests[i] = routing.Estimate{Latency: d * 6 / 5, Processing: d}
	}
	return ids, ests
}

func simBenches(p layerParams, ms metricSet) {
	e := sim.New(p.seed)
	noop := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, noop)
	}
	ms["sim.step_ns"] = timeOp(200000, func(i int) {
		e.Schedule(time.Duration(i&63)*time.Millisecond, noop)
		e.Step()
	})
	rssi := [...]netem.RSSI{netem.RSSIGood, netem.RSSIFair, netem.RSSIBad, -45, -75}
	ms["netem.txtime_ns"] = timeOp(200000, func(i int) { sinkDur = netem.TxTime(p.frameBytes, rssi[i%len(rssi)]) })
}

// tcpFrameRTT echoes one frame of the given size over loopback TCP with
// wire.WriteFrame/ReadFrame and returns the median round trip.
func tcpFrameRTT(frameBytes int) (time.Duration, error) {
	tr := transport.TCP{}
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		for {
			typ, payload, err := wire.ReadFrame(c)
			if err != nil {
				echoed <- nil
				return
			}
			if err := wire.WriteFrame(c, typ, payload); err != nil {
				echoed <- err
				return
			}
		}
	}()
	c, err := tr.Dial(ln.Addr().String())
	if err != nil {
		return 0, err
	}
	payload := make([]byte, frameBytes)
	const rounds = 2000
	rtts := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if err := wire.WriteFrame(c, wire.FrameTuple, payload); err != nil {
			c.Close()
			return 0, fmt.Errorf("rtt write: %w", err)
		}
		if _, _, err := wire.ReadFrame(c); err != nil {
			c.Close()
			return 0, fmt.Errorf("rtt read: %w", err)
		}
		rtts = append(rtts, float64(time.Since(start)))
	}
	c.Close()
	if err := <-echoed; err != nil {
		return 0, err
	}
	sort.Float64s(rtts)
	return time.Duration(median(rtts)), nil
}
