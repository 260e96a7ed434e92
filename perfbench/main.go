// Command perfbench is Swing's end-to-end benchmark. It drives the live
// runtime (master, workers, journal, TCP and in-memory transports)
// through its public API, checks every output, and prints one JSON
// result line:
//
//	perfbench --workload flood-mem --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer table instead, and the spans
// recorded around each call into the system are written under
// .bench_build/. README.md in this directory defines every workload and
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line: whether every correctness gate held, how
// many ops the measured windows attempted and how many of them failed,
// and the metrics.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
}

var workloads = map[string]*liveSpec{
	"flood-mem":         &floodMemSpec,
	"flood-journal-tcp": &floodJournalSpec,
	"stream-lrs-tcp":    &streamSpec,
}

// endToEnd lists the end-to-end metrics with their units, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"heap_live_p90_mb", "MB"},
}

// perLayer lists the traced run's per-layer metrics with their units. A
// layer a workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"runtime.submit_us_per_tuple", "us"},
	{"runtime.submit_busy_frac", "ratio"},
	{"runtime.tuples_per_frame", "count"},
	{"runtime.worker_share_max", "ratio"},
	{"runtime.reorder_skip_frac", "ratio"},
	{"runtime.wasted_frac", "ratio"},
	{"journal.records_per_tuple", "count"},
	{"journal.bytes_per_tuple", "B"},
	{"transport.write_calls_per_tuple", "count"},
	{"transport.tuples_per_write", "count"},
	{"transport.tcp_frame_rtt_us", "us"},
	{"routing.pick_ns", "ns"},
	{"routing.route_ns", "ns"},
	{"routing.reconfigure_us", "us"},
	{"routing.selected_mean", "count"},
	{"routing.selection_changes_per_min", "1/min"},
	{"routing.probe_tuple_frac", "ratio"},
	{"routing.estimate_error_frac", "ratio"},
	{"wire.tuple_batch_encode_ns", "ns"},
	{"wire.tuple_batch_decode_ns", "ns"},
	{"wire.result_batch_encode_ns", "ns"},
	{"wire.result_batch_decode_ns", "ns"},
	{"tuple.marshal_ns", "ns"},
	{"tuple.unmarshal_ns", "ns"},
	{"tuple.unmarshal_shared_ns", "ns"},
	{"tuple.allocs_per_unmarshal", "count"},
	{"obs.status_snapshot_us", "us"},
	{"core.run_ms", "ms"},
	{"sim.step_ns", "ns"},
	{"netem.txtime_ns", "ns"},
	{"trace.overhead_frac", "ratio"},
}

// metricSet collects values by name and renders them with their units,
// filling any listed metric a workload did not produce with 0.
type metricSet map[string]float64

func (ms metricSet) render(list []struct{ name, unit string }) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, m := range list {
		out[m.name] = metric{Value: ms[m.name], Unit: m.unit}
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed for frame contents, the master's routing draws and the simulator")
	seconds := fs.Int("seconds", 30, "length of the measured window in seconds")
	traced := fs.Int("trace", 0, "1 reports the per-layer table from a traced run, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	runner := runLive
	if *traced == 1 {
		runner = traceLive
	}
	out, err := runner(spec, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	keys := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "%-20s %-34s %14.6g %s\n", *name, k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
	fmt.Fprintf(stdout, "%-20s correct=%v attempted=%d failed=%d\n", *name, out.Correct, out.Attempted, out.Failed)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// gate counts failed correctness checks, printing each to stderr; the run
// is correct when none failed.
type gate struct{ failed int }

func (g *gate) check(ok bool, format string, args ...any) {
	if !ok {
		g.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (g *gate) ok() bool { return g.failed == 0 }
