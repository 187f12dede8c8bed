// Command perfbench is Loom's benchmark: one command that runs a named
// workload end to end, checks the program's outputs, and prints every
// metric by name and unit. With -trace 1 it instead runs a traced pass that
// times each layer from outside, around the calls into it, and prints the
// per-layer metrics.
//
// It is built and started by run.sh next to this file:
//
//	bash perfbench/run.sh --workload ingest-dblp --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when an
// output check fails. README.md in this directory describes the workloads,
// the metrics and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd lists the metrics of an untraced run, in report order; every
// workload reports all of them (BENCHMARK.json's end_to_end). The report
// also prints, ungated, the figures too noisy on small shared machines to
// carry a regression bound: batch and route latencies, evaluate_s and
// recover_s (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_edges_per_s", "edges/s"},
	{"replica_lag_p50_ms", "ms"},
	{"replica_lag_p99_ms", "ms"},
	{"ipt_pct_hash", "%"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics of a traced run (BENCHMARK.json's per_layer).
var perLayer = []metricDef{
	{"loom.add_batch.busy_s", "s"},
	{"loom.add_batch.calls", "count"},
	{"loom.flush_ms", "ms"},
	{"loom.self_s", "s"},
	{"loom.snapshot_ns", "ns"},
	{"loom.pipeline_speedup", "ratio"},
	{"core.process_s", "s"},
	{"core.immediate_frac", "ratio"},
	{"core.windowed_edges", "count"},
	{"core.evictions", "count"},
	{"core.evictions_per_windowed", "ratio"},
	{"graph.record_s", "s"},
	{"graph.bytes_per_edge", "B"},
	{"graph.spilled_bytes", "B"},
	{"graph.dup_frac", "ratio"},
	{"graph.compact_ms", "ms"},
	{"workload.execute_s", "s"},
	{"workload.replay_s", "s"},
	{"workload.edge_cut_frac", "ratio"},
	{"wal.bytes_per_edge", "B"},
	{"wal.overhead_ms_per_batch", "ms"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.checkpoint_bytes", "B"},
	{"wal.sync_ms", "ms"},
	{"wal.replayed_records", "count"},
	{"follower.poll_ms", "ms"},
	{"follower.records_per_poll", "count"},
	{"follower.empty_poll_frac", "ratio"},
	{"follower.lsn_behind", "count"},
	{"supervisor.faults", "count"},
	{"supervisor.rebootstraps", "count"},
	{"mirror.lookup_ns", "ns"},
	{"server.handler_us", "us"},
	{"http.overhead_us", "us"},
	{"mirror.apply_ns", "ns"},
	{"mirror.found_frac", "ratio"},
	{"mirror.snapshot_frac", "ratio"},
	{"mirror.gaps", "count"},
	{"planner.scatter_us", "us"},
	{"planner.fanout_avg", "count"},
	{"server.shed", "count"},
	{"heap.allocs_per_edge", "count"},
	{"heap.bytes_per_edge", "B"},
	{"gc.pause_ms", "ms"},
	{"sched.latency_p99_us", "us"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"unattributed", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root: hashed into the report's source id
	out      string // build directory: scratch files, reports, span dumps
	// scale multiplies every workload's stream size; the self-test runs
	// toy sizes with it.
	scale float64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(specNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "seconds the timed phase measures")
	fs.IntVar(&trace, "trace", 0, "1: run the traced pass and print per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "root of the checkout being measured")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for scratch files and reports")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	cfg.scale = 1
	sp, ok := specByName(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(specNames(), ", "))
		return 2
	}
	if cfg.seconds <= 0 || trace < 0 || trace > 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be > 0 and -trace 0 or 1")
		return 2
	}

	rep, err := measure(sp, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printReport(stdout, rep)
	if err := writeReport(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.result.Correct {
		for _, f := range rep.failures {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", f)
		}
		return 1
	}
	return 0
}

// report is everything one invocation measured.
type report struct {
	Env      environment        `json:"env"`
	Workload string             `json:"workload"`
	Trace    bool               `json:"trace"`
	Info     map[string]float64 `json:"info"` // extra figures printed but not contracted
	failures []string
	result   result
}

// printReport writes the human-readable report: environment, then every
// metric by name with its unit.
func printReport(w io.Writer, rep *report) {
	e := rep.Env
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v\n", rep.Workload, e.Seed, rep.Trace)
	fmt.Fprintf(w, "env: source=%s go=%s num_cpu=%d gomaxprocs=%d os=%s wal_fs=%s\n",
		e.Source, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.OS, e.WALFilesystem)
	fmt.Fprintf(w, "env: serve_edges_per_s=%d route_per_s=%d poll_ms=%g checkpoint_every=%d batches\n",
		e.ServeEdgesPerS, e.RoutePerS, e.PollMS, e.CheckpointEvery)
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, rep.result.Metrics[d.name].Value, d.unit)
	}
	keys := make([]string, 0, len(rep.Info))
	for k := range rep.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  (%s %g)\n", k, rep.Info[k])
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d failed_frac=%g correct=%v\n",
		rep.result.Attempted, rep.result.Failed, failedFrac(rep.result), rep.result.Correct)
}

func failedFrac(r result) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// writeReport stores the full report, environment included, as JSON under
// the build directory.
func writeReport(cfg config, rep *report) error {
	dir := filepath.Join(cfg.out, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type fileReport struct {
		*report
		Result     result  `json:"result"`
		FailedFrac float64 `json:"failed_frac"`
	}
	b, err := json.MarshalIndent(fileReport{rep, rep.result, failedFrac(rep.result)}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Env.Seed, btoi(rep.Trace))
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
