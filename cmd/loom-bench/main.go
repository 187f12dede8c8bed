// Command loom-bench reruns the paper's evaluation (§5): every table and
// figure, at a laptop-friendly scale, printing paper-style text tables.
//
// Usage:
//
//	loom-bench -exp all
//	loom-bench -exp fig7 -scale 20000 -k 8
//	loom-bench -exp fig9 -datasets musicbrainz
//	loom-bench -exp perf -json BENCH_$(git rev-parse --short HEAD).json
//	loom-bench -exp perf -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiments: table1, fig4, fig7, fig8, fig9, table2, ablation, perf,
// read, hub, recover, all. The perf experiment measures every partitioner's
// streaming cost (ns, allocs and bytes per edge) plus the ipt it buys;
// the read experiment measures the lock-free read path (snapshot latency
// vs assignment size, and read/ingest throughput under contention);
// the hub experiment stresses the matching core's join path on
// adversarial dense-hub and high-overlap window shapes; the recover
// experiment measures the durability subsystem (WAL ingest overhead per
// fsync policy, checkpoint cost, recovery time vs log tail); the route
// experiment measures the placement-serving tier (routing QPS under live
// ingest, replica catch-up vs checkpoint position, scatter fan-out vs
// broadcast); the chaos experiment injects WAL faults — a primary killed
// mid-write, segments pruned out from under a follower, a flipped bit in
// a tailed segment, transient read errors, an fsync-bouncing disk — and
// asserts the supervised serving tier self-heals with zero wrong routes
// (-short trims it to a CI smoke). -json writes
// the perf, read, hub, recover, route or chaos experiment as machine-readable
// JSON ("-" for stdout) so the performance trajectory can be tracked across commits
// (BENCH_*.json).
// -cpuprofile / -memprofile write pprof profiles covering the selected
// experiment, so hot-path work is profileable without a custom harness.
// See EXPERIMENTS.md for how each output maps onto the paper's results.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"loom/internal/bench"
	"loom/internal/simulate"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1, fig4, fig7, fig8, fig9, table2, ablation, extensions, simulate, motifs, perf, read, hub, recover, route, chaos, footprint, all")
		short    = flag.Bool("short", false, "trim the chaos experiment to a CI-smoke scale")
		scale    = flag.Int("scale", 12000, "per-dataset target vertex count")
		seed     = flag.Int64("seed", 42, "seed for generation/shuffles/signatures")
		k        = flag.Int("k", 8, "partitions (fig7/fig9/table2)")
		win      = flag.Int("window", 2048, "Loom window size at harness scale")
		datasets = flag.String("datasets", "", "comma-separated subset (default: dblp,provgen,musicbrainz,lubm)")
		fpEdges  = flag.String("edges", "1e6", "footprint: comma-separated stream edge counts, e.g. 1e6,1e7,1e8")
		jsonOut  = flag.String("json", "", "write the perf, read, hub or recover experiment as JSON to this file (\"-\" for stdout)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile covering the experiment to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the experiment to this file")
	)
	flag.Parse()

	cfg := bench.Config{Scale: *scale, Seed: *seed, K: *k, WindowSize: *win}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	edgeCounts, err := bench.ParseEdgeCounts(*fpEdges)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loom-bench: %v\n", err)
		os.Exit(1)
	}
	if err := withProfiles(*cpuProf, *memProf, func() error {
		if *jsonOut != "" {
			switch *exp {
			case "all", "perf":
				return runPerfJSON(cfg, *jsonOut)
			case "read":
				return runReadJSON(cfg, *jsonOut)
			case "hub":
				return runHubJSON(cfg, *jsonOut)
			case "recover":
				return runRecoverJSON(cfg, *jsonOut)
			case "route":
				return runRouteJSON(cfg, *jsonOut)
			case "chaos":
				return runChaosJSON(cfg, *jsonOut, *short)
			case "footprint":
				return runFootprintJSON(cfg, edgeCounts, *jsonOut)
			default:
				return fmt.Errorf("-json only applies to the perf, read, hub, recover, route, chaos and footprint experiments (got -exp %s)", *exp)
			}
		}
		return run(*exp, cfg, *short, edgeCounts)
	}); err != nil {
		fmt.Fprintf(os.Stderr, "loom-bench: %v\n", err)
		os.Exit(1)
	}
}

// withProfiles runs fn under the requested pprof profiles: the CPU profile
// covers fn exactly, and the heap profile snapshots live allocations after
// fn (and a final GC), the view that matters for steady-state memory.
func withProfiles(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if err := fn(); err != nil {
		return err
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}

// runPerfJSON runs the perf experiment and writes the machine-readable
// report to path ("-" = stdout).
func runPerfJSON(cfg bench.Config, path string) error {
	rep, err := bench.RunPerf(cfg)
	if err != nil {
		return err
	}
	if path == "-" {
		return bench.WritePerfJSON(os.Stdout, rep)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WritePerfJSON(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runHubJSON runs the join-path stress shapes and writes the
// machine-readable report to path ("-" = stdout).
func runHubJSON(cfg bench.Config, path string) error {
	rep, err := bench.RunHub(cfg)
	if err != nil {
		return err
	}
	if path == "-" {
		return bench.WriteHubJSON(os.Stdout, rep)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteHubJSON(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runReadJSON runs the read-path experiment and writes the
// machine-readable report to path ("-" = stdout).
func runReadJSON(cfg bench.Config, path string) error {
	rep, err := bench.RunRead(cfg)
	if err != nil {
		return err
	}
	if path == "-" {
		return bench.WriteReadJSON(os.Stdout, rep)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteReadJSON(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runRecoverJSON runs the durability experiment and writes the
// machine-readable report to path ("-" = stdout).
func runRecoverJSON(cfg bench.Config, path string) error {
	rep, err := bench.RunRecover(cfg)
	if err != nil {
		return err
	}
	if path == "-" {
		return bench.WriteRecoverJSON(os.Stdout, rep)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteRecoverJSON(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runRouteJSON runs the serving-tier experiment and writes the
// machine-readable report to path ("-" = stdout).
func runRouteJSON(cfg bench.Config, path string) error {
	rep, err := bench.RunRoute(cfg)
	if err != nil {
		return err
	}
	if path == "-" {
		return bench.WriteRouteJSON(os.Stdout, rep)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteRouteJSON(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runChaosJSON runs the fault-injection suite and writes the
// machine-readable report to path ("-" = stdout).
func runChaosJSON(cfg bench.Config, path string, short bool) error {
	rep, err := bench.RunChaos(cfg, short)
	if err != nil {
		return err
	}
	if path == "-" {
		return bench.WriteChaosJSON(os.Stdout, rep)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteChaosJSON(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runFootprintJSON runs the memory-footprint sweep and writes the
// machine-readable report to path ("-" = stdout).
func runFootprintJSON(cfg bench.Config, edgeCounts []int64, path string) error {
	rep, err := bench.RunFootprint(cfg, edgeCounts, nil)
	if err != nil {
		return err
	}
	if path == "-" {
		return bench.WriteFootprintJSON(os.Stdout, rep)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteFootprintJSON(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(exp string, cfg bench.Config, short bool, edgeCounts []int64) error {
	runOne := func(name string) error {
		start := time.Now()
		defer func() {
			fmt.Printf("(%s completed in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
		}()
		switch name {
		case "table1":
			rows, err := bench.RunTable1(cfg)
			if err != nil {
				return err
			}
			bench.RenderTable1(os.Stdout, rows)
		case "fig4":
			bench.RenderFig4(os.Stdout, bench.RunFig4())
		case "fig7":
			cells, err := bench.RunFig7(cfg)
			if err != nil {
				return err
			}
			bench.RenderIPTCells(os.Stdout, "Fig. 7: ipt vs Hash, 8-way partitionings, three stream orders", cells)
			fmt.Printf("median Loom ipt reduction vs Fennel: %.1f%%\n", bench.SummarizeLoomVsFennel(cells))
		case "fig8":
			cells, err := bench.RunFig8(cfg)
			if err != nil {
				return err
			}
			bench.RenderIPTCells(os.Stdout, "Fig. 8: ipt vs Hash across k ∈ {2, 8, 32}, breadth-first streams", cells)
			fmt.Printf("median Loom ipt reduction vs Fennel: %.1f%%\n", bench.SummarizeLoomVsFennel(cells))
		case "fig9":
			pts, err := bench.RunFig9(cfg, nil)
			if err != nil {
				return err
			}
			bench.RenderFig9(os.Stdout, pts)
		case "table2":
			rows, err := bench.RunTable2(cfg)
			if err != nil {
				return err
			}
			bench.RenderTable2(os.Stdout, rows)
		case "ablation":
			cells, err := bench.RunAblation(cfg)
			if err != nil {
				return err
			}
			bench.RenderAblation(os.Stdout, cells)
		case "extensions":
			cells, err := bench.RunExtensions(cfg)
			if err != nil {
				return err
			}
			bench.RenderExtensions(os.Stdout, cells)
		case "simulate":
			cells, err := bench.RunSimulation(cfg, simulate.CostModel{})
			if err != nil {
				return err
			}
			bench.RenderSimulation(os.Stdout, cells)
		case "motifs":
			if err := bench.RenderMotifs(os.Stdout, cfg); err != nil {
				return err
			}
		case "perf":
			rep, err := bench.RunPerf(cfg)
			if err != nil {
				return err
			}
			bench.RenderPerf(os.Stdout, rep)
		case "read":
			rep, err := bench.RunRead(cfg)
			if err != nil {
				return err
			}
			bench.RenderRead(os.Stdout, rep)
		case "hub":
			rep, err := bench.RunHub(cfg)
			if err != nil {
				return err
			}
			bench.RenderHub(os.Stdout, rep)
		case "recover":
			rep, err := bench.RunRecover(cfg)
			if err != nil {
				return err
			}
			bench.RenderRecover(os.Stdout, rep)
		case "route":
			rep, err := bench.RunRoute(cfg)
			if err != nil {
				return err
			}
			bench.RenderRoute(os.Stdout, rep)
		case "chaos":
			rep, err := bench.RunChaos(cfg, short)
			if err != nil {
				return err
			}
			bench.RenderChaos(os.Stdout, rep)
		case "footprint":
			rep, err := bench.RunFootprint(cfg, edgeCounts, nil)
			if err != nil {
				return err
			}
			bench.RenderFootprint(os.Stdout, rep)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	if exp == "all" {
		for _, name := range []string{"table1", "fig4", "fig7", "fig8", "table2", "fig9", "ablation", "extensions", "simulate"} {
			if err := runOne(name); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(exp)
}
