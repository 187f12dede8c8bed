// Command loom-bench reruns the paper's evaluation (§5): every table and
// figure, at a laptop-friendly scale, printing paper-style text tables.
//
// Usage:
//
//	loom-bench -exp all
//	loom-bench -exp fig7 -scale 20000 -k 8
//	loom-bench -exp fig9 -datasets musicbrainz
//	loom-bench -exp table2 -cpuprofile cpu.pprof -memprofile mem.pprof
//	loom-bench -exp footprint -edges 1e6,1e7 -json footprint.json
//
// Paper experiments: table1, fig4, fig7, fig8, fig9, table2, ablation,
// plus extensions, simulate and motifs; all runs the paper set. Two more
// experiments cover what the paper does not: chaos injects WAL faults — a
// primary killed mid-write, segments pruned out from under a follower, a
// flipped bit in a tailed segment, transient read errors, an
// fsync-bouncing disk — and asserts the supervised serving tier self-heals
// with zero wrong routes (-short trims it to a CI smoke); footprint
// partitions power-law streams of up to 10⁸ edges and reports bytes per
// recorded edge, ns/edge and peak RSS, in memory and spill mode. -json
// writes the chaos or footprint report as JSON ("-" for stdout).
// -cpuprofile / -memprofile write pprof profiles covering the selected
// experiment, so hot-path work is profileable without a custom harness.
//
// Throughput, latency and replica lag are measured by the benchmark in
// perfbench/ (perfbench/README.md), not here. See EXPERIMENTS.md for how
// each output maps onto the paper's results.
package main

import (
	"encoding/json"
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
		exp      = flag.String("exp", "all", "experiment: table1, fig4, fig7, fig8, fig9, table2, ablation, extensions, simulate, motifs, chaos, footprint, all")
		short    = flag.Bool("short", false, "trim the chaos experiment to a CI-smoke scale")
		scale    = flag.Int("scale", 12000, "per-dataset target vertex count")
		seed     = flag.Int64("seed", 42, "seed for generation/shuffles/signatures")
		k        = flag.Int("k", 8, "partitions (fig7/fig9/table2)")
		win      = flag.Int("window", 2048, "Loom window size at harness scale")
		datasets = flag.String("datasets", "", "comma-separated subset (default: dblp,provgen,musicbrainz,lubm)")
		fpEdges  = flag.String("edges", "1e6", "footprint: comma-separated stream edge counts, e.g. 1e6,1e7,1e8")
		jsonOut  = flag.String("json", "", "write the chaos or footprint experiment as JSON to this file (\"-\" for stdout)")
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
			rep, err := report(*exp, cfg, *short, edgeCounts)
			if err != nil {
				return err
			}
			return writeJSON(*jsonOut, rep)
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

// report runs one of the experiments that have a machine-readable report:
// chaos (the supervised serving tier's fault-injection harness) and
// footprint (the bounded-memory sweep).
func report(exp string, cfg bench.Config, short bool, edgeCounts []int64) (any, error) {
	switch exp {
	case "chaos":
		return bench.RunChaos(cfg, short)
	case "footprint":
		return bench.RunFootprint(cfg, edgeCounts, nil)
	}
	return nil, fmt.Errorf("-json only applies to the chaos and footprint experiments (got -exp %s)", exp)
}

// writeJSON writes rep as indented JSON to path ("-" = stdout).
func writeJSON(path string, rep any) (err error) {
	out := os.Stdout
	if path != "-" {
		if out, err = os.Create(path); err != nil {
			return err
		}
		defer func() {
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}()
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func run(exp string, cfg bench.Config, short bool, edgeCounts []int64) error {
	runOne := func(name string) (err error) {
		start := time.Now()
		defer func() {
			if err == nil {
				fmt.Printf("(%s completed in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
			}
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
