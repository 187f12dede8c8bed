package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"loom"

	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/workload"
)

// PerfRow is one partitioner's performance measurement on one dataset and
// ingest mode: streaming cost per edge (time and allocation) plus the
// partitioning quality it buys (ipt, absolute and relative to Hash).
// Since PR 3 the measurement runs through the public concurrent
// loom.Partitioner — the surface producers actually pay, ingest lock
// included — rather than the raw single-threaded streamers.
type PerfRow struct {
	Dataset string `json:"dataset"`
	System  string `json:"system"`
	// Ingest is the ingestion mode measured: "edge" (one AddEdge call per
	// stream element, the historical per-edge path, one lock round-trip
	// per edge) or "batch" (AddBatch over perfBatchSize-edge chunks, one
	// lock round-trip per batch). Placements — and hence ipt — are
	// identical; only the per-edge cost differs.
	Ingest        string  `json:"ingest"`
	Edges         int     `json:"edges"`
	NsPerEdge     float64 `json:"ns_per_edge"`
	AllocsPerEdge float64 `json:"allocs_per_edge"`
	BytesPerEdge  float64 `json:"bytes_per_edge"`
	IPT           float64 `json:"ipt"`
	IPTPctOfHash  float64 `json:"ipt_pct_of_hash"`
}

// PerfReport is the machine-readable output of RunPerf: the harness
// configuration that produced the rows, so BENCH_*.json files from
// different commits are comparable.
type PerfReport struct {
	Scale      int       `json:"scale"`
	Seed       int64     `json:"seed"`
	K          int       `json:"k"`
	WindowSize int       `json:"window_size"`
	Reps       int       `json:"reps"`
	GoVersion  string    `json:"go_version"`
	Rows       []PerfRow `json:"rows"`
}

// perfReps is how many full-stream partitioning runs each timing
// measurement takes the minimum over. Generous because the min is only as
// good as the cleanest window the machine offered each mode.
const perfReps = 9

// perfBatchSize is the chunk size of the batch-ingest measurement — large
// enough to amortise per-call overhead, small enough to be a realistic
// producer batch.
const perfBatchSize = 256

// PerfIngestModes are the ingestion modes RunPerf measures per system.
var PerfIngestModes = []string{"edge", "batch"}

// RunPerf measures every system's streaming cost and partitioning quality
// per dataset and ingest mode, driving the public concurrent
// loom.Partitioner over the dataset's breadth-first stream. Every system
// is measured twice — per-edge AddEdge calls versus
// perfBatchSize-chunk AddBatch calls — since batch ingest is the
// preferred public path; the reported ns/edge is the per-mode MINIMUM over
// perfReps interleaved runs (see perfPair for the methodology), and
// placements are mode-independent (TestAddBatchGoldenIdentical pins
// this), so both rows share one workload
// execution for ipt. RunPerf backs loom-bench's -json output, the perf
// trajectory tracked across commits.
func RunPerf(cfg Config) (*PerfReport, error) {
	cfg = cfg.withDefaults()
	rep := &PerfReport{
		Scale:      cfg.Scale,
		Seed:       cfg.Seed,
		K:          cfg.K,
		WindowSize: cfg.WindowSize,
		Reps:       perfReps,
		GoVersion:  runtime.Version(),
	}
	for _, ds := range cfg.Datasets {
		p, err := prepare(ds, cfg)
		if err != nil {
			return nil, err
		}
		stream := graph.StreamOf(p.g, graph.OrderBFS, nil)
		pubStream := make([]loom.StreamEdge, len(stream))
		for i, se := range stream {
			pubStream[i] = loom.StreamEdge{U: int64(se.U), LU: string(se.LU), V: int64(se.V), LV: string(se.LV)}
		}
		var hashIPT float64
		start := len(rep.Rows)
		for _, sys := range Systems {
			edgeRow, batchRow, err := perfPair(p, sys, pubStream, cfg)
			if err != nil {
				return nil, err
			}
			if sys == "hash" {
				hashIPT = edgeRow.IPT
			}
			rep.Rows = append(rep.Rows, edgeRow, batchRow)
		}
		for i := start; i < len(rep.Rows); i++ {
			if hashIPT > 0 {
				rep.Rows[i].IPTPctOfHash = 100 * rep.Rows[i].IPT / hashIPT
			} else {
				rep.Rows[i].IPTPctOfHash = 100
			}
		}
	}
	return rep, nil
}

// newPublicSystem builds the public concurrent partitioner for one perf
// cell, mirroring newSystem's configuration (recording disabled: the perf
// rows isolate the streaming path; the prepared graph provides ipt).
func newPublicSystem(sys string, p *prepared, cfg Config) (*loom.Partitioner, error) {
	opt := loom.Options{
		Partitions:            cfg.K,
		ExpectedVertices:      p.g.NumVertices(),
		ExpectedEdges:         p.g.NumEdges(),
		WindowSize:            cfg.WindowSize,
		SupportThreshold:      cfg.Threshold,
		Seed:                  cfg.Seed,
		DisableGraphRecording: true,
	}
	if sys == "loom" {
		wl, err := loom.DatasetWorkload(p.name)
		if err != nil {
			return nil, err
		}
		return loom.New(opt, wl)
	}
	return loom.NewBaseline(sys, opt, nil)
}

// perfPair measures one system's per-edge and batch ingest cost through
// the public API, returning one PerfRow per mode.
//
// Methodology: only the ingest section is timed — construction (trie
// building) and the end-of-stream Flush are identical across modes and
// excluded. The two modes run interleaved, one edge rep then one batch rep
// per round, so slow machine drift (noisy neighbours, thermal throttling)
// hits both equally; the reported ns/edge is the minimum over perfReps
// rounds, the noise-robust estimator for what the path costs when the
// machine isn't in the way (GC pauses and scheduler jitter only ever add
// time). Allocation counters are monotonic and GC-independent, so they are
// summed over all reps per mode. The workload executes once for ipt —
// placements are identical across modes by construction (and tested), so
// both rows share it.
func perfPair(p *prepared, sys string, pubStream []loom.StreamEdge, cfg Config) (PerfRow, PerfRow, error) {
	fail := func(err error) (PerfRow, PerfRow, error) { return PerfRow{}, PerfRow{}, err }
	// run ingests the stream in the given mode; elapsed and the allocation
	// deltas cover the ingest section only (construction and Flush are
	// excluded from both, so every column of a row measures one scope).
	run := func(mode string) (pt *loom.Partitioner, elapsed time.Duration, allocs, bytes uint64, err error) {
		pt, err = newPublicSystem(sys, p, cfg)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		switch mode {
		case "edge":
			for _, se := range pubStream {
				pt.AddEdge(se.U, se.LU, se.V, se.LV)
			}
		case "batch":
			for i := 0; i < len(pubStream); i += perfBatchSize {
				end := i + perfBatchSize
				if end > len(pubStream) {
					end = len(pubStream)
				}
				if err := pt.AddBatch(pubStream[i:end]); err != nil {
					return nil, 0, 0, 0, err
				}
			}
		default:
			return nil, 0, 0, 0, fmt.Errorf("bench: unknown ingest mode %q", mode)
		}
		elapsed = time.Since(start)
		runtime.ReadMemStats(&m1)
		pt.Flush()
		return pt, elapsed, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, nil
	}
	// Warm-up run; its assignment also provides the ipt measurement.
	s, _, _, _, err := run("batch")
	if err != nil {
		return fail(err)
	}
	runtime.GC()
	best := map[string]time.Duration{}
	allocs := map[string]uint64{}
	bytes := map[string]uint64{}
	for i := 0; i < perfReps; i++ {
		for _, mode := range PerfIngestModes {
			_, elapsed, al, by, err := run(mode)
			if err != nil {
				return fail(err)
			}
			if d, ok := best[mode]; !ok || elapsed < d {
				best[mode] = elapsed
			}
			allocs[mode] += al
			bytes[mode] += by
		}
	}

	parts := make(map[graph.VertexID]partition.ID)
	s.Snapshot().Each(func(v int64, part int) { parts[graph.VertexID(v)] = partition.ID(part) })
	a := partition.AssignmentOf(cfg.K, parts)
	res, err := workload.Execute(p.g, a, p.wl, workload.Options{MaxMatchesPerQuery: cfg.MaxMatches})
	if err != nil {
		return fail(err)
	}
	row := func(mode string) PerfRow {
		edges := perfReps * len(pubStream)
		return PerfRow{
			Dataset:       p.name,
			System:        sys,
			Ingest:        mode,
			Edges:         len(pubStream),
			NsPerEdge:     float64(best[mode].Nanoseconds()) / float64(len(pubStream)),
			AllocsPerEdge: float64(allocs[mode]) / float64(edges),
			BytesPerEdge:  float64(bytes[mode]) / float64(edges),
			IPT:           res.IPT,
			IPTPctOfHash:  100,
		}
	}
	return row("edge"), row("batch"), nil
}

// WritePerfJSON writes the report as indented JSON.
func WritePerfJSON(w io.Writer, rep *PerfReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// RenderPerf writes the report as an aligned text table.
func RenderPerf(w io.Writer, rep *PerfReport) {
	fmt.Fprintf(w, "Streaming perf (scale %d, k %d, window %d, %d reps)\n",
		rep.Scale, rep.K, rep.WindowSize, rep.Reps)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tsystem\tingest\tns/edge\tallocs/edge\tB/edge\tipt\t% of hash")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f\t%.3f\t%.0f\t%.0f\t%.1f%%\n",
			r.Dataset, r.System, r.Ingest, r.NsPerEdge, r.AllocsPerEdge, r.BytesPerEdge,
			r.IPT, r.IPTPctOfHash)
	}
	tw.Flush()
}
