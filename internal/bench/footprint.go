package bench

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"loom"
	"loom/internal/dataset"
)

// FootprintRow is one cell of the memory-footprint sweep: a synthetic
// power-law stream of StreamEdges edges partitioned to completion with
// graph recording on, in one storage mode.
type FootprintRow struct {
	// Mode is "memory" (whole edge log resident) or "spill" (frozen log
	// chunks written to disk, see loom.Options.SpillDir).
	Mode string `json:"mode"`
	// StreamEdges is the raw stream length; RecordedEdges is what survived
	// dedup and self-loop filtering (the denominator of BytesPerEdge).
	StreamEdges   int64   `json:"stream_edges"`
	RecordedEdges int     `json:"recorded_edges"`
	Vertices      int     `json:"vertices"`
	NsPerEdge     float64 `json:"ns_per_edge"`
	// BytesPerEdge is the recorded graph's resident bytes (MemStats.Total,
	// which excludes spilled chunk files) per recorded edge — the number
	// the ≤ 16 B/edge budget is stated against (in-memory mode).
	BytesPerEdge float64 `json:"graph_bytes_per_recorded_edge"`
	VertexBytes  int     `json:"vertex_bytes"`
	AdjBytes     int     `json:"adj_bytes"`
	EdgeSetBytes int     `json:"edge_set_bytes"`
	LogBytes     int     `json:"log_bytes"`
	SpilledBytes int64   `json:"spilled_bytes"`
	GraphBytes   int     `json:"graph_total_bytes"`
	// HeapAllocBytes is the live Go heap after a forced GC at the end of
	// the cell — the per-cell resident-set signal (each cell builds its
	// partitioner from scratch, so this is what the cell keeps alive).
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	// MaxRSSKB is the process high-water mark (VmHWM) after the cell.
	// Monotone across cells within one run; compare cells with care.
	MaxRSSKB int64 `json:"max_rss_kb"`
}

// FootprintReport is the machine-readable output of RunFootprint.
type FootprintReport struct {
	Seed       int64          `json:"seed"`
	K          int            `json:"k"`
	WindowSize int            `json:"window_size"`
	Skew       float64        `json:"skew"`
	NumCPU     int            `json:"num_cpu"`
	GoVersion  string         `json:"go_version"`
	Rows       []FootprintRow `json:"rows"`
}

// footprintBatch is the AddBatch chunk size of the sweep: big enough to
// amortise batch setup, small enough that the batch buffer itself never
// shows up in the footprint.
const footprintBatch = 4096

// footprintSkew is the Zipf exponent of the synthetic stream — skewed
// enough that hubs exercise the adjacency tail-compression path hard.
const footprintSkew = 1.25

// FootprintWorkload is the fixed query mix the sweep partitions under: a
// 2-path over the stream's label alphabet, the cheapest motif that still
// keeps Loom's window and TPSTry on the hot path.
func FootprintWorkload() *loom.Workload {
	return loom.NewWorkload("footprint").Add("path", loom.Path("A", "B", "C"), 1)
}

// RunFootprint partitions synthetic power-law streams of the given edge
// counts to completion — once per mode — and reports the recorded graph's
// storage cost per edge, ingest speed, and process memory. Modes are
// "memory" and/or "spill"; spill cells write frozen edge-log chunks under
// a throwaway directory that is removed before returning.
func RunFootprint(cfg Config, edgeCounts []int64, modes []string) (*FootprintReport, error) {
	cfg = cfg.withDefaults()
	if len(edgeCounts) == 0 {
		edgeCounts = []int64{1_000_000}
	}
	if len(modes) == 0 {
		modes = []string{"memory", "spill"}
	}
	rep := &FootprintReport{
		Seed:       cfg.Seed,
		K:          cfg.K,
		WindowSize: cfg.WindowSize,
		Skew:       footprintSkew,
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	for _, edges := range edgeCounts {
		for _, mode := range modes {
			fmt.Fprintf(os.Stderr, "footprint: %s %g edges...\n", mode, float64(edges))
			row, err := footprintCell(cfg, mode, edges)
			if err != nil {
				return nil, fmt.Errorf("bench: footprint %s %d edges: %w", mode, edges, err)
			}
			fmt.Fprintf(os.Stderr, "footprint: %s %g done: %d recorded, %.1f B/edge, %.0f ns/edge\n",
				mode, float64(edges), row.RecordedEdges, row.BytesPerEdge, row.NsPerEdge)
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

func footprintCell(cfg Config, mode string, edges int64) (FootprintRow, error) {
	// One vertex per ~1k stream edges: dense enough that per-vertex fixed
	// state amortises (recorded average degree ~100+ at scale), the regime
	// the bounded-memory store is built for.
	verts := edges / 1024
	if verts < 16 {
		verts = 16
	}
	gen, err := dataset.NewStreamGen(dataset.StreamSpec{
		Mode: "powerlaw", Edges: edges, Vertices: verts,
		Skew: footprintSkew, Seed: cfg.Seed,
	})
	if err != nil {
		return FootprintRow{}, err
	}
	// ExpectedEdges is deliberately left zero: a Zipf stream dedups
	// heavily, so pre-sizing the duplicate-edge set for the raw stream
	// length would bake over-reservation into the B/edge figure. Letting
	// it grow to fit measures what the structure actually needs.
	opt := loom.Options{
		Partitions:       cfg.K,
		ExpectedVertices: int(verts),
		WindowSize:       cfg.WindowSize,
		SupportThreshold: cfg.Threshold,
		Seed:             cfg.Seed,
	}
	switch mode {
	case "memory":
	case "spill":
		dir, err := os.MkdirTemp("", "loom-footprint-*")
		if err != nil {
			return FootprintRow{}, err
		}
		defer os.RemoveAll(dir)
		opt.SpillDir = dir
	default:
		return FootprintRow{}, fmt.Errorf("unknown mode %q (want memory or spill)", mode)
	}
	p, err := loom.New(opt, FootprintWorkload())
	if err != nil {
		return FootprintRow{}, err
	}
	batch := make([]loom.StreamEdge, 0, footprintBatch)
	start := time.Now()
	for {
		e, ok := gen.Next()
		if !ok {
			break
		}
		batch = append(batch, loom.StreamEdge{
			U: int64(e.U), LU: string(e.LU), V: int64(e.V), LV: string(e.LV),
		})
		if len(batch) == footprintBatch {
			if err := p.AddBatch(batch); err != nil {
				return FootprintRow{}, err
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := p.AddBatch(batch); err != nil {
			return FootprintRow{}, err
		}
	}
	p.Flush()
	elapsed := time.Since(start)
	if err := p.Err(); err != nil {
		return FootprintRow{}, err
	}
	// Compact in both modes: it shrinks adjacency slack everywhere and
	// flushes frozen log chunks to disk in spill mode — exactly what a
	// long-running deployment does at every checkpoint.
	if err := p.GraphCompact(); err != nil {
		return FootprintRow{}, err
	}
	mem, ok := p.GraphMemory()
	if !ok {
		return FootprintRow{}, fmt.Errorf("graph recording unexpectedly disabled")
	}
	nv, ne, _ := p.GraphSize()
	if ne == 0 {
		return FootprintRow{}, fmt.Errorf("no edges recorded")
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	row := FootprintRow{
		Mode:           mode,
		StreamEdges:    edges,
		RecordedEdges:  ne,
		Vertices:       nv,
		NsPerEdge:      float64(elapsed.Nanoseconds()) / float64(edges),
		BytesPerEdge:   float64(mem.Total) / float64(ne),
		VertexBytes:    mem.VertexBytes + mem.LabelBytes,
		AdjBytes:       mem.AdjBytes,
		EdgeSetBytes:   mem.EdgeSetBytes,
		LogBytes:       mem.LogBytes,
		SpilledBytes:   mem.SpilledBytes,
		GraphBytes:     mem.Total,
		HeapAllocBytes: ms.HeapAlloc,
		MaxRSSKB:       readVmHWMKB(),
	}
	// Keep p alive past ReadMemStats so HeapAllocBytes includes the graph.
	runtime.KeepAlive(p)
	return row, nil
}

// readVmHWMKB returns the process peak resident set (VmHWM) in KiB from
// /proc/self/status, or 0 where the proc filesystem is unavailable.
func readVmHWMKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}

// ParseEdgeCounts parses a comma-separated list like "1e6,1e7,1e8" (plain
// integers also accepted) into edge counts for RunFootprint. Each count
// must be a whole number in [1, 2⁶³): NaN, ±Inf, fractions such as 2.5
// and values past int64 are rejected rather than converted.
func ParseEdgeCounts(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := strconv.ParseFloat(part, 64)
		if err != nil || !(f >= 1 && f < 1<<63) || f != math.Trunc(f) {
			return nil, fmt.Errorf("bench: bad edge count %q", part)
		}
		out = append(out, int64(f))
	}
	return out, nil
}

// RenderFootprint prints the paper-style text table.
func RenderFootprint(w io.Writer, rep *FootprintReport) {
	fmt.Fprintf(w, "Memory footprint (power-law stream, skew %.1f, k=%d, window %d)\n",
		rep.Skew, rep.K, rep.WindowSize)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tstream |E|\trecorded |E|\t|V|\tB/edge\tadj\teset\tlog\tspilled\tns/edge\tpeak RSS")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.2f\t%s\t%s\t%s\t%s\t%.0f\t%s\n",
			r.Mode, r.StreamEdges, r.RecordedEdges, r.Vertices, r.BytesPerEdge,
			fmtBytes(int64(r.AdjBytes)), fmtBytes(int64(r.EdgeSetBytes)),
			fmtBytes(int64(r.LogBytes)), fmtBytes(r.SpilledBytes),
			r.NsPerEdge, fmtBytes(r.MaxRSSKB*1024))
	}
	tw.Flush()
	fmt.Fprintln(w, "B/edge is recorded-graph resident bytes per recorded edge (spilled chunks excluded).")
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
