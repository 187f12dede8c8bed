package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"loom"
	"loom/router"
)

// The route experiment measures the placement-serving tier: routing
// decisions per second against a live mirror while ingest runs, replica
// catch-up time as a function of where in the stream the checkpoint was
// taken, and scatter-gather plan fan-out against the naive broadcast.

// RouteMixRow is one cell of the routing-QPS sweep: one producer
// streaming AddBatch into a mirrored partitioner while Routers goroutines
// hammer Mirror.Lookup.
type RouteMixRow struct {
	Dataset         string  `json:"dataset"`
	Routers         int     `json:"routers"`
	Edges           int     `json:"edges"`
	IngestNsPerEdge float64 `json:"ingest_ns_per_edge"`
	// IngestVsSolo is this cell's ingest time relative to the routers=0
	// cell (1.00 = routing is free for the writer).
	IngestVsSolo float64 `json:"ingest_vs_solo"`
	RoutesPerSec float64 `json:"routes_per_sec"`
	RouteNs      float64 `json:"route_ns"`
}

// RouteCatchupRow is one cell of the catch-up sweep: a primary
// checkpointed at Position of the stream, followed read-only by a
// replica that bootstraps and drains the tail.
type RouteCatchupRow struct {
	Dataset  string  `json:"dataset"`
	Position float64 `json:"position"` // checkpoint position, fraction of the stream
	Edges    int     `json:"edges"`
	// TailRecords is the log records past the checkpoint the replica
	// replays to catch up.
	TailRecords int `json:"tail_records"`
	// Placements the replica serves once caught up.
	Placements int     `json:"placements"`
	CatchupMs  float64 `json:"catchup_ms"`
}

// RouteScatterRow summarises scatter-gather planning for one motif on one
// dataset: the average partitions contacted against the broadcast k.
type RouteScatterRow struct {
	Dataset   string  `json:"dataset"`
	Motif     string  `json:"motif"`
	Diameter  int     `json:"diameter"`
	Seeds     int     `json:"seeds"`
	AvgFanout float64 `json:"avg_fanout"`
	Broadcast int     `json:"broadcast"` // the k a naive plan contacts
	// Narrower is the fraction of plans contacting strictly fewer
	// partitions than broadcast.
	Narrower float64 `json:"narrower"`
}

// RouteReport is the machine-readable output of RunRoute.
type RouteReport struct {
	Seed       int64             `json:"seed"`
	K          int               `json:"k"`
	WindowSize int               `json:"window_size"`
	BatchSize  int               `json:"batch_size"`
	Reps       int               `json:"reps"`
	NumCPU     int               `json:"num_cpu"`
	GoMaxProcs int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Mix        []RouteMixRow     `json:"mix"`
	Catchup    []RouteCatchupRow `json:"catchup"`
	Scatter    []RouteScatterRow `json:"scatter"`
}

// RouteRouterSweep is the concurrent router-reader counts of the QPS sweep.
var RouteRouterSweep = []int{0, 1, 4}

// RouteCatchupSweep is the checkpoint positions of the catch-up sweep.
var RouteCatchupSweep = []float64{0.25, 0.50, 0.75}

const routeBatchSize = 2048
const routeReps = 3

// mirroredStream builds a Loom partitioner with an attached mirror over
// one dataset's stream, ready to ingest.
func mirroredStream(ds string, cfg Config) (*loom.Partitioner, *router.Mirror, []loom.StreamEdge, *loom.Workload, error) {
	stream, err := loom.GenerateDataset(ds, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	stream, err = loom.OrderStream(stream, "bfs", cfg.Seed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	wl, err := loom.DatasetWorkload(ds)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	seen := map[int64]bool{}
	for _, e := range stream {
		seen[e.U], seen[e.V] = true, true
	}
	p, err := loom.New(loom.Options{
		Partitions:            cfg.K,
		ExpectedVertices:      len(seen),
		WindowSize:            cfg.WindowSize,
		SupportThreshold:      cfg.Threshold,
		Seed:                  cfg.Seed,
		DisableGraphRecording: true,
	}, wl)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	m := router.New()
	m.Attach(p)
	return p, m, stream, wl, nil
}

// routeMix runs one dataset through AddBatch with routers hammering
// Mirror.Lookup — the full serving path (mirror table + pinned
// generation), not the partitioner's own Snapshot.
func routeMix(ds string, routers int, cfg Config) (RouteMixRow, error) {
	row := RouteMixRow{Dataset: ds, Routers: routers}
	bestIngest := time.Duration(1<<63 - 1)
	for rep := 0; rep < routeReps; rep++ {
		p, m, stream, _, err := mirroredStream(ds, cfg)
		if err != nil {
			return RouteMixRow{}, err
		}
		row.Edges = len(stream)
		var done atomic.Bool
		var routes atomic.Int64
		var routeNanos atomic.Int64
		var wg sync.WaitGroup
		for r := 0; r < routers; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				n := int64(0)
				for i := r; ; i += 7 {
					m.Lookup(stream[i%len(stream)].U)
					n++
					if n&1023 == 0 && done.Load() {
						break
					}
				}
				routes.Add(n)
				routeNanos.Add(time.Since(start).Nanoseconds())
			}()
		}

		ingestStart := time.Now()
		for i := 0; i < len(stream); i += routeBatchSize {
			end := min(i+routeBatchSize, len(stream))
			if err := p.AddBatch(stream[i:end]); err != nil {
				done.Store(true)
				wg.Wait()
				return RouteMixRow{}, err
			}
		}
		ingest := time.Since(ingestStart)
		done.Store(true)
		wg.Wait()
		p.Flush()
		if err := p.Err(); err != nil {
			return RouteMixRow{}, err
		}
		if ingest < bestIngest {
			bestIngest = ingest
			if n := routes.Load(); n > 0 {
				perRouter := float64(routeNanos.Load()) / float64(routers)
				row.RoutesPerSec = float64(n) * 1e9 / perRouter
				row.RouteNs = float64(routeNanos.Load()) / float64(n)
			}
		}
	}
	row.IngestNsPerEdge = float64(bestIngest.Nanoseconds()) / float64(row.Edges)
	return row, nil
}

// routeCatchup checkpoints a durable primary at position frac of the
// stream, finishes the stream, then times a read-only replica's full
// catch-up: Follow (checkpoint restore + tail replay), mirror attach, and
// polling the log dry.
func routeCatchup(ds string, frac float64, cfg Config) (RouteCatchupRow, error) {
	stream, err := loom.GenerateDataset(ds, cfg.Scale, cfg.Seed)
	if err != nil {
		return RouteCatchupRow{}, err
	}
	stream, err = loom.OrderStream(stream, "bfs", cfg.Seed)
	if err != nil {
		return RouteCatchupRow{}, err
	}
	wl, err := loom.DatasetWorkload(ds)
	if err != nil {
		return RouteCatchupRow{}, err
	}
	seen := map[int64]bool{}
	for _, e := range stream {
		seen[e.U], seen[e.V] = true, true
	}
	tmp, err := os.MkdirTemp("", "loom-bench-route-*")
	if err != nil {
		return RouteCatchupRow{}, err
	}
	defer os.RemoveAll(tmp)

	opt := loom.Options{
		Partitions:            cfg.K,
		ExpectedVertices:      len(seen),
		WindowSize:            cfg.WindowSize,
		SupportThreshold:      cfg.Threshold,
		Seed:                  cfg.Seed,
		DisableGraphRecording: true,
		WALDir:                tmp,
	}
	p, _, err := loom.Open(opt, wl)
	if err != nil {
		return RouteCatchupRow{}, err
	}
	cut := int(frac * float64(len(stream)))
	for i := 0; i < cut; i += routeBatchSize {
		end := min(i+routeBatchSize, cut)
		if err := p.AddBatch(stream[i:end]); err != nil {
			return RouteCatchupRow{}, err
		}
	}
	if _, err := p.Checkpoint(); err != nil {
		return RouteCatchupRow{}, err
	}
	for i := cut; i < len(stream); i += routeBatchSize {
		end := min(i+routeBatchSize, len(stream))
		if err := p.AddBatch(stream[i:end]); err != nil {
			return RouteCatchupRow{}, err
		}
	}
	p.Flush()
	if err := p.Close(); err != nil { // sync: the whole log is on disk
		return RouteCatchupRow{}, err
	}

	row := RouteCatchupRow{Dataset: ds, Position: frac, Edges: len(stream)}
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < routeReps; rep++ {
		start := time.Now()
		f, info, err := loom.Follow(opt, wl)
		if err != nil {
			return RouteCatchupRow{}, err
		}
		m := router.New()
		m.Attach(f.Partitioner())
		for {
			n, err := f.Poll()
			if err != nil {
				return RouteCatchupRow{}, err
			}
			if n == 0 {
				break
			}
		}
		elapsed := time.Since(start)
		if elapsed < best {
			best = elapsed
		}
		row.TailRecords = info.ReplayedRecords
		row.Placements = m.Stats().GenAssigned
		f.Close()
	}
	row.CatchupMs = float64(best.Nanoseconds()) / 1e6
	return row, nil
}

// routeScatter ingests one dataset with a mirrored partitioner and plans
// every registered motif from every seed the mirror sampled a motif
// neighbourhood for, reporting average fan-out against broadcast.
func routeScatter(ds string, cfg Config) ([]RouteScatterRow, error) {
	p, m, stream, wl, err := mirroredStream(ds, cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(stream); i += routeBatchSize {
		end := min(i+routeBatchSize, len(stream))
		if err := p.AddBatch(stream[i:end]); err != nil {
			return nil, err
		}
	}
	p.Flush()
	if err := p.Err(); err != nil {
		return nil, err
	}

	pl := router.NewPlanner(m, wl.Queries(), cfg.K)
	var rows []RouteScatterRow
	for _, q := range pl.Motifs() {
		row := RouteScatterRow{Dataset: ds, Motif: q.Name, Diameter: q.Diameter, Broadcast: cfg.K}
		totalFanout, narrower := 0, 0
		seen := map[int64]bool{}
		for _, e := range stream {
			for _, v := range []int64{e.U, e.V} {
				if seen[v] || len(m.Neighbors(v)) == 0 {
					continue
				}
				seen[v] = true
				plan, err := pl.Scatter(v, q.Name)
				if err != nil {
					return nil, err
				}
				if plan.Broadcast {
					continue
				}
				row.Seeds++
				totalFanout += plan.Fanout
				if plan.Fanout < cfg.K {
					narrower++
				}
			}
		}
		if row.Seeds > 0 {
			row.AvgFanout = float64(totalFanout) / float64(row.Seeds)
			row.Narrower = float64(narrower) / float64(row.Seeds)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunRoute measures the serving tier: routing throughput under live
// ingest, replica catch-up vs checkpoint position, and scatter-plan
// fan-out vs broadcast.
func RunRoute(cfg Config) (*RouteReport, error) {
	cfg = cfg.withDefaults()
	rep := &RouteReport{
		Seed:       cfg.Seed,
		K:          cfg.K,
		WindowSize: cfg.WindowSize,
		BatchSize:  routeBatchSize,
		Reps:       routeReps,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	for _, ds := range cfg.Datasets {
		var solo float64
		for _, routers := range RouteRouterSweep {
			row, err := routeMix(ds, routers, cfg)
			if err != nil {
				return nil, err
			}
			if routers == 0 {
				solo = row.IngestNsPerEdge
			}
			if solo > 0 {
				row.IngestVsSolo = row.IngestNsPerEdge / solo
			}
			rep.Mix = append(rep.Mix, row)
		}
		for _, frac := range RouteCatchupSweep {
			row, err := routeCatchup(ds, frac, cfg)
			if err != nil {
				return nil, err
			}
			rep.Catchup = append(rep.Catchup, row)
		}
		rows, err := routeScatter(ds, cfg)
		if err != nil {
			return nil, err
		}
		rep.Scatter = append(rep.Scatter, rows...)
	}
	return rep, nil
}

// WriteRouteJSON writes the report as indented JSON.
func WriteRouteJSON(w io.Writer, rep *RouteReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// RenderRoute writes the report as aligned text tables.
func RenderRoute(w io.Writer, rep *RouteReport) {
	fmt.Fprintf(w, "Routing QPS under live ingest: one AddBatch producer, N Mirror.Lookup routers (k %d, window %d, batch %d, %d CPUs)\n",
		rep.K, rep.WindowSize, rep.BatchSize, rep.NumCPU)
	if rep.NumCPU == 1 {
		fmt.Fprintln(w, "NOTE: single-CPU machine — routers and the producer share one core; router cost measures scheduling, not contention")
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\trouters\tingest ns/edge\tvs solo\troutes/s\troute ns")
	for _, r := range rep.Mix {
		if r.Routers == 0 {
			fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.2f×\t-\t-\n", r.Dataset, r.Routers, r.IngestNsPerEdge, r.IngestVsSolo)
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.2f×\t%.1fM\t%.1f\n",
			r.Dataset, r.Routers, r.IngestNsPerEdge, r.IngestVsSolo, r.RoutesPerSec/1e6, r.RouteNs)
	}
	tw.Flush()

	fmt.Fprintf(w, "\nReplica catch-up vs checkpoint position (read-only Follow: bootstrap + drain the tail, best of %d)\n", rep.Reps)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tckpt at\ttail records\tplacements\tcatch-up ms")
	for _, r := range rep.Catchup {
		fmt.Fprintf(tw, "%s\t%.0f%%\t%d\t%d\t%.1f\n", r.Dataset, 100*r.Position, r.TailRecords, r.Placements, r.CatchupMs)
	}
	tw.Flush()

	fmt.Fprintln(w, "\nScatter-gather fan-out vs broadcast (plans over the mirror's motif adjacency sample)")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tmotif\tdiameter\tseeds\tavg fanout\tbroadcast\tnarrower")
	for _, r := range rep.Scatter {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.2f\t%d\t%.0f%%\n",
			r.Dataset, r.Motif, r.Diameter, r.Seeds, r.AvgFanout, r.Broadcast, 100*r.Narrower)
	}
	tw.Flush()
}
