package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"loom"
	"loom/internal/graph"
	"loom/internal/partition"
)

// The read experiment measures the copy-on-write read path: how much a
// snapshot costs as the assignment grows (it should not grow with it), and
// what concurrent readers cost a live ingest (they should cost nothing).

// ReadLatencyRow is one cell of the snapshot-latency sweep: the cost of
// Partitioner.Snapshot (an atomic epoch grab) against the historical O(V)
// deep clone at the same vertex count.
type ReadLatencyRow struct {
	Vertices   int     `json:"vertices"`
	SnapshotNs float64 `json:"snapshot_ns"`
	CloneNs    float64 `json:"clone_ns"`
	Speedup    float64 `json:"speedup"`
}

// ReadMixRow is one cell of the mixed read/ingest sweep: one producer
// streaming AddBatch while Readers goroutines hammer PartitionOf.
type ReadMixRow struct {
	Dataset         string  `json:"dataset"`
	Readers         int     `json:"readers"`
	Edges           int     `json:"edges"`
	IngestNsPerEdge float64 `json:"ingest_ns_per_edge"`
	// IngestVsSolo is this cell's ingest time relative to the readers=0
	// cell (1.00 = readers are free for the writer).
	IngestVsSolo float64 `json:"ingest_vs_solo"`
	ReadsPerSec  float64 `json:"reads_per_sec"`
	ReadNs       float64 `json:"read_ns"`
}

// ReadReport is the machine-readable output of RunRead.
type ReadReport struct {
	Seed       int64            `json:"seed"`
	K          int              `json:"k"`
	WindowSize int              `json:"window_size"`
	BatchSize  int              `json:"batch_size"`
	Reps       int              `json:"reps"`
	NumCPU     int              `json:"num_cpu"`
	GoMaxProcs int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	Latency    []ReadLatencyRow `json:"latency"`
	Mix        []ReadMixRow     `json:"mix"`
}

// ReadVertexSweep is the assignment sizes the snapshot-latency sweep visits.
var ReadVertexSweep = []int{1 << 14, 1 << 17, 1 << 20}

// ReadReaderSweep is the concurrent reader counts of the mixed sweep.
var ReadReaderSweep = []int{0, 1, 2, 4}

// readBatchSize is the AddBatch chunk size used throughout.
const readBatchSize = 2048

// readReps is how many rounds each timed cell takes the minimum over.
const readReps = 3

// readLatency times Partitioner.Snapshot and the O(V) Tracker clone at one
// assignment size. The partitioner is a hash baseline (placement cost must
// not pollute a read measurement) filled with n fresh vertices.
func readLatency(n int, cfg Config) (ReadLatencyRow, error) {
	p, err := loom.NewBaseline("hash", loom.Options{
		Partitions:            cfg.K,
		ExpectedVertices:      n,
		DisableGraphRecording: true,
	}, nil)
	if err != nil {
		return ReadLatencyRow{}, err
	}
	batch := make([]loom.StreamEdge, 0, readBatchSize)
	for v := int64(0); v < int64(n); v += 2 {
		batch = append(batch, loom.StreamEdge{U: v, LU: "a", V: v + 1, LV: "b"})
		if len(batch) == readBatchSize {
			if err := p.AddBatch(batch); err != nil {
				return ReadLatencyRow{}, err
			}
			batch = batch[:0]
		}
	}
	if err := p.AddBatch(batch); err != nil {
		return ReadLatencyRow{}, err
	}
	p.Flush()
	if got := p.Snapshot().NumAssigned(); got != n {
		return ReadLatencyRow{}, fmt.Errorf("bench: read sweep assigned %d of %d vertices", got, n)
	}

	// The clone baseline: a Tracker of the same size, deep-copied per call —
	// exactly what Snapshot cost before the paged epochs.
	tr := partition.NewTracker(cfg.K, partition.CapacityFor(n, cfg.K, partition.DefaultImbalance))
	tr.Reserve(n)
	for v := 0; v < n; v++ {
		tr.Assign(graph.VertexID(v), partition.ID(v%cfg.K))
	}

	timeOp := func(iters int, op func()) float64 {
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < readReps; rep++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				op()
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return float64(best.Nanoseconds()) / float64(iters)
	}
	row := ReadLatencyRow{
		Vertices: n,
		// Snapshot is O(1): thousands of iterations cost microseconds.
		SnapshotNs: timeOp(10_000, func() { _ = p.Snapshot() }),
		// The clone is O(V): a handful of iterations is already seconds of
		// work at a million vertices.
		CloneNs: timeOp(3, func() { _ = tr.Snapshot() }),
	}
	row.Speedup = row.CloneNs / row.SnapshotNs
	return row, nil
}

// readMix runs one dataset through AddBatch with readers hammering
// PartitionOf, and reports both sides' throughput. Loom itself (not a
// baseline) ingests: the cell must include the full placement pipeline the
// writer really runs.
func readMix(ds string, readers int, cfg Config) (ReadMixRow, error) {
	stream, err := loom.GenerateDataset(ds, cfg.Scale, cfg.Seed)
	if err != nil {
		return ReadMixRow{}, err
	}
	stream, err = loom.OrderStream(stream, "bfs", cfg.Seed)
	if err != nil {
		return ReadMixRow{}, err
	}
	wl, err := loom.DatasetWorkload(ds)
	if err != nil {
		return ReadMixRow{}, err
	}
	seen := map[int64]bool{}
	for _, e := range stream {
		seen[e.U], seen[e.V] = true, true
	}
	opt := loom.Options{
		Partitions:            cfg.K,
		ExpectedVertices:      len(seen),
		WindowSize:            cfg.WindowSize,
		SupportThreshold:      cfg.Threshold,
		Seed:                  cfg.Seed,
		DisableGraphRecording: true,
	}

	row := ReadMixRow{Dataset: ds, Readers: readers, Edges: len(stream)}
	bestIngest := time.Duration(1<<63 - 1)
	for rep := 0; rep < readReps; rep++ {
		p, err := loom.New(opt, wl)
		if err != nil {
			return ReadMixRow{}, err
		}
		var done atomic.Bool
		var reads atomic.Int64
		var readNanos atomic.Int64
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				n := int64(0)
				// Poll the stop flag once per 1024 reads: the check stays
				// off the measured path, and even an ingest too short to
				// overlap the reader still yields a real sample.
				for i := r; ; i += 7 {
					v := stream[i%len(stream)].U
					p.Snapshot().PartitionOf(v)
					n++
					if n&1023 == 0 && done.Load() {
						break
					}
				}
				reads.Add(n)
				readNanos.Add(time.Since(start).Nanoseconds())
			}()
		}

		ingestStart := time.Now()
		for i := 0; i < len(stream); i += readBatchSize {
			end := i + readBatchSize
			if end > len(stream) {
				end = len(stream)
			}
			if err := p.AddBatch(stream[i:end]); err != nil {
				done.Store(true)
				wg.Wait()
				return ReadMixRow{}, err
			}
		}
		ingest := time.Since(ingestStart)
		done.Store(true)
		wg.Wait()
		p.Flush()
		if err := p.Err(); err != nil {
			return ReadMixRow{}, err
		}

		if ingest < bestIngest {
			bestIngest = ingest
			if n := reads.Load(); n > 0 {
				// Aggregate throughput: total reads over the average
				// reader's wall time; per-read cost over summed time.
				perReader := float64(readNanos.Load()) / float64(readers)
				row.ReadsPerSec = float64(n) * 1e9 / perReader
				row.ReadNs = float64(readNanos.Load()) / float64(n)
			}
		}
	}
	row.IngestNsPerEdge = float64(bestIngest.Nanoseconds()) / float64(len(stream))
	return row, nil
}

// RunRead measures the read path: the snapshot-latency sweep (epoch grab vs
// O(V) clone as the assignment grows) and the mixed read/ingest sweep (what
// N PartitionOf-hammering readers cost a live AddBatch producer, and what
// read throughput they get).
func RunRead(cfg Config) (*ReadReport, error) {
	cfg = cfg.withDefaults()
	rep := &ReadReport{
		Seed:       cfg.Seed,
		K:          cfg.K,
		WindowSize: cfg.WindowSize,
		BatchSize:  readBatchSize,
		Reps:       readReps,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	for _, n := range ReadVertexSweep {
		row, err := readLatency(n, cfg)
		if err != nil {
			return nil, err
		}
		rep.Latency = append(rep.Latency, row)
	}
	for _, ds := range cfg.Datasets {
		var solo float64
		for _, readers := range ReadReaderSweep {
			row, err := readMix(ds, readers, cfg)
			if err != nil {
				return nil, err
			}
			if readers == 0 {
				solo = row.IngestNsPerEdge
			}
			if solo > 0 {
				row.IngestVsSolo = row.IngestNsPerEdge / solo
			}
			rep.Mix = append(rep.Mix, row)
		}
	}
	return rep, nil
}

// WriteReadJSON writes the report as indented JSON.
func WriteReadJSON(w io.Writer, rep *ReadReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// RenderRead writes the report as aligned text tables.
func RenderRead(w io.Writer, rep *ReadReport) {
	fmt.Fprintf(w, "Read path: snapshot latency vs assignment size (k %d, %d reps)\n",
		rep.K, rep.Reps)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "vertices\tSnapshot ns\tO(V) clone ns\tspeedup")
	for _, r := range rep.Latency {
		fmt.Fprintf(tw, "%d\t%.0f\t%.0f\t%.0f×\n", r.Vertices, r.SnapshotNs, r.CloneNs, r.Speedup)
	}
	tw.Flush()
	fmt.Fprintf(w, "\nMixed read/ingest: one AddBatch producer, N PartitionOf readers (window %d, batch %d, %d CPUs)\n",
		rep.WindowSize, rep.BatchSize, rep.NumCPU)
	if rep.NumCPU == 1 {
		fmt.Fprintln(w, "NOTE: single-CPU machine — readers and the producer share one core; reader cost measures scheduling, not contention")
	}
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\treaders\tingest ns/edge\tvs solo\treads/s\tread ns")
	for _, r := range rep.Mix {
		if r.Readers == 0 {
			fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.2f×\t-\t-\n", r.Dataset, r.Readers, r.IngestNsPerEdge, r.IngestVsSolo)
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.2f×\t%.1fM\t%.1f\n",
			r.Dataset, r.Readers, r.IngestNsPerEdge, r.IngestVsSolo, r.ReadsPerSec/1e6, r.ReadNs)
	}
	tw.Flush()
}
