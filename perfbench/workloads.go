package main

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"loom"
	"loom/internal/dataset"
	"loom/router"
)

// Fixed settings of every workload. Options not named here keep the
// library's defaults (WindowSize 10 000, Workers = GOMAXPROCS, WALSyncBatch).
const (
	partitions      = 8
	windowSize      = 10_000 // the library default, recorded in the report
	serveRate       = 50_000 // edges/s the serve phase's producer offers
	serveBatch      = 256
	routeRate       = 1000
	pollInterval    = 10 * time.Millisecond
	checkpointEvery = 128 // batches between checkpoints in the serve phase
	// checkpointTail is how many batches the serve phase's last checkpoint
	// precedes the end of the stream, so recovery always replays the same
	// tail whatever the stream's length.
	checkpointTail = 32
	setupReps      = 3
)

// spec is one workload: a generated stream and the phase that is timed.
type spec struct {
	name    string
	dataset string // "dblp", "musicbrainz" or "powerlaw"
	// scale is the target vertex count of a catalogue dataset, or the edge
	// count of the power-law stream.
	scale int
	batch int  // AddBatch size of the closed-loop ingest phase
	spill bool // set Options.SpillDir for the recorded graph
	// serve makes the open-loop serve phase the timed one (for --seconds),
	// and the one batch latency and ingest rate are reported from.
	serve bool
	// serveEdges is the length of the stream prefix the serve phase serves
	// (0: all of it).
	serveEdges int
}

// The ingest workloads serve a 100 000-edge prefix: their serve phase exists
// so that every end-to-end metric is measured on every workload. serveRate
// leaves the serve path about half of a 2-CPU machine's capacity; at 100 000
// edges/s the open loop fell behind by seconds whenever other tenants slowed
// the machine, and its latencies swung by 20×.
var specs = []spec{
	{name: "ingest-dblp", dataset: "dblp", scale: 200_000, batch: 256, serveEdges: 100_000},
	// Not listed in BENCHMARK.json: Loom currently leaves vertices of this
	// stream unplaced, so its output check fails (see README.md).
	{name: "ingest-powerlaw", dataset: "powerlaw", scale: 1_000_000, batch: 4096, spill: true, serveEdges: 100_000},
	{name: "serve-musicbrainz", dataset: "musicbrainz", scale: 100_000, batch: 256, serve: true},
}

func specNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// input is the generated workload every phase runs on.
type input struct {
	spec
	stream []loom.StreamEdge
	wl     *loom.Workload
	// vertices are the distinct endpoints of the stream's non-self-loop
	// edges, sorted: exactly the vertices the partitioner must place
	// (self-loops are dropped by contract).
	vertices []int64
	hashIPT  float64 // Evaluate().IPT of a Hash partitioner on the stream
}

func (in *input) options() loom.Options {
	return loom.Options{Partitions: partitions, ExpectedVertices: len(in.vertices)}
}

// generate builds the stream and workload from the seed.
func generate(sp spec, seed int64, scale float64) (*input, error) {
	in := &input{spec: sp}
	n := int(math.Max(1, math.Round(float64(sp.scale)*scale)))
	var err error
	switch sp.dataset {
	case "powerlaw":
		g, err := dataset.NewStreamGen(dataset.StreamSpec{
			Mode: "powerlaw", Edges: int64(n), Vertices: 1_000_000, Labels: 5, Skew: 1.1, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		in.stream = make([]loom.StreamEdge, 0, n)
		for e, ok := g.Next(); ok; e, ok = g.Next() {
			in.stream = append(in.stream, loom.StreamEdge{U: int64(e.U), LU: string(e.LU), V: int64(e.V), LV: string(e.LV)})
		}
		in.wl = loom.NewWorkload("powerlaw").Add("path", loom.Path("A", "B", "C"), 1)
	default:
		if in.stream, err = loom.GenerateDataset(sp.dataset, n, seed); err != nil {
			return nil, err
		}
		if in.stream, err = loom.OrderStream(in.stream, "bfs", seed); err != nil {
			return nil, err
		}
		if in.wl, err = loom.DatasetWorkload(sp.dataset); err != nil {
			return nil, err
		}
	}
	in.vertices = distinctVertices(in.stream)
	return in, nil
}

// distinctVertices returns the sorted distinct endpoints of the stream's
// non-self-loop edges.
func distinctVertices(stream []loom.StreamEdge) []int64 {
	seen := make(map[int64]struct{}, len(stream))
	for _, e := range stream {
		if e.U != e.V {
			seen[e.U] = struct{}{}
			seen[e.V] = struct{}{}
		}
	}
	out := make([]int64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// servedInput is the input of the serve phase: the whole stream, or its
// first serveEdges edges as a workload of their own.
func servedInput(in *input, scale float64) *input {
	n := int(math.Round(float64(in.serveEdges) * scale))
	if in.serveEdges == 0 || n >= len(in.stream) {
		return in
	}
	p := &input{spec: in.spec, stream: in.stream[:n], wl: in.wl}
	p.vertices = distinctVertices(p.stream)
	return p
}

// hashBaseline computes the Hash partitioner's ipt on the stream, the
// denominator of ipt_pct_hash.
func hashBaseline(in *input) error {
	p, err := loom.NewBaseline("hash", in.options(), in.wl)
	if err != nil {
		return err
	}
	for i := 0; i < len(in.stream); i += in.batch {
		if err := p.AddBatch(in.stream[i:min(i+in.batch, len(in.stream))]); err != nil {
			return fmt.Errorf("hash baseline: %w", err)
		}
	}
	p.Flush()
	ev, err := p.Evaluate()
	if err != nil {
		return fmt.Errorf("hash baseline: %w", err)
	}
	if ev.IPT <= 0 {
		return fmt.Errorf("hash baseline: ipt %g, want > 0", ev.IPT)
	}
	in.hashIPT = ev.IPT
	return nil
}

// bench is the set-up state of one invocation: the input, the serve
// phase's input, a scratch directory on disk for WAL and spill files, and a
// loopback HTTP server whose router is swapped in per serve round.
type bench struct {
	*input
	served *input
	dir    string
	ln     net.Listener
	http   *http.Server
	cur    atomic.Pointer[router.Server]
	wg     sync.WaitGroup
}

// setUp is the timed set-up: generate the stream and workload, compute the
// Hash baseline, create the scratch directory and start the server.
func setUp(sp spec, cfg config, scratch string) (*bench, error) {
	in, err := generate(sp, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	if err := hashBaseline(in); err != nil {
		return nil, err
	}
	b := &bench{input: in, served: servedInput(in, cfg.scale)}
	if b.dir, err = os.MkdirTemp(scratch, sp.name+"-"); err != nil {
		return nil, err
	}
	if b.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		os.RemoveAll(b.dir)
		return nil, err
	}
	b.http = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s := b.cur.Load(); s != nil {
			s.ServeHTTP(w, r)
			return
		}
		http.Error(w, "no router", http.StatusServiceUnavailable)
	})}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		_ = b.http.Serve(b.ln) // returns http.ErrServerClosed once close runs
	}()
	return b, nil
}

func (b *bench) addr() string { return b.ln.Addr().String() }

// close stops the server, waits for it, and removes the scratch directory.
func (b *bench) close() error {
	err := b.http.Close()
	b.wg.Wait()
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}
