package main

import (
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"time"

	"loom"
	"loom/internal/core"
	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/pattern"
	"loom/internal/signature"
	"loom/internal/workload"
	"loom/router"
)

// The functions here run only in the traced pass. Each drives one layer
// directly, on the same stream, so its cost can be read apart from the
// layers above it.

// internalWorkload is the workload.Workload behind the input's
// loom.Workload.
func internalWorkload(in *input) (workload.Workload, error) {
	if in.dataset == "powerlaw" {
		return workload.Workload{Name: "powerlaw", Queries: []workload.Query{
			{Name: "path", Pattern: pattern.Path("A", "B", "C"), Freq: 1},
		}}, nil
	}
	return workload.ForDataset(in.dataset)
}

func graphStream(in *input) []graph.StreamEdge {
	out := make([]graph.StreamEdge, len(in.stream))
	for i, e := range in.stream {
		out[i] = graph.StreamEdge{U: graph.VertexID(e.U), LU: graph.Label(e.LU), V: graph.VertexID(e.V), LV: graph.Label(e.LV)}
	}
	return out
}

// coreLayer drives the placement core alone — core.New(...).ProcessEdges
// and Flush, single-threaded — with the configuration loom.New derives
// from the input's options.
func coreLayer(in *input, iwl workload.Workload, gs []graph.StreamEdge) (*core.Loom, time.Duration, error) {
	trie, err := iwl.BuildTrie(signature.NewScheme(signature.DefaultP, 1))
	if err != nil {
		return nil, 0, err
	}
	lm, err := core.New(core.Config{
		K:                partitions,
		Capacity:         partition.CapacityFor(len(in.vertices), partitions, partition.DefaultImbalance),
		WindowSize:       windowSize,
		SupportThreshold: 0.40,
		Alpha:            2.0 / 3.0,
		MaxImbalance:     partition.DefaultImbalance,
		Workers:          1,
	}, trie)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	for i := 0; i < len(gs); i += in.batch {
		lm.ProcessEdges(gs[i:min(i+in.batch, len(gs))])
	}
	lm.Flush()
	return lm, time.Since(t0), nil
}

// graphLayer replays the stream's edges into a fresh recorded graph through
// graph.EnsureEdge, the call the partitioner records each accepted edge
// with. It returns the graph, the time, and how many edges were new.
func graphLayer(gs []graph.StreamEdge) (*graph.Graph, time.Duration, int, error) {
	g := graph.New()
	added := 0
	t0 := time.Now()
	for _, e := range gs {
		if e.U == e.V {
			continue
		}
		ok, err := g.EnsureEdge(e.U, e.LU, e.V, e.LV)
		if err != nil {
			return nil, 0, 0, err
		}
		if ok {
			added++
		}
	}
	return g, time.Since(t0), added, nil
}

// tracedIngest runs the closed-loop phase's traced measurements and adds
// their metrics to m.
func (b *bench) tracedIngest(c *checker, m map[string]float64, info map[string]float64) (*tracer, uint64, error) {
	opt := b.options()
	runtime.GC()
	_, untraced, err := b.ingestPass(b.input, opt, nil, nil)
	if err != nil {
		return nil, 0, err
	}

	tr := newTracer("ingest", time.Now())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, traced, err := b.ingestPass(b.input, opt, tr, nil)
	if err != nil {
		return nil, 0, err
	}
	runtime.ReadMemStats(&after)
	edges := float64(len(b.stream))
	m["heap.allocs_per_edge"] = float64(after.Mallocs-before.Mallocs) / edges
	m["heap.bytes_per_edge"] = float64(after.TotalAlloc-before.TotalAlloc) / edges
	m["trace.overhead_frac"] = (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
	hash := c.partitioner(b.input, p, "traced ingest pass")
	totals, _, err := tr.analyse()
	if err != nil {
		return nil, 0, err
	}
	busy := totals["loom.add_batch"].total
	m["loom.add_batch.busy_s"] = busy.Seconds()
	m["loom.add_batch.calls"] = float64(totals["loom.add_batch"].count)
	m["loom.flush_ms"] = ms(totals["loom.flush"].total)

	st := p.Stats()
	m["core.immediate_frac"] = float64(st.ImmediateEdges) / float64(max(st.EdgesProcessed, 1))
	m["core.windowed_edges"] = float64(st.WindowedEdges)
	m["core.evictions"] = float64(st.Evictions)
	m["core.evictions_per_windowed"] = float64(st.Evictions) / float64(max(st.WindowedEdges, 1))
	_, recorded, _ := p.GraphSize()
	if mem, ok := p.GraphMemory(); ok {
		m["graph.bytes_per_edge"] = mem.BytesPerEdge(recorded)
		m["graph.spilled_bytes"] = float64(mem.SpilledBytes)
	}
	t0 := time.Now()
	if err := p.GraphCompact(); err != nil {
		c.fail("GraphCompact: %v", err)
	}
	m["graph.compact_ms"] = ms(time.Since(t0))
	m["loom.snapshot_ns"] = snapshotNS(p)
	t0 = time.Now()
	ev, err := p.Evaluate()
	evalS := time.Since(t0).Seconds()
	if err != nil {
		return nil, 0, fmt.Errorf("Evaluate: %w", err)
	}
	m["workload.edge_cut_frac"] = float64(ev.EdgeCut) / float64(max(recorded, 1))
	info["evaluate_s"] = evalS
	p = nil

	// The reference: the same stream at Workers=1.
	opt1 := opt
	opt1.Workers = 1
	tr1 := newTracer("ingest-workers1", time.Now())
	p1, _, err := b.ingestPass(b.input, opt1, tr1, nil)
	if err != nil {
		return nil, 0, err
	}
	if h := c.partitioner(b.input, p1, "Workers=1 reference"); h != hash {
		c.fail("assignment hash %x at default Workers differs from %x at Workers=1", hash, h)
	}
	p1 = nil
	totals1, _, err := tr1.analyse()
	if err != nil {
		return nil, 0, err
	}
	m["loom.pipeline_speedup"] = totals1["loom.add_batch"].total.Seconds() / busy.Seconds()

	iwl, err := internalWorkload(b.input)
	if err != nil {
		return nil, 0, err
	}
	gs := graphStream(b.input)
	lm, coreD, err := coreLayer(b.input, iwl, gs)
	if err != nil {
		return nil, 0, err
	}
	m["core.process_s"] = coreD.Seconds()
	a := lm.Assignment()
	if h, _ := hashPlacements(func(v int64) (int, bool) {
		p := a.Of(graph.VertexID(v))
		return int(p), p != partition.Unassigned
	}, b.vertices); h != hash {
		c.fail("core alone placed the stream differently from loom.New (hash %x vs %x)", h, hash)
	}
	lm = nil

	g, recD, added, err := graphLayer(gs)
	if err != nil {
		return nil, 0, err
	}
	gs = nil
	m["graph.record_s"] = recD.Seconds()
	if accepted := countNonLoops(b.stream); accepted > 0 {
		m["graph.dup_frac"] = 1 - float64(added)/float64(accepted)
	}
	m["loom.self_s"] = busy.Seconds() - coreD.Seconds() - recD.Seconds()

	t0 = time.Now()
	res, err := workload.Execute(g, a, iwl, workload.Options{})
	execS := time.Since(t0).Seconds()
	if err != nil {
		return nil, 0, err
	}
	if math.Abs(res.IPT-ev.IPT) > 1e-9*math.Max(1, math.Abs(ev.IPT)) {
		c.fail("workload.Execute ipt %g differs from Evaluate's %g", res.IPT, ev.IPT)
	}
	m["workload.execute_s"] = execS
	m["workload.replay_s"] = evalS - execS
	return tr, hash, nil
}

func countNonLoops(s []loom.StreamEdge) int {
	n := 0
	for _, e := range s {
		if e.U != e.V {
			n++
		}
	}
	return n
}

// snapshotNS is the median over five rounds of the mean cost of one
// Partitioner.Snapshot call.
func snapshotNS(p *loom.Partitioner) float64 {
	const calls = 20_000
	var rounds []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			_ = p.Snapshot()
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/calls)
	}
	return median(rounds)
}

// walOverhead feeds the serve phase's 256-edge batches, in a closed loop,
// to an in-memory and to a durable partitioner (recording off, as in the serve
// phase) and returns the mean extra ms per AddBatch the WAL costs.
func (b *bench) walOverhead() (float64, error) {
	in := b.served
	feed := func(p *loom.Partitioner) (time.Duration, int, error) {
		var busy time.Duration
		n := 0
		for i := 0; i < len(in.stream); i += serveBatch {
			t0 := time.Now()
			err := p.AddBatch(in.stream[i:min(i+serveBatch, len(in.stream))])
			busy += time.Since(t0)
			n++
			if err != nil {
				return 0, 0, err
			}
		}
		return busy, n, nil
	}
	opt := in.options()
	opt.DisableGraphRecording = true
	mem, err := loom.New(opt, in.wl)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	memBusy, n, err := feed(mem)
	if err != nil {
		return 0, err
	}
	mem = nil
	dir, err := os.MkdirTemp(b.dir, "waloverhead-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	opt.WALDir = dir
	dur, _, err := loom.Open(opt, in.wl)
	if err != nil {
		return 0, err
	}
	defer dur.Close()
	runtime.GC()
	durBusy, _, err := feed(dur)
	if err != nil {
		return 0, err
	}
	return ms(durBusy-memBusy) / float64(n), nil
}

// traceRouter times the router layer directly on a finished round's
// mirror and server.
func (b *bench) traceRouter(mirror *router.Mirror, srv *router.Server, tc *serveTrace) {
	t0 := time.Now()
	vertices := b.served.vertices
	for _, v := range vertices {
		mirror.Lookup(v)
	}
	tc.lookupNS = float64(time.Since(t0).Nanoseconds()) / float64(len(vertices))

	const requests = 2000
	var handler []float64
	for i := 0; i < requests; i++ {
		v := vertices[i*len(vertices)/requests]
		req := httptest.NewRequest("GET", "/route/"+strconv.FormatInt(v, 10), nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		handler = append(handler, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	tc.handlerUS = median(handler)

	fresh := router.New()
	t0 = time.Now()
	for _, ev := range tc.events {
		fresh.Apply(ev)
	}
	tc.applyNS = float64(time.Since(t0).Nanoseconds()) / float64(max(len(tc.events), 1))

	pl := router.NewPlanner(mirror, b.served.wl.Queries(), partitions)
	var scatter time.Duration
	plans, fanout := 0, 0
	for i := 0; i < 1000; i++ {
		v := vertices[i*len(vertices)/1000]
		for _, q := range pl.Motifs() {
			t0 := time.Now()
			plan, err := pl.Scatter(v, q.Name)
			scatter += time.Since(t0)
			if err == nil {
				plans++
				fanout += plan.Fanout
			}
		}
	}
	tc.scatterUS = float64(scatter.Nanoseconds()) / 1e3 / float64(max(plans, 1))
	tc.fanout = float64(fanout) / float64(max(plans, 1))
}
