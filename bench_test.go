// Benchmarks reproducing the Loom paper's tables and figures. One
// testing.B target per experiment (EXPERIMENTS.md's "Experiment index"
// maps each to its paper artefact), plus per-partitioner micro-benchmarks
// whose ns/op is directly comparable to Table 2 (time to partition a
// 10k-edge stream).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// or regenerate a single artefact, e.g.:
//
//	go test -bench=BenchmarkFig7 -benchtime=1x -v
//
// The figure benchmarks print their paper-style tables when run with -v via
// b.Log; cmd/loom-bench renders the same tables to stdout with more knobs.
package loom_test

import (
	"bytes"
	"fmt"
	"testing"

	"loom"

	"loom/internal/bench"
	"loom/internal/core"
	"loom/internal/dataset"
	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/refine"
	"loom/internal/signature"
	"loom/internal/simulate"
	"loom/internal/tpstry"
	"loom/internal/window"
	"loom/internal/workload"
)

// benchCfg is the shared harness configuration for the figure/table
// benchmarks: small enough that the full suite runs in minutes, large
// enough that every relative comparison holds.
func benchCfg() bench.Config {
	return bench.Config{
		Scale:      6000,
		Seed:       42,
		K:          8,
		WindowSize: 1024,
		MaxMatches: 100_000,
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			bench.RenderTable1(&buf, rows)
			b.Log("\n" + buf.String())
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := bench.RunFig4()
		if i == 0 {
			var buf bytes.Buffer
			bench.RenderFig4(&buf, pts)
			b.Log("\n" + buf.String())
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := bench.RunFig7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			bench.RenderIPTCells(&buf, "Fig. 7: ipt vs Hash, 8-way, three stream orders", cells)
			b.Logf("\n%smedian Loom reduction vs Fennel: %.1f%%", buf.String(), bench.SummarizeLoomVsFennel(cells))
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := bench.RunFig8(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			bench.RenderIPTCells(&buf, "Fig. 8: ipt vs Hash, k ∈ {2,8,32}, bfs streams", cells)
			b.Logf("\n%smedian Loom reduction vs Fennel: %.1f%%", buf.String(), bench.SummarizeLoomVsFennel(cells))
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	cfg := benchCfg()
	cfg.Datasets = []string{"provgen", "musicbrainz"}
	for i := 0; i < b.N; i++ {
		pts, err := bench.RunFig9(cfg, []int{64, 256, 1024, 4096})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			bench.RenderFig9(&buf, pts)
			b.Log("\n" + buf.String())
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			bench.RenderTable2(&buf, rows)
			b.Log("\n" + buf.String())
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	cfg := benchCfg()
	cfg.Datasets = []string{"musicbrainz"}
	for i := 0; i < b.N; i++ {
		cells, err := bench.RunAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			bench.RenderAblation(&buf, cells)
			b.Log("\n" + buf.String())
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: time to partition a 10k-edge stream (Table 2's unit).
// ---------------------------------------------------------------------------

// tenKStream generates a 10k-edge BFS stream of the MusicBrainz-like graph
// (the paper's most heterogeneous dataset) once per benchmark binary.
func tenKStream(b *testing.B) (graph.Stream, *graph.Graph) {
	b.Helper()
	g, err := dataset.Generate("musicbrainz", 4500, 42)
	if err != nil {
		b.Fatal(err)
	}
	s := graph.StreamOf(g, graph.OrderBFS, nil)
	if len(s) < 10_000 {
		b.Fatalf("stream too short: %d", len(s))
	}
	return s[:10_000], g
}

func streamVertexCount(s graph.Stream) int {
	seen := make(map[graph.VertexID]struct{})
	for _, e := range s {
		seen[e.U] = struct{}{}
		seen[e.V] = struct{}{}
	}
	return len(seen)
}

func BenchmarkHashPartition10k(b *testing.B) {
	s, _ := tenKStream(b)
	n := streamVertexCount(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := partition.NewHash(8, partition.CapacityFor(n, 8, partition.DefaultImbalance))
		for _, e := range s {
			p.ProcessEdge(e)
		}
		p.Flush()
	}
}

func BenchmarkLDGPartition10k(b *testing.B) {
	s, _ := tenKStream(b)
	n := streamVertexCount(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := partition.NewLDG(8, partition.CapacityFor(n, 8, partition.DefaultImbalance))
		for _, e := range s {
			p.ProcessEdge(e)
		}
		p.Flush()
	}
}

func BenchmarkFennelPartition10k(b *testing.B) {
	s, _ := tenKStream(b)
	n := streamVertexCount(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := partition.NewFennel(8, n, len(s))
		for _, e := range s {
			p.ProcessEdge(e)
		}
		p.Flush()
	}
}

func BenchmarkLoomPartition10k(b *testing.B) {
	s, _ := tenKStream(b)
	n := streamVertexCount(s)
	wl, err := workload.ForDataset("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	scheme := signature.NewScheme(signature.DefaultP, 42)
	scheme.RegisterLabels(dataset.DatasetLabels("musicbrainz"))
	trie, err := wl.BuildTrie(scheme)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := core.New(core.Config{
			K:        8,
			Capacity: partition.CapacityFor(n, 8, partition.DefaultImbalance),
			// Paper configuration: window 10k, T = 40%.
			WindowSize:       10_000,
			SupportThreshold: 0.40,
		}, trie)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range s {
			p.ProcessEdge(e)
		}
		p.Flush()
	}
}

// BenchmarkDurableLoomPartition10k is BenchmarkLoomPartition10k at the
// public API with a write-ahead log under the default group-commit policy
// — the pair quantifies what durability costs on the paper configuration.
// Each iteration pays the full lifecycle (Open's directory fsync, Close's
// final group write + fsync) on top of the ingest itself. The benchmark
// in perfbench/ isolates the in-stream overhead on the serve path
// (wal.overhead_ms_per_batch, wal.sync_ms).
func BenchmarkDurableLoomPartition10k(b *testing.B) {
	s, _ := tenKStream(b)
	stream := make([]loom.StreamEdge, len(s))
	seen := make(map[int64]struct{})
	for i, e := range s {
		stream[i] = loom.StreamEdge{U: int64(e.U), LU: string(e.LU), V: int64(e.V), LV: string(e.LV)}
		seen[int64(e.U)] = struct{}{}
		seen[int64(e.V)] = struct{}{}
	}
	wl, err := loom.DatasetWorkload("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	opt := loom.Options{
		Partitions:       8,
		ExpectedVertices: len(seen),
		// Paper configuration: window 10k, T = 40%.
		WindowSize:            10_000,
		SupportThreshold:      0.40,
		Seed:                  42,
		DisableGraphRecording: true,
		WALSync:               loom.WALSyncBatch,
	}
	tmp := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := opt
		o.WALDir = fmt.Sprintf("%s/run-%d", tmp, i)
		p, _, err := loom.Open(o, wl)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < len(stream); j += 256 {
			end := min(j+256, len(stream))
			if err := p.AddBatch(stream[j:end]); err != nil {
				b.Fatal(err)
			}
		}
		p.Flush()
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Component micro-benchmarks.
// ---------------------------------------------------------------------------

func BenchmarkSignatureOfQueryGraph(b *testing.B) {
	wl, err := workload.ForDataset("lubm")
	if err != nil {
		b.Fatal(err)
	}
	scheme := signature.NewScheme(signature.DefaultP, 1)
	q := wl.Queries[0].Pattern
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = scheme.SignatureOf(q)
	}
}

func BenchmarkEdgeDelta(b *testing.B) {
	scheme := signature.NewScheme(signature.DefaultP, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = scheme.EdgeDelta("Person", i%4, "Paper", (i+1)%4)
	}
}

func BenchmarkTrieConstruction(b *testing.B) {
	wl, err := workload.ForDataset("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scheme := signature.NewScheme(signature.DefaultP, 42)
		trie := tpstry.New(scheme)
		for _, q := range wl.Queries {
			if err := trie.AddQuery(q.Pattern, q.Freq); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkWindowInsert(b *testing.B) {
	s, _ := tenKStream(b)
	wl, err := workload.ForDataset("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	scheme := signature.NewScheme(signature.DefaultP, 42)
	scheme.RegisterLabels(dataset.DatasetLabels("musicbrainz"))
	trie, err := wl.BuildTrie(scheme)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := window.NewMatcher(trie, 0.40, len(s)+1)
		for _, e := range s {
			if _, ok := w.SingleEdgeMotif(e); ok {
				if err := w.Insert(e); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkSimulation(b *testing.B) {
	cfg := benchCfg()
	cfg.Datasets = []string{"provgen"}
	for i := 0; i < b.N; i++ {
		cells, err := bench.RunSimulation(cfg, simulate.CostModel{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			bench.RenderSimulation(&buf, cells)
			b.Log("\n" + buf.String())
		}
	}
}

func BenchmarkExtensions(b *testing.B) {
	cfg := benchCfg()
	cfg.Datasets = []string{"provgen"}
	for i := 0; i < b.N; i++ {
		cells, err := bench.RunExtensions(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			bench.RenderExtensions(&buf, cells)
			b.Log("\n" + buf.String())
		}
	}
}

func BenchmarkRefine(b *testing.B) {
	g, err := dataset.Generate("provgen", 4000, 42)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := workload.ForDataset("provgen")
	if err != nil {
		b.Fatal(err)
	}
	scheme := signature.NewScheme(signature.DefaultP, 42)
	scheme.RegisterLabels(dataset.DatasetLabels("provgen"))
	trie, err := wl.BuildTrie(scheme)
	if err != nil {
		b.Fatal(err)
	}
	k := 8
	capC := partition.CapacityFor(g.NumVertices(), k, partition.DefaultImbalance)
	h := partition.NewHash(k, capC)
	for _, se := range graph.StreamOf(g, graph.OrderBFS, nil) {
		h.ProcessEdge(se)
	}
	a := h.Assignment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := refine.Refine(g, a, trie, refine.Config{Capacity: capC}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultisetOps(b *testing.B) {
	base := signature.NewMultiset(3, 17, 42, 42, 99, 120, 200)
	d := signature.Delta{7, 55, 180}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grown := base.PlusDelta(d)
		if _, ok := grown.Minus(base); !ok {
			b.Fatal("minus failed")
		}
	}
}

func BenchmarkTrieChildLookup(b *testing.B) {
	wl, err := workload.ForDataset("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	scheme := signature.NewScheme(signature.DefaultP, 42)
	scheme.RegisterLabels(dataset.DatasetLabels("musicbrainz"))
	trie, err := wl.BuildTrie(scheme)
	if err != nil {
		b.Fatal(err)
	}
	d := scheme.EdgeDelta(dataset.LArtist, 0, dataset.LAlbum, 0)
	root := trie.Root()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := root.ChildByDelta(d); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// ---------------------------------------------------------------------------
// Streaming hot-path benchmarks: cost of ingesting ONE stream edge
// (ns/op and allocs/op are per edge). These are the numbers the interning
// refactor targets; run with
//
//	go test -bench=AddEdge -benchmem
// ---------------------------------------------------------------------------

// runAddEdge drives b.N single-edge ingests through fresh partitioners,
// recycling the stream (the partitioner is rebuilt outside the timer when
// the stream wraps, so steady-state per-edge cost dominates).
func runAddEdge(b *testing.B, s graph.Stream, newPartitioner func() partition.Streamer) {
	b.Helper()
	b.ReportAllocs()
	p := newPartitioner()
	j := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if j == len(s) {
			b.StopTimer()
			p = newPartitioner()
			j = 0
			b.StartTimer()
		}
		p.ProcessEdge(s[j])
		j++
	}
}

// ---------------------------------------------------------------------------
// Eviction-path benchmarks: cost of evicting ONE window edge with its
// motif cluster (equal opportunism end to end), and of draining a full
// window. The eviction overhaul targets 0 steady-state allocs/op on the
// EvictOne path; run with
//
//	go test -bench 'EvictOne|Flush' -benchmem
// ---------------------------------------------------------------------------

// loomFor10k builds a Loom configured like the paper's Table 2 run over
// the shared 10k-edge stream.
func loomFor10k(b *testing.B, n int) func() *core.Loom {
	b.Helper()
	wl, err := workload.ForDataset("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	scheme := signature.NewScheme(signature.DefaultP, 42)
	scheme.RegisterLabels(dataset.DatasetLabels("musicbrainz"))
	trie, err := wl.BuildTrie(scheme)
	if err != nil {
		b.Fatal(err)
	}
	return func() *core.Loom {
		p, err := core.New(core.Config{
			K:                8,
			Capacity:         partition.CapacityFor(n, 8, partition.DefaultImbalance),
			WindowSize:       10_000,
			SupportThreshold: 0.40,
		}, trie)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
}

// BenchmarkEvictOne measures one eviction round: oldest edge → Me →
// support sort → single-pass bidding → cluster assignment → window
// removal. The window is refilled outside the timer whenever it drains.
func BenchmarkEvictOne(b *testing.B) {
	s, _ := tenKStream(b)
	newLoom := loomFor10k(b, streamVertexCount(s))
	fill := func() *core.Loom {
		p := newLoom()
		for _, e := range s {
			p.ProcessEdge(e)
		}
		return p
	}
	b.ReportAllocs()
	p := fill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Window().Empty() {
			b.StopTimer()
			p = fill()
			b.StartTimer()
		}
		if !p.EvictOne() {
			b.Fatal("eviction failed on a non-empty window")
		}
	}
}

// BenchmarkFlush measures draining a full 10k-edge window end to end.
func BenchmarkFlush(b *testing.B) {
	s, _ := tenKStream(b)
	newLoom := loomFor10k(b, streamVertexCount(s))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := newLoom()
		for _, e := range s {
			p.ProcessEdge(e)
		}
		b.StartTimer()
		p.Flush()
	}
}

func BenchmarkAddEdgeLoom(b *testing.B) {
	s, _ := tenKStream(b)
	n := streamVertexCount(s)
	wl, err := workload.ForDataset("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	scheme := signature.NewScheme(signature.DefaultP, 42)
	scheme.RegisterLabels(dataset.DatasetLabels("musicbrainz"))
	trie, err := wl.BuildTrie(scheme)
	if err != nil {
		b.Fatal(err)
	}
	runAddEdge(b, s, func() partition.Streamer {
		p, err := core.New(core.Config{
			K:                8,
			Capacity:         partition.CapacityFor(n, 8, partition.DefaultImbalance),
			WindowSize:       1024,
			SupportThreshold: 0.40,
		}, trie)
		if err != nil {
			b.Fatal(err)
		}
		return p
	})
}

func BenchmarkAddEdgeBaselines(b *testing.B) {
	s, _ := tenKStream(b)
	n := streamVertexCount(s)
	capC := partition.CapacityFor(n, 8, partition.DefaultImbalance)
	b.Run("hash", func(b *testing.B) {
		runAddEdge(b, s, func() partition.Streamer { return partition.NewHash(8, capC) })
	})
	b.Run("ldg", func(b *testing.B) {
		runAddEdge(b, s, func() partition.Streamer { return partition.NewLDG(8, capC) })
	})
	b.Run("fennel", func(b *testing.B) {
		runAddEdge(b, s, func() partition.Streamer { return partition.NewFennel(8, n, len(s)) })
	})
}

// ---------------------------------------------------------------------------
// Public-API ingest benchmarks: the concurrent loom.Partitioner pays an
// ingest lock per call, so per-edge AddEdge and 256-edge AddBatch bracket
// the cost of the public surface (ns/op and allocs/op are per edge; graph
// recording disabled so the numbers isolate the streaming path). Run with
//
//	go test -bench=AddBatch -benchmem
// ---------------------------------------------------------------------------

// publicTenKStream converts the shared 10k-edge stream to the public edge
// type, returning it with its distinct-vertex count.
func publicTenKStream(b *testing.B) ([]loom.StreamEdge, int) {
	s, _ := tenKStream(b)
	out := make([]loom.StreamEdge, len(s))
	for i, e := range s {
		out[i] = loom.StreamEdge{U: int64(e.U), LU: string(e.LU), V: int64(e.V), LV: string(e.LV)}
	}
	return out, streamVertexCount(s)
}

// newPublicLoom mirrors BenchmarkAddEdgeLoom's configuration through the
// public constructor.
func newPublicLoom(b *testing.B, n int) func() *loom.Partitioner {
	b.Helper()
	wl, err := loom.DatasetWorkload("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	return func() *loom.Partitioner {
		p, err := loom.New(loom.Options{
			Partitions:            8,
			ExpectedVertices:      n,
			WindowSize:            1024,
			Seed:                  42,
			DisableGraphRecording: true,
		}, wl)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
}

func BenchmarkAddBatch(b *testing.B) {
	s, n := publicTenKStream(b)
	newP := newPublicLoom(b, n)
	b.Run("edge", func(b *testing.B) {
		b.ReportAllocs()
		p := newP()
		j := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if j == len(s) {
				b.StopTimer()
				p = newP()
				j = 0
				b.StartTimer()
			}
			e := s[j]
			p.AddEdge(e.U, e.LU, e.V, e.LV)
			j++
		}
	})
	b.Run("batch256", func(b *testing.B) {
		const batchSize = 256
		b.ReportAllocs()
		p := newP()
		j := 0
		b.ResetTimer()
		for i := 0; i < b.N; {
			if j == len(s) {
				b.StopTimer()
				p = newP()
				j = 0
				b.StartTimer()
			}
			end := j + batchSize
			if end > len(s) {
				end = len(s)
			}
			if left := b.N - i; end > j+left {
				end = j + left
			}
			if err := p.AddBatch(s[j:end]); err != nil {
				b.Fatal(err)
			}
			i += end - j
			j = end
		}
	})
}

// ---------------------------------------------------------------------------
// Read-path benchmarks: snapshot capture and point reads at serving scale
// (one million assigned vertices, the router-tier regime of ISSUE 6). The
// clone benchmark pins the historical O(V) deep-copy cost that the epoch
// read path replaces. Run with
//
//	go test -bench='Snapshot|PartitionOf' -benchmem
// ---------------------------------------------------------------------------

// benchReadVertices is 2^20 ≈ one million assigned vertices.
const benchReadVertices = 1 << 20

// benchReadPartitioner builds a hash-baseline partitioner with n assigned
// vertices (hash places every endpoint immediately, so construction is the
// cheap way to a serving-scale assignment).
func benchReadPartitioner(b *testing.B, n int) *loom.Partitioner {
	b.Helper()
	p, err := loom.NewBaseline("hash", loom.Options{
		Partitions: 8, ExpectedVertices: n, DisableGraphRecording: true,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 8192
	batch := make([]loom.StreamEdge, 0, chunk)
	for i := 0; i < n; i += 2 {
		batch = append(batch, loom.StreamEdge{U: int64(i), LU: "n", V: int64(i + 1), LV: "n"})
		if len(batch) == chunk {
			if err := p.AddBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := p.AddBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	p.Flush()
	if got := p.Snapshot().NumAssigned(); got != n {
		b.Fatalf("built %d assigned vertices, want %d", got, n)
	}
	return p
}

// BenchmarkSnapshot measures Partitioner.Snapshot at one million assigned
// vertices — the capture cost a router replica pays per refresh.
func BenchmarkSnapshot(b *testing.B) {
	p := benchReadPartitioner(b, benchReadVertices)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := p.Snapshot(); s.NumAssigned() != benchReadVertices {
			b.Fatal("inconsistent snapshot")
		}
	}
}

var sinkPart int

// BenchmarkPartitionOf measures uncontended point reads through the live
// read path, p.Snapshot().PartitionOf (cache-hot vertex: the per-call
// floor of the read path).
func BenchmarkPartitionOf(b *testing.B) {
	p := benchReadPartitioner(b, benchReadVertices)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, ok := p.Snapshot().PartitionOf(12345)
		if !ok {
			b.Fatal("vertex missing")
		}
		sinkPart += pt
	}
}

// BenchmarkPartitionOfParallel measures point-read scalability: GOMAXPROCS
// reader goroutines issuing PartitionOf against one partitioner.
func BenchmarkPartitionOfParallel(b *testing.B) {
	p := benchReadPartitioner(b, benchReadVertices)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		v, local := int64(0), 0
		for pb.Next() {
			pt, _ := p.Snapshot().PartitionOf(v & (benchReadVertices - 1))
			local += pt
			v++
		}
		sinkPart += local
	})
}

func BenchmarkWorkloadExecution(b *testing.B) {
	s, g := tenKStream(b)
	wl, err := workload.ForDataset("musicbrainz")
	if err != nil {
		b.Fatal(err)
	}
	n := streamVertexCount(s)
	p := partition.NewHash(8, partition.CapacityFor(n, 8, partition.DefaultImbalance))
	for _, e := range s {
		p.ProcessEdge(e)
	}
	a := p.Assignment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Execute(g, a, wl, workload.Options{MaxMatchesPerQuery: 50_000}); err != nil {
			b.Fatal(err)
		}
	}
}
