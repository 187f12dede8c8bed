package loom_test

// Golden placement tests for the matching-core rebuild (ISSUE 5): the
// hashes below were produced at PR 4's head on the four evaluation
// dataset fixtures and pin Loom's placements bit-for-bit — assignments,
// sizes, stats and event streams are all functions of the assignment
// sequence, so one strong hash of the sorted (vertex, partition) pairs
// witnesses them. Dataset generation, stream ordering and signatures are
// all seed-deterministic, so these values are machine-independent; any
// change to them is a placement regression, not noise.
//
// Per-edge AddEdge and AddBatch ingest must both land on the same pinned
// hash.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"loom"
)

// goldenPlacements: dataset → FNV-64a over "v:p;" pairs sorted by vertex,
// captured at PR 4 (scale 2500, generation seed 3, bfs order seed 5,
// K = 8, window 512, signature seed 42, batch size 311).
var goldenPlacements = map[string]struct {
	vertices uint64
	hash     uint64
}{
	"dblp":        {2581, 0x58077492d902dde9},
	"provgen":     {2481, 0x99d07d598a7dbc9e},
	"musicbrainz": {3706, 0x4e766f54120b31d4},
	"lubm":        {3174, 0xaf662afa543b23ba},
}

// goldenFixture regenerates one dataset's pinned stream.
func goldenFixture(t testing.TB, ds string) (*loom.Workload, []loom.StreamEdge, int) {
	t.Helper()
	wl, err := loom.DatasetWorkload(ds)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := loom.GenerateDataset(ds, 2500, 3)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := loom.OrderStream(edges, "bfs", 5)
	if err != nil {
		t.Fatal(err)
	}
	return wl, ordered, distinctVertices(ordered)
}

// goldenBatches are the AddBatch sizes of the pinned runs; 0 means per-edge
// AddEdge.
var goldenBatches = []int{0, 311}

// placementHash ingests the stream — per edge when batch is 0, else via
// AddBatch in chunks of batch — and returns the canonical assignment hash.
func placementHash(t testing.TB, wl *loom.Workload, edges []loom.StreamEdge, n, batch int) (uint64, int) {
	t.Helper()
	p, err := loom.New(loom.Options{
		Partitions: 8, ExpectedVertices: n, WindowSize: 512, Seed: 42,
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if batch == 0 {
		ingestEdges(p, edges)
	} else {
		ingestBatches(t, p, edges, batch)
	}
	type pair struct {
		v int64
		p int
	}
	var ps []pair
	p.Snapshot().Each(func(v int64, part int) { ps = append(ps, pair{v, part}) })
	sort.Slice(ps, func(i, j int) bool { return ps[i].v < ps[j].v })
	h := fnv.New64a()
	for _, kv := range ps {
		fmt.Fprintf(h, "%d:%d;", kv.v, kv.p)
	}
	return h.Sum64(), len(ps)
}

// TestGoldenPlacementsPinned: placements on the dataset fixtures must be
// bit-identical to the PR 4 capture, for per-edge and batch ingest alike.
func TestGoldenPlacementsPinned(t *testing.T) {
	for ds, want := range goldenPlacements {
		t.Run(ds, func(t *testing.T) {
			wl, edges, n := goldenFixture(t, ds)
			for _, batch := range goldenBatches {
				got, vertices := placementHash(t, wl, edges, n, batch)
				if uint64(vertices) != want.vertices {
					t.Fatalf("batch=%d: %d vertices assigned, want %d", batch, vertices, want.vertices)
				}
				if got != want.hash {
					t.Fatalf("batch=%d: placement hash %#x, want %#x (placements diverged from PR 4)",
						batch, got, want.hash)
				}
			}
		})
	}
}

// TestRandomStreamPlacementsParity is the placement leg of the window
// package's naive-matcher differential test: on seeded RANDOM stream
// orders (the pseudo-adversarial §1.2 ordering, not covered by the bfs
// golden fixtures) per-edge AddEdge and AddBatch ingest must agree
// exactly.
func TestRandomStreamPlacementsParity(t *testing.T) {
	for _, ds := range []string{"dblp", "provgen", "musicbrainz", "lubm"} {
		t.Run(ds, func(t *testing.T) {
			wl, err := loom.DatasetWorkload(ds)
			if err != nil {
				t.Fatal(err)
			}
			edges, err := loom.GenerateDataset(ds, 1200, 11)
			if err != nil {
				t.Fatal(err)
			}
			ordered, err := loom.OrderStream(edges, "random", 23)
			if err != nil {
				t.Fatal(err)
			}
			n := distinctVertices(ordered)
			want, nwant := placementHash(t, wl, ordered, n, 0)
			for _, batch := range []int{97, 311} {
				got, ngot := placementHash(t, wl, ordered, n, batch)
				if got != want || ngot != nwant {
					t.Fatalf("batch=%d diverged from per-edge ingest on random order (%#x/%d vs %#x/%d)",
						batch, got, ngot, want, nwant)
				}
			}
		})
	}
}
