package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fig1Graph builds the example graph G from Fig. 1 of the paper:
// vertices 1..8 with labels a b c d / b a d c, edges forming two squares
// joined by (2,6) and (4,8)... we reproduce the exact structure used in the
// paper's partitioning discussion.
func fig1Graph(t testing.TB) *Graph {
	t.Helper()
	g := New()
	labels := map[VertexID]Label{
		1: "a", 2: "b", 3: "c", 4: "d",
		5: "b", 6: "a", 7: "d", 8: "c",
	}
	for v := VertexID(1); v <= 8; v++ {
		if err := g.AddVertex(v, labels[v]); err != nil {
			t.Fatalf("AddVertex(%d): %v", v, err)
		}
	}
	edges := []Edge{{1, 2}, {2, 3}, {3, 4}, {5, 6}, {6, 7}, {7, 8}, {1, 5}, {2, 6}, {3, 7}, {4, 8}}
	for _, e := range edges {
		if err := g.AddEdge(e.U, e.V); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return g
}

// pathWithBranch builds the path 1a-2b-3c-4d with an extra branch 1-5 (5
// labelled b), inserting vertices in ascending ID order so traversal
// orderings are deterministic.
func pathWithBranch(t testing.TB) *Graph {
	t.Helper()
	g := New()
	labels := []Label{"a", "b", "c", "d", "b"}
	for v := VertexID(1); v <= 5; v++ {
		if err := g.AddVertex(v, labels[v-1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []Edge{{1, 2}, {1, 5}, {2, 3}, {3, 4}} {
		if err := g.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := fig1Graph(t)
	if got, want := g.NumVertices(), 8; got != want {
		t.Errorf("NumVertices = %d, want %d", got, want)
	}
	if got, want := g.NumEdges(), 10; got != want {
		t.Errorf("NumEdges = %d, want %d", got, want)
	}
	if !g.HasEdge(2, 1) {
		t.Error("HasEdge(2,1) = false, want true (undirected)")
	}
	if g.HasEdge(1, 8) {
		t.Error("HasEdge(1,8) = true, want false")
	}
	if got, want := g.Degree(2), 3; got != want {
		t.Errorf("Degree(2) = %d, want %d", got, want)
	}
	if l, ok := g.Label(6); !ok || l != "a" {
		t.Errorf("Label(6) = %q,%v want a,true", l, ok)
	}
	if got := len(g.Labels()); got != 4 {
		t.Errorf("len(Labels) = %d, want 4", got)
	}
}

func TestGraphRejectsSelfLoopsAndDuplicates(t *testing.T) {
	g := New()
	if err := g.AddVertex(1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddVertex(2, "b"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 1); err == nil {
		t.Error("AddEdge(1,1): want self-loop error")
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 1); err == nil {
		t.Error("AddEdge(2,1): want duplicate error (undirected)")
	}
	if err := g.AddEdge(1, 3); err == nil {
		t.Error("AddEdge to missing vertex: want error")
	}
}

func TestGraphLabelConflict(t *testing.T) {
	g := New()
	if err := g.AddVertex(1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddVertex(1, "a"); err != nil {
		t.Errorf("re-adding same label: %v", err)
	}
	if err := g.AddVertex(1, "b"); err == nil {
		t.Error("re-adding with different label: want error")
	}
}

func TestEnsureEdge(t *testing.T) {
	g := New()
	added, err := g.EnsureEdge(1, "a", 2, "b")
	if err != nil || !added {
		t.Fatalf("EnsureEdge first = %v,%v want true,nil", added, err)
	}
	added, err = g.EnsureEdge(2, "b", 1, "a")
	if err != nil || added {
		t.Fatalf("EnsureEdge dup = %v,%v want false,nil", added, err)
	}
	added, err = g.EnsureEdge(3, "c", 3, "c")
	if err != nil || added {
		t.Fatalf("EnsureEdge self-loop = %v,%v want false,nil", added, err)
	}
	if !g.HasVertex(3) {
		t.Error("self-loop should still create the vertex")
	}
	if _, err = g.EnsureEdge(1, "z", 2, "b"); err == nil {
		t.Error("EnsureEdge with conflicting label: want error")
	}
}

func TestEdgeNormAndOther(t *testing.T) {
	e := Edge{5, 2}.Norm()
	if e != (Edge{2, 5}) {
		t.Errorf("Norm = %v, want (2,5)", e)
	}
	if e.Other(2) != 5 || e.Other(5) != 2 {
		t.Error("Other endpoints wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other(non-endpoint) should panic")
		}
	}()
	e.Other(9)
}

func TestClone(t *testing.T) {
	g := fig1Graph(t)
	c := g.Clone()
	if err := c.AddVertex(99, "z"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddEdge(99, 1); err != nil {
		t.Fatal(err)
	}
	if g.HasVertex(99) || g.NumEdges() != 10 {
		t.Error("mutating clone affected original")
	}
	if c.NumEdges() != 11 {
		t.Error("clone edge not added")
	}
}

func TestStreamOrdersCoverAllEdgesExactlyOnce(t *testing.T) {
	g := fig1Graph(t)
	rng := rand.New(rand.NewSource(42))
	for _, order := range []StreamOrder{OrderOriginal, OrderBFS, OrderDFS, OrderRandom} {
		s := StreamOf(g, order, rng)
		if len(s) != g.NumEdges() {
			t.Errorf("%s: stream has %d edges, want %d", order, len(s), g.NumEdges())
		}
		seen := make(map[Edge]int)
		for _, se := range s {
			seen[se.Edge().Norm()]++
			if lu := g.MustLabel(se.U); lu != se.LU {
				t.Errorf("%s: label mismatch for %d: %s vs %s", order, se.U, lu, se.LU)
			}
		}
		for _, e := range g.Edges() {
			if seen[e] != 1 {
				t.Errorf("%s: edge %v emitted %d times, want 1", order, e, seen[e])
			}
		}
	}
}

func TestBFSOrderIsBreadthFirst(t *testing.T) {
	// Path a-b-c-d plus branch at the root: BFS from vertex 1 must emit
	// both root edges before any depth-2 edge.
	g := pathWithBranch(t)
	s := StreamOf(g, OrderBFS, nil)
	pos := make(map[Edge]int)
	for i, se := range s {
		pos[se.Edge().Norm()] = i
	}
	if pos[Edge{1, 2}] > pos[Edge{2, 3}] || pos[Edge{1, 5}] > pos[Edge{2, 3}] {
		t.Errorf("BFS order wrong: %v", s)
	}
	if pos[Edge{2, 3}] > pos[Edge{3, 4}] {
		t.Errorf("BFS order wrong at depth 2: %v", s)
	}
}

func TestDFSOrderIsDepthFirst(t *testing.T) {
	// Same branching path: DFS must finish the 1-2-3-4 chain before (1,5)
	// or vice versa — i.e. (2,3) and (3,4) appear contiguously after (1,2)
	// if the chain is explored first.
	g := pathWithBranch(t)
	s := StreamOf(g, OrderDFS, nil)
	pos := make(map[Edge]int)
	for i, se := range s {
		pos[se.Edge().Norm()] = i
	}
	// Depth-first: the deep edge (3,4) must come before the sibling (1,5)
	// is *discovered from traversal* — but (1,5) is emitted when 1 is
	// expanded. What distinguishes DFS here is that (2,3) precedes
	// expansion of 5's subtree; with this small graph assert the chain is
	// explored in order.
	if !(pos[Edge{1, 2}] < pos[Edge{2, 3}] && pos[Edge{2, 3}] < pos[Edge{3, 4}]) {
		t.Errorf("DFS chain order wrong: %v", s)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New()
	for v, l := range map[VertexID]Label{1: "a", 2: "b", 3: "a", 4: "b", 5: "c"} {
		if err := g.AddVertex(v, l); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	comps := ConnectedComponents(g)
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3 (incl. isolated vertex)", len(comps))
	}
	if IsConnected(g) {
		t.Error("IsConnected = true, want false")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := fig1Graph(t)
	sub := InducedSubgraph(g, []Edge{{1, 2}, {2, 3}})
	if sub.NumVertices() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("induced = %v, want 3 vertices 2 edges", sub)
	}
	if l := sub.MustLabel(2); l != "b" {
		t.Errorf("label not copied: %q", l)
	}
}

func TestBuildGraphRoundTrip(t *testing.T) {
	g := fig1Graph(t)
	s := StreamOf(g, OrderRandom, rand.New(rand.NewSource(7)))
	g2, err := BuildGraph(s)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch: %v vs %v", g2, g)
	}
	for _, e := range g.Edges() {
		if !g2.HasEdge(e.U, e.V) {
			t.Errorf("edge %v lost in round trip", e)
		}
	}
}

// TestStreamOrderPermutationProperty: any ordering of any random graph is a
// permutation of its edge set (property-based).
func TestStreamOrderPermutationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64, nRaw uint8, extra uint16) bool {
		n := int(nRaw%40) + 2
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, n, int(extra%128))
		for _, order := range []StreamOrder{OrderBFS, OrderDFS, OrderRandom} {
			s := StreamOf(g, order, rng)
			if len(s) != g.NumEdges() {
				return false
			}
			seen := make(map[Edge]struct{})
			for _, se := range s {
				k := se.Edge().Norm()
				if _, dup := seen[k]; dup {
					return false
				}
				seen[k] = struct{}{}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// randomGraph builds a random simple labelled graph with n vertices and up
// to m extra random edges on top of a spanning path (so it is connected).
func randomGraph(r *rand.Rand, n, m int) *Graph {
	g := New()
	alphabet := []Label{"a", "b", "c", "d"}
	for v := 0; v < n; v++ {
		if err := g.AddVertex(VertexID(v), alphabet[r.Intn(len(alphabet))]); err != nil {
			panic(err)
		}
	}
	for v := 1; v < n; v++ {
		if err := g.AddEdge(VertexID(v-1), VertexID(v)); err != nil {
			panic(err)
		}
	}
	for i := 0; i < m; i++ {
		u, v := VertexID(r.Intn(n)), VertexID(r.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
	}
	return g
}
