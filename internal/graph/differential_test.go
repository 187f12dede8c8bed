package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"loom/internal/wal"
)

// refGraph is the pre-compression slice-backed representation (map edge
// set, raw adjacency slices, materialised eorder), kept as the
// differential oracle: the compressed storage must agree with it edge for
// edge and neighbour for neighbour on any stream.
type refGraph struct {
	label  map[VertexID]Label
	order  []VertexID
	adj    map[VertexID][]VertexID
	eset   map[Edge]struct{}
	eorder []Edge
	rec    []StreamEdge // accepted edges, arrival order + orientation
}

func newRef() *refGraph {
	return &refGraph{
		label: make(map[VertexID]Label),
		adj:   make(map[VertexID][]VertexID),
		eset:  make(map[Edge]struct{}),
	}
}

func (r *refGraph) ensureVertex(id VertexID, l Label) error {
	if have, ok := r.label[id]; ok {
		if have != l {
			return fmt.Errorf("label conflict on %d", id)
		}
		return nil
	}
	r.label[id] = l
	r.order = append(r.order, id)
	return nil
}

// ensureEdge mirrors Graph.EnsureEdge's semantics exactly.
func (r *refGraph) ensureEdge(u VertexID, lu Label, v VertexID, lv Label) (bool, error) {
	if err := r.ensureVertex(u, lu); err != nil {
		return false, err
	}
	if err := r.ensureVertex(v, lv); err != nil {
		return false, err
	}
	if u == v {
		return false, nil
	}
	k := Edge{u, v}.Norm()
	if _, dup := r.eset[k]; dup {
		return false, nil
	}
	r.eset[k] = struct{}{}
	r.eorder = append(r.eorder, k)
	r.adj[u] = append(r.adj[u], v)
	r.adj[v] = append(r.adj[v], u)
	r.rec = append(r.rec, StreamEdge{U: u, LU: lu, V: v, LV: lv})
	return true, nil
}

// genStream produces a seeded noisy stream: duplicate edges (in both
// orientations), self-loops, skewed vertex reuse, a small label alphabet
// keyed off the vertex so labels never conflict.
func genStream(seed int64, n, vrange int) []StreamEdge {
	r := rand.New(rand.NewSource(seed))
	labels := []Label{"A", "B", "C", "D", "E"}
	lbl := func(v VertexID) Label { return labels[int(v)%len(labels)] }
	out := make([]StreamEdge, 0, n)
	for i := 0; i < n; i++ {
		var u, v VertexID
		switch r.Intn(10) {
		case 0: // self-loop
			u = VertexID(r.Intn(vrange))
			v = u
		case 1, 2: // likely duplicate: small ID range, random orientation
			u = VertexID(r.Intn(20))
			v = VertexID(r.Intn(20))
		default:
			u = VertexID(r.Intn(vrange))
			v = VertexID(r.Intn(vrange))
		}
		out = append(out, StreamEdge{U: u, LU: lbl(u), V: v, LV: lbl(v)})
	}
	return out
}

// diffCheck asserts g and r agree on every observable surface.
func diffCheck(t *testing.T, g *Graph, r *refGraph) {
	t.Helper()
	if g.NumVertices() != len(r.order) {
		t.Fatalf("|V| = %d, ref %d", g.NumVertices(), len(r.order))
	}
	if g.NumEdges() != len(r.eorder) {
		t.Fatalf("|E| = %d, ref %d", g.NumEdges(), len(r.eorder))
	}
	// Vertex insertion order and labels.
	verts := g.Vertices()
	for i, v := range verts {
		if v != r.order[i] {
			t.Fatalf("vertex order[%d] = %d, ref %d", i, v, r.order[i])
		}
		if l, ok := g.Label(v); !ok || l != r.label[v] {
			t.Fatalf("label of %d = %q, ref %q", v, l, r.label[v])
		}
	}
	// Edge insertion order.
	edges := g.Edges()
	for i, e := range edges {
		if e != r.eorder[i] {
			t.Fatalf("edge order[%d] = %v, ref %v", i, e, r.eorder[i])
		}
	}
	// Adjacency: order and content per vertex; Degree matches.
	var ns []VertexID
	for _, v := range verts {
		ns = g.Neighbors(v, ns[:0])
		want := r.adj[v]
		if len(ns) != len(want) || g.Degree(v) != len(want) {
			t.Fatalf("neighbors(%d): len %d (deg %d), ref %d", v, len(ns), g.Degree(v), len(want))
		}
		for i := range want {
			if ns[i] != want[i] {
				t.Fatalf("neighbors(%d)[%d] = %d, ref %d", v, i, ns[i], want[i])
			}
		}
	}
	// HasEdge: every recorded edge present in both orientations, plus
	// absent probes.
	for e := range r.eset {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("HasEdge(%v) = false", e)
		}
		if !g.HasEdge(e.V, e.U) {
			t.Fatalf("HasEdge(%v reversed) = false", e)
		}
	}
	probe := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		u := VertexID(probe.Intn(300))
		v := VertexID(probe.Intn(300))
		_, want := r.eset[Edge{u, v}.Norm()]
		if u == v {
			want = false
		}
		if got := g.HasEdge(u, v); got != want {
			t.Fatalf("HasEdge(%d,%d) = %v, ref %v", u, v, got, want)
		}
	}
	// Replay capture: arrival order, orientation and labels.
	rec := g.CaptureReplay()
	if rec.NumEdges() != len(r.rec) {
		t.Fatalf("replay edges = %d, ref %d", rec.NumEdges(), len(r.rec))
	}
	i := 0
	if err := rec.Each(func(se StreamEdge) error {
		if se != r.rec[i] {
			return fmt.Errorf("replay[%d] = %v, ref %v", i, se, r.rec[i])
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func runDifferential(t *testing.T, g *Graph, seed int64, n int) {
	t.Helper()
	r := newRef()
	for _, se := range genStream(seed, n, 3000) {
		wantAdded, wantErr := r.ensureEdge(se.U, se.LU, se.V, se.LV)
		gotAdded, gotErr := g.EnsureEdge(se.U, se.LU, se.V, se.LV)
		if gotAdded != wantAdded || (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("EnsureEdge(%v): (%v,%v), ref (%v,%v)", se, gotAdded, gotErr, wantAdded, wantErr)
		}
	}
	diffCheck(t, g, r)
}

func TestDifferentialUndirected(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		runDifferential(t, New(), seed, 30_000)
	}
}

func TestDifferentialLabelConflict(t *testing.T) {
	g := New()
	r := newRef()
	g.EnsureEdge(1, "A", 2, "B")
	r.ensureEdge(1, "A", 2, "B")
	// Conflicting label: both reject, graph state unchanged.
	if _, err := g.EnsureEdge(1, "X", 3, "C"); err == nil {
		t.Fatal("label conflict accepted")
	}
	r.ensureEdge(1, "X", 3, "C")
	diffCheck(t, g, r)
}

// TestDifferentialSpill runs the same stream through an in-memory graph
// and one spilling to a MemFS, then asserts the two agree with the oracle
// and with each other — spilling must be invisible to every read.
func TestDifferentialSpill(t *testing.T) {
	mem := New()
	spill := New()
	fs := wal.NewMemFS()
	if err := spill.SpillTo(fs, "gspill"); err != nil {
		t.Fatal(err)
	}
	const n = 30_000 // ≥ several logChunkEdges chunks
	r := newRef()
	for _, se := range genStream(42, n, 3000) {
		r.ensureEdge(se.U, se.LU, se.V, se.LV)
		mem.EnsureEdge(se.U, se.LU, se.V, se.LV)
		spill.EnsureEdge(se.U, se.LU, se.V, se.LV)
	}
	diffCheck(t, mem, r)
	diffCheck(t, spill, r)
	chunks, bytes, serr := spill.SpillStats()
	if serr != nil || chunks == 0 || bytes == 0 {
		t.Fatalf("spill stats: chunks=%d bytes=%d err=%v", chunks, bytes, serr)
	}
	// Spilled chunks actually left memory: the spilling graph's resident
	// log is bounded by the active chunk while the in-memory graph holds
	// every chunk.
	if sm, mm := spill.Mem(), mem.Mem(); sm.LogBytes >= mm.LogBytes {
		t.Fatalf("spill log resident %d >= in-memory %d", sm.LogBytes, mm.LogBytes)
	}
}

// TestSpillFaultDegrade injects spill failures: chunks must stay resident
// (no data loss), SpillStats must surface the error, and Compact on a
// recovered filesystem must drain the backlog to disk.
func TestSpillFaultDegrade(t *testing.T) {
	g := New()
	fs := wal.NewMemFS()
	if err := g.SpillTo(fs, "gspill"); err != nil {
		t.Fatal(err)
	}
	fs.SetWriteFault("elog-", -1, errors.New("disk full"))
	r := newRef()
	for _, se := range genStream(7, 3*logChunkEdges, 100_000) {
		r.ensureEdge(se.U, se.LU, se.V, se.LV)
		g.EnsureEdge(se.U, se.LU, se.V, se.LV)
	}
	if _, _, err := g.SpillStats(); err == nil {
		t.Fatal("spill failures not surfaced")
	}
	// Every read still exact while degraded.
	diffCheck(t, g, r)
	// Recover the disk; Compact drains the resident backlog.
	fs.SetWriteFault("elog-", 0, nil)
	if err := g.Compact(); err != nil {
		t.Fatalf("compact after recovery: %v", err)
	}
	chunks, _, serr := g.SpillStats()
	if serr != nil || chunks == 0 {
		t.Fatalf("after compact: chunks=%d err=%v", chunks, serr)
	}
	for i := range g.log.frozen {
		if g.log.frozen[i].file == "" {
			t.Fatalf("chunk %d still resident after compact", i)
		}
	}
	diffCheck(t, g, r)
}

// TestSpillReplayWhileIngesting captures a replay, keeps ingesting past
// several chunk freezes, then replays the capture: it must see exactly
// the edges recorded at capture time.
func TestSpillReplayWhileIngesting(t *testing.T) {
	g := New()
	fs := wal.NewMemFS()
	if err := g.SpillTo(fs, "gspill"); err != nil {
		t.Fatal(err)
	}
	stream := genStream(9, 4*logChunkEdges, 1_000_000)
	var accepted []StreamEdge
	half := len(stream) / 2
	for _, se := range stream[:half] {
		if added, _ := g.EnsureEdge(se.U, se.LU, se.V, se.LV); added {
			accepted = append(accepted, se)
		}
	}
	rec := g.CaptureReplay()
	for _, se := range stream[half:] {
		g.EnsureEdge(se.U, se.LU, se.V, se.LV)
	}
	if rec.NumEdges() != len(accepted) {
		t.Fatalf("capture = %d edges, want %d", rec.NumEdges(), len(accepted))
	}
	i := 0
	if err := rec.Each(func(se StreamEdge) error {
		if se != accepted[i] {
			return fmt.Errorf("replay[%d] = %v, want %v", i, se, accepted[i])
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New()
	r := newRef()
	for _, se := range genStream(5, 5000, 500) {
		r.ensureEdge(se.U, se.LU, se.V, se.LV)
		g.EnsureEdge(se.U, se.LU, se.V, se.LV)
	}
	c := g.Clone()
	// Mutate the original; the clone must still match the oracle.
	for _, se := range genStream(6, 5000, 500) {
		g.EnsureEdge(se.U, se.LU, se.V, se.LV)
	}
	diffCheck(t, c, r)
}

func TestAdjacencyBlockBoundaries(t *testing.T) {
	// Degrees straddling the compress-tail boundary: exactly adjBlock,
	// adjBlock±1, several blocks, and descending IDs (negative deltas).
	for _, deg := range []int{1, adjBlock - 1, adjBlock, adjBlock + 1, 3*adjBlock + 7} {
		g := New()
		g.AddVertex(0, "hub")
		want := make([]VertexID, 0, deg)
		for i := deg; i > 0; i-- { // descending: zigzag's negative-delta path
			v := VertexID(i * 1000)
			g.AddVertex(v, "leaf")
			if err := g.AddEdge(0, v); err != nil {
				t.Fatal(err)
			}
			want = append(want, v)
		}
		got := g.Neighbors(0, nil)
		if len(got) != deg {
			t.Fatalf("deg %d: got %d neighbours", deg, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("deg %d: neighbors[%d] = %d, want %d", deg, i, got[i], want[i])
			}
		}
		if g.Degree(0) != deg {
			t.Fatalf("Degree = %d, want %d", g.Degree(0), deg)
		}
	}
}

func TestMemStatsAccounting(t *testing.T) {
	g := New()
	for _, se := range genStream(3, 20_000, 2000) {
		g.EnsureEdge(se.U, se.LU, se.V, se.LV)
	}
	m := g.Mem()
	if m.Total <= 0 || m.AdjBytes <= 0 || m.EdgeSetBytes <= 0 || m.LogBytes <= 0 || m.VertexBytes <= 0 {
		t.Fatalf("zero component in %+v", m)
	}
	if sum := m.VertexBytes + m.LabelBytes + m.AdjBytes + m.EdgeSetBytes + m.LogBytes; m.Total != sum {
		t.Fatalf("Total %d != sum %d", m.Total, sum)
	}
	if bpe := m.BytesPerEdge(g.NumEdges()); bpe <= 0 || bpe > 200 {
		t.Fatalf("bytes/edge = %.1f out of sane range", bpe)
	}
}
