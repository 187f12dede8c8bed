package loom

import (
	"testing"
)

func socialWorkload() *Workload {
	wl := NewWorkload("social")
	wl.Add("friends-of-friends", Path("person", "person", "person"), 0.6)
	wl.Add("same-city", Path("person", "city", "person"), 0.4)
	return wl
}

func TestPublicQuickstartFlow(t *testing.T) {
	wl := socialWorkload()
	p, err := New(Options{Partitions: 2, ExpectedVertices: 16, WindowSize: 8}, wl)
	if err != nil {
		t.Fatal(err)
	}
	// A small two-community social graph.
	edges := []StreamEdge{
		{1, "person", 2, "person"}, {2, "person", 3, "person"}, {1, "person", 3, "person"},
		{1, "person", 10, "city"}, {2, "person", 10, "city"}, {3, "person", 10, "city"},
		{4, "person", 5, "person"}, {5, "person", 6, "person"}, {4, "person", 6, "person"},
		{4, "person", 11, "city"}, {5, "person", 11, "city"}, {6, "person", 11, "city"},
	}
	for _, e := range edges {
		p.AddEdge(e.U, e.LU, e.V, e.LV)
	}
	p.Flush()

	for _, v := range []int64{1, 2, 3, 4, 5, 6, 10, 11} {
		if _, ok := p.Snapshot().PartitionOf(v); !ok {
			t.Errorf("vertex %d unassigned after Flush", v)
		}
	}
	if got := p.Partitions(); got != 2 {
		t.Errorf("Partitions = %d", got)
	}
	sizes := p.Snapshot().Sizes()
	if sizes[0]+sizes[1] != 8 {
		t.Errorf("sizes = %v, want total 8", sizes)
	}
	ev, err := p.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if ev.AssignedVertices != 8 {
		t.Errorf("evaluation: %+v", ev)
	}
	st := p.Stats()
	if st.EdgesProcessed != len(edges) {
		t.Errorf("stats: %+v", st)
	}
	if st.WindowLen != 0 {
		t.Errorf("window not drained: %+v", st)
	}
	asg := p.Snapshot().Assignments()
	if len(asg) != 8 {
		t.Errorf("Assignments len = %d", len(asg))
	}
}

func TestOptionsValidation(t *testing.T) {
	wl := socialWorkload()
	if _, err := New(Options{Partitions: 0, ExpectedVertices: 10}, wl); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := New(Options{Partitions: 2, ExpectedVertices: 0}, wl); err == nil {
		t.Error("no vertex estimate: want error")
	}
	if _, err := New(Options{Partitions: 2, ExpectedVertices: 10}, nil); err == nil {
		t.Error("nil workload: want error")
	}
	if _, err := New(Options{Partitions: 2, ExpectedVertices: 10}, NewWorkload("empty")); err == nil {
		t.Error("empty workload: want error")
	}
}

func TestBaselines(t *testing.T) {
	wl := socialWorkload()
	for _, algo := range []string{"hash", "ldg", "fennel"} {
		p, err := NewBaseline(algo, Options{Partitions: 2, ExpectedVertices: 8}, wl)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != algo {
			t.Errorf("Name = %s", p.Name())
		}
		p.AddEdge(1, "person", 2, "person")
		p.AddEdge(2, "person", 3, "person")
		p.Flush()
		if _, ok := p.Snapshot().PartitionOf(2); !ok {
			t.Errorf("%s: vertex 2 unassigned", algo)
		}
		if _, err := p.Evaluate(); err != nil {
			t.Errorf("%s: Evaluate: %v", algo, err)
		}
		if err := p.AddQuery("x", Path("a", "b"), 1); err == nil {
			t.Errorf("%s: AddQuery on baseline should fail", algo)
		}
	}
	if _, err := NewBaseline("metis", Options{Partitions: 2, ExpectedVertices: 8}, wl); err == nil {
		t.Error("unknown baseline: want error")
	}
}

func TestWorkloadEvolution(t *testing.T) {
	wl := socialWorkload()
	p, err := New(Options{Partitions: 2, ExpectedVertices: 100, WindowSize: 4}, wl)
	if err != nil {
		t.Fatal(err)
	}
	p.AddEdge(1, "person", 2, "person")
	if err := p.AddQuery("interests", Path("person", "topic"), 0.5); err != nil {
		t.Fatal(err)
	}
	// Topic edges now pass the single-edge motif gate.
	p.AddEdge(2, "person", 50, "topic")
	p.Flush()
	if _, ok := p.Snapshot().PartitionOf(50); !ok {
		t.Error("topic vertex unassigned")
	}
	st := p.Stats()
	if st.WindowedEdges == 0 {
		t.Errorf("no edges were windowed: %+v", st)
	}
}

func TestDisableGraphRecording(t *testing.T) {
	p, err := New(Options{
		Partitions: 2, ExpectedVertices: 8, DisableGraphRecording: true,
	}, socialWorkload())
	if err != nil {
		t.Fatal(err)
	}
	p.AddEdge(1, "person", 2, "person")
	p.Flush()
	if _, err := p.Evaluate(); err == nil {
		t.Error("Evaluate without recording: want error")
	}
}

func TestRobustIngest(t *testing.T) {
	p, err := New(Options{Partitions: 2, ExpectedVertices: 8, WindowSize: 4}, socialWorkload())
	if err != nil {
		t.Fatal(err)
	}
	p.AddEdge(1, "person", 1, "person") // self-loop: dropped
	p.AddEdge(1, "person", 2, "person")
	p.AddEdge(1, "person", 2, "person") // duplicate: dropped
	p.Flush()
	if _, ok := p.Snapshot().PartitionOf(1); !ok {
		t.Error("vertex 1 unassigned")
	}
}

func TestGenerateDatasetAndWorkload(t *testing.T) {
	edges, err := GenerateDataset("provgen", 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) == 0 {
		t.Fatal("no edges")
	}
	wl, err := DatasetWorkload("provgen")
	if err != nil {
		t.Fatal(err)
	}
	if wl.Len() == 0 {
		t.Fatal("empty workload")
	}
	if _, err := GenerateDataset("nope", 10, 1); err == nil {
		t.Error("unknown dataset: want error")
	}

	// Full pipeline through the public API: Loom must beat Hash on ipt.
	run := func(algo string) float64 {
		opt := Options{Partitions: 4, ExpectedVertices: 900, WindowSize: 256}
		var p *Partitioner
		var err error
		if algo == "loom" {
			p, err = New(opt, wl)
		} else {
			p, err = NewBaseline(algo, opt, wl)
		}
		if err != nil {
			t.Fatal(err)
		}
		ordered, err := OrderStream(edges, "bfs", 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ordered {
			p.AddEdge(e.U, e.LU, e.V, e.LV)
		}
		p.Flush()
		ev, err := p.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		return ev.IPT
	}
	loomIPT := run("loom")
	hashIPT := run("hash")
	if hashIPT == 0 {
		t.Skip("degenerate graph: hash ipt is zero")
	}
	if loomIPT >= hashIPT {
		t.Errorf("loom ipt %v >= hash ipt %v", loomIPT, hashIPT)
	}
}

func TestOrderStream(t *testing.T) {
	edges := []StreamEdge{
		{1, "a", 2, "b"}, {2, "b", 3, "c"}, {3, "c", 4, "d"},
	}
	for _, order := range []string{"bfs", "dfs", "random", "original"} {
		out, err := OrderStream(edges, order, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(edges) {
			t.Errorf("%s: %d edges", order, len(out))
		}
	}
	if _, err := OrderStream(edges, "sorted", 1); err == nil {
		t.Error("unknown order: want error")
	}
}

func TestRefinePublicAPI(t *testing.T) {
	edges, err := GenerateDataset("provgen", 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := DatasetWorkload("provgen")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, e := range edges {
		seen[e.U], seen[e.V] = true, true
	}
	// Refine a hash baseline: must improve ipt.
	p, err := NewBaseline("hash", Options{Partitions: 4, ExpectedVertices: len(seen)}, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		p.AddEdge(e.U, e.LU, e.V, e.LV)
	}
	p.Flush()
	before, err := p.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Refine(4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Moves == 0 || st.CutAfter >= st.CutBefore {
		t.Errorf("refine stats look wrong: %+v", st)
	}
	after, err := p.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if after.IPT >= before.IPT {
		t.Errorf("refined ipt %.1f >= original %.1f", after.IPT, before.IPT)
	}
	// Refine without recording must fail.
	p2, err := NewBaseline("hash", Options{Partitions: 2, ExpectedVertices: 10, DisableGraphRecording: true}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Refine(2); err == nil {
		t.Error("Refine without recording: want error")
	}
}

func TestRestreamPublicAPI(t *testing.T) {
	edges, err := GenerateDataset("provgen", 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := DatasetWorkload("provgen")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, e := range edges {
		seen[e.U], seen[e.V] = true, true
	}
	opt := Options{Partitions: 4, ExpectedVertices: len(seen), WindowSize: 128}
	p, err := New(opt, wl)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := OrderStream(edges, "random", 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ordered {
		p.AddEdge(e.U, e.LU, e.V, e.LV)
	}
	p.Flush()

	p2, err := p.Restream()
	if err != nil {
		t.Fatal(err)
	}
	reordered, err := OrderStream(edges, "random", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range reordered {
		p2.AddEdge(e.U, e.LU, e.V, e.LV)
	}
	p2.Flush()
	if p2.Snapshot().NumAssigned() != len(seen) {
		t.Error("restream pass did not assign everything")
	}
	// Baselines can't restream.
	hb, err := NewBaseline("hash", opt, wl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hb.Restream(); err == nil {
		t.Error("baseline Restream: want error")
	}
}

func TestSimulatePublicAPI(t *testing.T) {
	wl := socialWorkload()
	p, err := New(Options{Partitions: 2, ExpectedVertices: 16, WindowSize: 8}, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []StreamEdge{
		{1, "person", 2, "person"}, {2, "person", 3, "person"},
		{4, "person", 5, "person"}, {1, "person", 10, "city"},
		{3, "person", 10, "city"},
	} {
		p.AddEdge(e.U, e.LU, e.V, e.LV)
	}
	p.Flush()
	sim, err := p.Simulate(0, 0) // defaults: 1 / 1000
	if err != nil {
		t.Fatal(err)
	}
	if sim.LocalHops+sim.RemoteHops == 0 {
		t.Error("no hops simulated")
	}
	if len(sim.MachineLoad) != 3 { // 2 machines + Ptemp slot
		t.Errorf("MachineLoad = %v", sim.MachineLoad)
	}
	want := float64(sim.LocalHops)*1 + float64(sim.RemoteHops)*1000
	// TotalCost is frequency-weighted; with freqs summing to 1 it is
	// bounded by the unweighted cost.
	if sim.TotalCost > want {
		t.Errorf("cost %v exceeds unweighted bound %v", sim.TotalCost, want)
	}
	// Without recording: error.
	p2, err := New(Options{Partitions: 2, ExpectedVertices: 4, DisableGraphRecording: true}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Simulate(1, 10); err == nil {
		t.Error("Simulate without recording: want error")
	}
}

func TestPatternBuilders(t *testing.T) {
	if Path("a", "b", "c").Edges() != 2 {
		t.Error("Path edges")
	}
	if Cycle("a", "b", "c").Edges() != 3 {
		t.Error("Cycle edges")
	}
	if Star("h", "a", "b").Edges() != 2 {
		t.Error("Star edges")
	}
	p := NewPattern().AddEdge(1, "x", 2, "y").AddEdge(2, "y", 3, "z")
	if p.Edges() != 2 {
		t.Error("NewPattern edges")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate pattern edge should panic")
		}
	}()
	p.AddEdge(1, "x", 2, "y")
}
