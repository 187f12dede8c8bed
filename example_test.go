package loom_test

import (
	"fmt"
	"sort"

	"loom"
)

// The canonical end-to-end flow: declare the workload, stream edges,
// flush, read placements.
func Example() {
	wl := loom.NewWorkload("demo")
	wl.Add("coauthors", loom.Path("person", "paper", "person"), 1.0)

	p, err := loom.New(loom.Options{Partitions: 2, ExpectedVertices: 6, WindowSize: 4}, wl)
	if err != nil {
		panic(err)
	}
	// Two disjoint coauthor pairs.
	p.AddEdge(1, "person", 10, "paper")
	p.AddEdge(2, "person", 10, "paper")
	p.AddEdge(3, "person", 20, "paper")
	p.AddEdge(4, "person", 20, "paper")
	p.Flush()

	// Coauthor clusters stay together. Snapshot is the read surface: an
	// immutable view, free to take and safe to read from any goroutine.
	snap := p.Snapshot()
	a1, _ := snap.PartitionOf(1)
	a2, _ := snap.PartitionOf(2)
	paper1, _ := snap.PartitionOf(10)
	b1, _ := snap.PartitionOf(3)
	b2, _ := snap.PartitionOf(4)
	paper2, _ := snap.PartitionOf(20)
	fmt.Println("cluster 1 together:", a1 == a2 && a2 == paper1)
	fmt.Println("cluster 2 together:", b1 == b2 && b2 == paper2)
	// Output:
	// cluster 1 together: true
	// cluster 2 together: true
}

// Patterns can be built from paths, cycles, stars, or explicit edges.
func ExampleNewPattern() {
	q := loom.NewPattern().
		AddEdge(1, "Person", 2, "Paper").
		AddEdge(2, "Paper", 3, "Paper").
		AddEdge(3, "Paper", 4, "Person")
	fmt.Println(q.Edges(), "edges")
	// Output:
	// 3 edges
}

// Baselines implement the same interface, making comparisons one-liners.
func ExampleNewBaseline() {
	wl := loom.NewWorkload("w")
	wl.Add("pairs", loom.Path("a", "b"), 1.0)
	h, err := loom.NewBaseline("hash", loom.Options{Partitions: 4, ExpectedVertices: 10}, wl)
	if err != nil {
		panic(err)
	}
	h.AddEdge(1, "a", 2, "b")
	h.Flush()
	sizes := h.Snapshot().Sizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	fmt.Println("assigned:", total)
	// Output:
	// assigned: 2
}

// Evaluate reports the workload-aware quality of the final partitioning.
func ExamplePartitioner_Evaluate() {
	wl := loom.NewWorkload("w")
	wl.Add("pair", loom.Path("x", "y"), 1.0)
	p, err := loom.New(loom.Options{Partitions: 2, ExpectedVertices: 4, WindowSize: 2}, wl)
	if err != nil {
		panic(err)
	}
	p.AddEdge(1, "x", 2, "y")
	p.AddEdge(3, "x", 4, "y")
	p.Flush()
	ev, err := p.Evaluate()
	if err != nil {
		panic(err)
	}
	fmt.Println("ipt:", ev.IPT)
	// Output:
	// ipt: 0
}

// Datasets from the paper's evaluation are available as generators.
func ExampleGenerateDataset() {
	edges, err := loom.GenerateDataset("provgen", 300, 1)
	if err != nil {
		panic(err)
	}
	labels := map[string]bool{}
	for _, e := range edges {
		labels[e.LU] = true
		labels[e.LV] = true
	}
	var names []string
	for l := range labels {
		names = append(names, l)
	}
	sort.Strings(names)
	fmt.Println(names)
	// Output:
	// [Activity Agent Entity]
}
