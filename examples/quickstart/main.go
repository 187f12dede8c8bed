// Quickstart: partition a small social graph for a pattern-matching query
// workload, then inspect placements and quality.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"loom"
)

func main() {
	// 1. Describe the query workload Q: patterns plus their relative
	// frequencies. Here 60% of queries look for friends-of-friends and
	// 40% for people in the same city.
	wl := loom.NewWorkload("social")
	wl.Add("friends-of-friends", loom.Path("person", "person", "person"), 0.6)
	wl.Add("same-city", loom.Path("person", "city", "person"), 0.4)

	// 2. Build the partitioner: 2 partitions, and a hint of how many
	// vertices to expect (sizes the balance constraint C = ν·n/k).
	p, err := loom.New(loom.Options{
		Partitions:       2,
		ExpectedVertices: 16,
		WindowSize:       12, // tiny demo window; default is 10k
	}, wl)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Stream edges as they arrive. Two triangle communities, each
	// around its own city.
	type e struct {
		u  int64
		lu string
		v  int64
		lv string
	}
	for _, ed := range []e{
		{1, "person", 2, "person"}, {2, "person", 3, "person"}, {1, "person", 3, "person"},
		{1, "person", 10, "city"}, {2, "person", 10, "city"}, {3, "person", 10, "city"},
		{4, "person", 5, "person"}, {5, "person", 6, "person"}, {4, "person", 6, "person"},
		{4, "person", 11, "city"}, {5, "person", 11, "city"}, {6, "person", 11, "city"},
	} {
		p.AddEdge(ed.u, ed.lu, ed.v, ed.lv)
	}

	// 4. Drain the sliding window at end-of-stream.
	p.Flush()

	// 5. Read placements through a snapshot: an immutable view, free to
	// take and safe to read from any goroutine while ingest continues.
	snap := p.Snapshot()
	fmt.Println("vertex -> partition:")
	for v := int64(1); v <= 11; v++ {
		if part, ok := snap.PartitionOf(v); ok {
			fmt.Printf("  %2d -> %d\n", v, part)
		}
	}
	fmt.Printf("partition sizes: %v\n", snap.Sizes())

	// 6. Evaluate quality: inter-partition traversals for the workload.
	ev, err := p.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload ipt: %.1f, edge-cut: %d, imbalance: %.1f%%\n",
		ev.IPT, ev.EdgeCut, 100*ev.Imbalance)

	st := p.Stats()
	fmt.Printf("stats: %d edges processed, %d windowed, %d placed immediately\n",
		st.EdgesProcessed, st.WindowedEdges, st.ImmediateEdges)
}
