// Social-network example: the workload-sensitivity story from §1 of the
// Loom paper, at demonstration scale.
//
// A social graph's query workload traverses a *specific subset* of edge
// types (friendships between people, people attending the same event), so
// a workload-agnostic min-edge-cut partitioner leaves performance on the
// table. This example builds a community-structured social graph, streams
// it through Loom and through the three baselines, and compares the
// inter-partition traversals each partitioning suffers for the workload.
//
// Run with:
//
//	go run ./examples/social
package main

import (
	"fmt"
	"log"
	"math/rand"

	"loom"
)

// buildSocialStream creates a community-structured social graph: groups of
// people with dense internal friendships, each clustered around a city and
// a few events, with occasional cross-community friendships.
func buildSocialStream(rng *rand.Rand, communities, peoplePer int) []loom.StreamEdge {
	var edges []loom.StreamEdge
	person := func(c, i int) int64 { return int64(c*1000 + i) }
	city := func(c int) int64 { return int64(900000 + c) }
	event := func(c, j int) int64 { return int64(800000 + c*10 + j) }

	for c := 0; c < communities; c++ {
		for i := 0; i < peoplePer; i++ {
			p := person(c, i)
			// Friendships inside the community.
			for j := i + 1; j < peoplePer; j++ {
				if rng.Float64() < 0.25 {
					edges = append(edges, loom.StreamEdge{U: p, LU: "person", V: person(c, j), LV: "person"})
				}
			}
			// Home city.
			edges = append(edges, loom.StreamEdge{U: p, LU: "person", V: city(c), LV: "city"})
			// Events attended.
			for j := 0; j < 3; j++ {
				if rng.Float64() < 0.3 {
					edges = append(edges, loom.StreamEdge{U: p, LU: "person", V: event(c, j), LV: "event"})
				}
			}
		}
		// A few bridges to the next community.
		for b := 0; b < 3; b++ {
			edges = append(edges, loom.StreamEdge{
				U: person(c, rng.Intn(peoplePer)), LU: "person",
				V: person((c+1)%communities, rng.Intn(peoplePer)), LV: "person",
			})
		}
	}
	return edges
}

func main() {
	rng := rand.New(rand.NewSource(7))
	edges := buildSocialStream(rng, 24, 30)

	// Count vertices for the capacity hint.
	seen := map[int64]bool{}
	for _, e := range edges {
		seen[e.U], seen[e.V] = true, true
	}
	fmt.Printf("social graph: %d vertices, %d edges\n", len(seen), len(edges))

	// The workload: recommendation-style pattern queries ("real-time
	// applications of graph data … for example, in social networks").
	wl := loom.NewWorkload("social")
	wl.Add("friend-of-friend", loom.Path("person", "person", "person"), 0.55)
	wl.Add("same-event", loom.Path("person", "event", "person"), 0.25)
	wl.Add("same-city", loom.Path("person", "city", "person"), 0.20)

	// Stream in BFS order (the favourable case; try "random" to see the
	// §5.3 sensitivity).
	stream, err := loom.OrderStream(edges, "bfs", 1)
	if err != nil {
		log.Fatal(err)
	}

	opt := loom.Options{
		Partitions:       8,
		ExpectedVertices: len(seen),
		ExpectedEdges:    len(edges),
		WindowSize:       512,
	}

	fmt.Println("\nsystem   ipt        vs hash   edge-cut  imbalance")
	var hashIPT float64
	for _, algo := range []string{"hash", "ldg", "fennel", "loom"} {
		var p *loom.Partitioner
		if algo == "loom" {
			p, err = loom.New(opt, wl)
		} else {
			p, err = loom.NewBaseline(algo, opt, wl)
		}
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range stream {
			p.AddEdge(e.U, e.LU, e.V, e.LV)
		}
		p.Flush()
		ev, err := p.Evaluate()
		if err != nil {
			log.Fatal(err)
		}
		if algo == "hash" {
			hashIPT = ev.IPT
		}
		rel := 100.0
		if hashIPT > 0 {
			rel = 100 * ev.IPT / hashIPT
		}
		fmt.Printf("%-8s %-10.1f %5.1f%%    %-9d %.1f%%\n",
			algo, ev.IPT, rel, ev.EdgeCut, 100*ev.Imbalance)
	}
	fmt.Println("\nLower ipt means fewer network hops when answering the workload.")
}
