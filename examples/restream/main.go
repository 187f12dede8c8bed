// Restream example: the two §6 "future work" integrations implemented by
// this library — restreaming (a second pass that keeps the localities the
// first pass discovered) and offline TAPER-style refinement — applied to
// the paper's hardest setting, a randomly ordered stream.
//
// Run with:
//
//	go run ./examples/restream
package main

import (
	"fmt"
	"log"

	"loom"
)

func main() {
	edges, err := loom.GenerateDataset("lubm", 8000, 13)
	if err != nil {
		log.Fatal(err)
	}
	wl, err := loom.DatasetWorkload("lubm")
	if err != nil {
		log.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, e := range edges {
		seen[e.U], seen[e.V] = true, true
	}
	opt := loom.Options{Partitions: 8, ExpectedVertices: len(seen), WindowSize: 1024}

	// Pass 1 over a pseudo-adversarial random order (§5.3).
	stream1, err := loom.OrderStream(edges, "random", 1)
	if err != nil {
		log.Fatal(err)
	}
	p1, err := loom.New(opt, wl)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range stream1 {
		p1.AddEdge(e.U, e.LU, e.V, e.LV)
	}
	p1.Flush()
	ev1, err := p1.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pass 1 (random order):        ipt=%.0f  imbalance=%.1f%%\n", ev1.IPT, 100*ev1.Imbalance)

	// Pass 2: restream a *different* random order with pass 1 as prior.
	p2, err := p1.Restream()
	if err != nil {
		log.Fatal(err)
	}
	stream2, err := loom.OrderStream(edges, "random", 2)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range stream2 {
		p2.AddEdge(e.U, e.LU, e.V, e.LV)
	}
	p2.Flush()
	ev2, err := p2.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pass 2 (restream, new order): ipt=%.0f  imbalance=%.1f%%\n", ev2.IPT, 100*ev2.Imbalance)

	// Offline refinement of the restreamed partitioning.
	st, err := p2.Refine(4)
	if err != nil {
		log.Fatal(err)
	}
	ev3, err := p2.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after refinement:             ipt=%.0f  imbalance=%.1f%%  (%d moves, weighted cut %.0f → %.0f)\n",
		ev3.IPT, 100*ev3.Imbalance, st.Moves, st.CutBefore, st.CutAfter)
}
