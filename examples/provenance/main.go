// Provenance example: partitioning a PROV-DM lineage graph (the paper's
// ProvGen dataset) for a workload of provenance queries, and the effect of
// Loom's window size (§5.3 / Fig. 9).
//
// Provenance graphs are chains: page versions (Entities) produced by edit
// Activities that are associated with Agents. Lineage queries walk these
// chains — derivation steps, attribution, agent continuity — so keeping
// consecutive revisions together is exactly what a query-aware partitioner
// should discover.
//
// Run with:
//
//	go run ./examples/provenance
package main

import (
	"fmt"
	"log"

	"loom"
)

func main() {
	// Generate the ProvGen-like dataset and its canonical PROV workload
	// (Fig. 6's Entity–Activity–Entity pattern and friends).
	edges, err := loom.GenerateDataset("provgen", 6000, 11)
	if err != nil {
		log.Fatal(err)
	}
	wl, err := loom.DatasetWorkload("provgen")
	if err != nil {
		log.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, e := range edges {
		seen[e.U], seen[e.V] = true, true
	}
	fmt.Printf("provgen: %d vertices, %d edges, %d queries in workload\n",
		len(seen), len(edges), wl.Len())

	stream, err := loom.OrderStream(edges, "random", 3) // adversarial order
	if err != nil {
		log.Fatal(err)
	}

	// Baseline for the comparison: Hash (what most distributed graph
	// databases do by default).
	hash, err := loom.NewBaseline("hash", loom.Options{
		Partitions: 8, ExpectedVertices: len(seen),
	}, wl)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range stream {
		hash.AddEdge(e.U, e.LU, e.V, e.LV)
	}
	hash.Flush()
	hev, err := hash.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhash baseline: ipt = %.1f\n", hev.IPT)

	// Loom across window sizes: larger windows see more of each motif
	// cluster before having to commit (§5.3), so ipt falls then
	// flattens.
	fmt.Println("\nwindow size   ipt        vs hash")
	for _, window := range []int{32, 128, 512, 2048} {
		p, err := loom.New(loom.Options{
			Partitions:       8,
			ExpectedVertices: len(seen),
			WindowSize:       window,
		}, wl)
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
		fmt.Printf("%-13d %-10.1f %.1f%%\n", window, ev.IPT, 100*ev.IPT/hev.IPT)
	}
}
