// Streaming example: Loom's *online* behaviours — batch ingest, the
// sliding window as a temporary partition (Ptemp, §3), mid-stream
// placement reads via snapshots, and workload evolution (§2's "trivially
// updated" TPSTry++).
//
// Run with:
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"

	"loom"
)

func main() {
	// Start with a citation-style workload over papers and people.
	wl := loom.NewWorkload("bibliometrics")
	wl.Add("coauthors", loom.Path("Person", "Paper", "Person"), 0.7)
	wl.Add("citations", loom.Path("Paper", "Paper"), 0.3)

	p, err := loom.New(loom.Options{
		Partitions:       4,
		ExpectedVertices: 4000,
		WindowSize:       64,
	}, wl)
	if err != nil {
		log.Fatal(err)
	}

	// Generate a DBLP-like stream and feed it online, in batches — the
	// shape real producers have (a queue consumer hands over a poll's
	// worth of edges at a time). AddBatch returns errors for corrupt
	// edges instead of panicking; here the stream is clean, so any error
	// is fatal.
	edges, err := loom.GenerateDataset("dblp", 3000, 5)
	if err != nil {
		log.Fatal(err)
	}

	const batchSize = 256
	quarters := map[int]bool{}
	for _, q := range []int{1, 2, 3} {
		quarters[(q*len(edges)/4)/batchSize] = true
	}
	for b := 0; b*batchSize < len(edges); b++ {
		start := b * batchSize
		end := min(start+batchSize, len(edges))
		if err := p.AddBatch(edges[start:end]); err != nil {
			log.Fatal(err)
		}

		if quarters[b] {
			st := p.Stats()
			// Vertices in the window are accessible in the temporary
			// partition Ptemp before permanent placement — here we just
			// observe how many edges are buffered.
			fmt.Printf("after %6d edges: window(Ptemp)=%d edges, evictions=%d, immediate=%d\n",
				end, st.WindowLen, st.Evictions, st.ImmediateEdges)
		}

		// Halfway through, the application's query mix changes: venue
		// queries appear. Loom absorbs the new pattern online; newly
		// arriving venue edges start matching motifs immediately.
		if b == (len(edges)/2)/batchSize {
			if err := p.AddQuery("venue-community", loom.Path("Person", "Paper", "Venue"), 0.4); err != nil {
				log.Fatal(err)
			}
			fmt.Println("        >>> workload updated mid-stream: venue queries added")
		}
	}

	// Snapshot is the one way to read placements: the consistent view the
	// last batch boundary published, free to take at any time without
	// blocking ingest; vertices still in Ptemp are reported as unassigned.
	snap := p.Snapshot()
	if part, ok := snap.PartitionOf(edges[0].U); ok {
		fmt.Printf("vertex %d is in partition %d before the final flush (%d assigned so far)\n",
			edges[0].U, part, snap.NumAssigned())
	}

	p.Flush()
	fmt.Printf("final sizes: %v\n", p.Snapshot().Sizes())
	ev, err := p.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final quality: ipt=%.1f edge-cut=%d imbalance=%.1f%%\n",
		ev.IPT, ev.EdgeCut, 100*ev.Imbalance)
}
