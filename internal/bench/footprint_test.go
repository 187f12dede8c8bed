package bench

import (
	"bytes"
	"testing"
)

// TestFootprintSmoke runs a small sweep in both modes and sanity-checks
// the acceptance surface at CI scale: recorded-graph storage within the
// 16 B/edge budget, spill mode actually spilling.
func TestFootprintSmoke(t *testing.T) {
	// 200k stream edges records ~9k edges at the sweep's density — enough
	// to freeze (and in spill mode, write) at least one edge-log chunk,
	// which the spill assertions below depend on.
	edges := int64(200_000)
	rep, err := RunFootprint(Config{Seed: 42, K: 4, WindowSize: 512}, []int64{edges}, nil)
	if err != nil {
		t.Fatalf("RunFootprint: %v", err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("got %d rows, want 2 (memory + spill)", len(rep.Rows))
	}
	var mem, spill FootprintRow
	for _, r := range rep.Rows {
		switch r.Mode {
		case "memory":
			mem = r
		case "spill":
			spill = r
		}
	}
	if mem.RecordedEdges == 0 || spill.RecordedEdges == 0 {
		t.Fatalf("cells recorded no edges: %+v / %+v", mem, spill)
	}
	if mem.RecordedEdges != spill.RecordedEdges || mem.Vertices != spill.Vertices {
		t.Fatalf("modes disagree on the recorded graph: memory |V|=%d |E|=%d, spill |V|=%d |E|=%d",
			mem.Vertices, mem.RecordedEdges, spill.Vertices, spill.RecordedEdges)
	}
	// The ≤16 B/edge budget is an at-scale amortised bound (fixed costs
	// like the vertex table wash out as |E| grows); at smoke scale allow
	// generous headroom while still catching regressions to the old
	// slice-of-uint64 representation (~50+ B/edge).
	if mem.BytesPerEdge > 40 {
		t.Fatalf("memory mode costs %.1f B/recorded-edge at smoke scale", mem.BytesPerEdge)
	}
	if spill.SpilledBytes == 0 {
		t.Fatal("spill mode wrote no chunk bytes")
	}
	if spill.LogBytes >= mem.LogBytes {
		t.Fatalf("spill mode resident log (%d B) not smaller than memory mode (%d B)",
			spill.LogBytes, mem.LogBytes)
	}

	var buf bytes.Buffer
	RenderFootprint(&buf, rep) // must not panic
}

func TestParseEdgeCounts(t *testing.T) {
	got, err := ParseEdgeCounts("1e6, 2500000,1e8")
	if err != nil {
		t.Fatalf("ParseEdgeCounts: %v", err)
	}
	want := []int64{1_000_000, 2_500_000, 100_000_000}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if _, err := ParseEdgeCounts("zero"); err == nil {
		t.Fatal("accepted garbage edge count")
	}
	for _, bad := range []string{"0", "-5", "NaN", "Inf", "-Inf", "1e30", "9.3e18", "2.5", "1e6,0.5"} {
		if got, err := ParseEdgeCounts(bad); err == nil {
			t.Errorf("ParseEdgeCounts(%q) = %v, want error", bad, got)
		}
	}
	// 2⁶³−2¹⁰ is the largest float64 below 2⁶³, so it still fits an int64.
	if got, err := ParseEdgeCounts("9223372036854774784"); err != nil || got[0] != 1<<63-1<<10 {
		t.Errorf("largest in-range count: got %v, %v", got, err)
	}
}
