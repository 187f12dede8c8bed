package window

import (
	"fmt"
	"testing"

	"loom/internal/graph"
	"loom/internal/pattern"
	"loom/internal/signature"
	"loom/internal/tpstry"
)

// TestGateSyncInvalidatesOnWorkloadChange: AddQuery bumps the trie
// version; the gate must drop its memoised verdicts so a pair that failed
// the gate passes it once the new workload makes it a motif.
func TestGateSyncInvalidatesOnWorkloadChange(t *testing.T) {
	trie := fig5Trie(t)
	w := NewMatcher(trie, 0.4, 10)
	cd := w.Labels().Intern("d")
	ce := w.Labels().Intern("e")
	if _, ok := w.SingleEdgeMotifCodes(cd, ce); ok {
		t.Fatal("d-e a motif before the workload includes it")
	}
	// Make d-e dominant: its support passes the threshold.
	if err := trie.AddQuery(pattern.Path("d", "e"), 5.0); err != nil {
		t.Fatal(err)
	}
	if node, ok := w.SingleEdgeMotifCodes(cd, ce); !ok || node == nil {
		t.Fatalf("d-e not a motif after AddQuery: node=%v ok=%v", node, ok)
	}
}

// TestGateLargeAlphabetFallsBackToMap: label codes at or past maxGateDim
// must memoise through the map path (the dense table is quadratic in the
// alphabet and capped), with verdicts identical to the dense path.
func TestGateLargeAlphabetFallsBackToMap(t *testing.T) {
	trie := tpstry.New(signature.NewScheme(signature.DefaultP, 5))
	w := NewMatcher(trie, 0.4, 100)
	// Push the alphabet past the dense cap; labels lbl0.. take codes 0..
	labels := make([]string, maxGateDim+8)
	for i := range labels {
		labels[i] = fmt.Sprintf("lbl%d", i)
		w.ltab.Intern(labels[i])
	}
	big := uint16(maxGateDim + 3) // code past the dense cap
	small := uint16(1)
	// Register the motif AFTER interning so codes are stable.
	if err := trie.AddQuery(pattern.Path(graph.Label(labels[small]), graph.Label(labels[big])), 1); err != nil {
		t.Fatal(err)
	}
	key := func(cu, cv uint16) uint32 { return uint32(cu)<<16 | uint32(cv) }
	if _, known := w.gateSlow[key(small, big)]; known {
		t.Fatal("pair known before first resolve")
	}
	n, ok := w.SingleEdgeMotifCodes(small, big)
	if !ok || n == nil {
		t.Fatal("single-edge motif not found through the map gate path")
	}
	if w.gateDim > maxGateDim {
		t.Fatalf("dense gate grew past the cap: dim %d", w.gateDim)
	}
	if pn, known := w.gateSlow[key(small, big)]; !known || pn != n {
		t.Fatalf("memo disagrees with resolve: node=%v known=%v", pn, known)
	}
	// A non-motif pair past the cap memoises a miss.
	other := uint16(maxGateDim + 5)
	if _, ok := w.SingleEdgeMotifCodes(other, big); ok {
		t.Fatal("unexpected motif for unrelated large-code pair")
	}
	if pn, known := w.gateSlow[key(other, big)]; !known || pn != nil {
		t.Fatalf("miss not memoised for large-code pair: node=%v known=%v", pn, known)
	}
}
