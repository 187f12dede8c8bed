package partition

import (
	"testing"

	"loom/internal/graph"
)

// White-box tests for the copy-on-write publish path: held epochs are
// immutable under further ingest, clean pages are shared across epochs by
// pointer identity, and publishing with no changes reuses the prior epoch.

// fillTracker assigns dense indices [lo, hi) round-robin over k partitions.
func fillTracker(t *Tracker, lo, hi int) {
	for v := lo; v < hi; v++ {
		t.Assign(graph.VertexID(v), ID(v%t.k))
	}
}

// TestEpochHeldSnapshotImmutable: an epoch captured before further ingest
// must keep every observation — placements, sizes, counts — frozen while
// the tracker keeps assigning.
func TestEpochHeldSnapshotImmutable(t *testing.T) {
	const k = 4
	tr := NewTracker(k, 1.5)
	first := 2*PageSize + PageSize/2 // spans three pages, last one partial
	fillTracker(tr, 0, first)

	e1 := tr.Publish()
	if e1 == nil {
		t.Fatal("Publish returned nil")
	}
	if e1.Seq() != 1 {
		t.Fatalf("first publish seq = %d, want 1", e1.Seq())
	}
	if e1.NumAssigned() != first {
		t.Fatalf("epoch assigned %d, want %d", e1.NumAssigned(), first)
	}
	wantSizes := append([]int(nil), e1.Sizes()...)

	// Keep ingesting well past the held epoch.
	fillTracker(tr, first, 5*PageSize)
	e2 := tr.Publish()

	if e1.NumAssigned() != first {
		t.Fatalf("held epoch assigned count moved to %d", e1.NumAssigned())
	}
	for i, s := range e1.Sizes() {
		if s != wantSizes[i] {
			t.Fatalf("held epoch sizes changed: %v → %v", wantSizes, e1.Sizes())
		}
	}
	for v := 0; v < 5*PageSize; v++ {
		want := ID(v % k)
		if v >= first {
			want = Unassigned // not yet assigned when e1 was published
		}
		if got := e1.Of(graph.VertexID(v)); got != want {
			t.Fatalf("held epoch Of(%d) = %d, want %d", v, got, want)
		}
		if got := e2.Of(graph.VertexID(v)); got != ID(v%k) {
			t.Fatalf("new epoch Of(%d) = %d, want %d", v, got, v%k)
		}
	}
	// Each over the held epoch enumerates exactly the first publish's set.
	seen := 0
	e1.Each(func(v graph.VertexID, p ID) {
		seen++
		if p != ID(int(v)%k) {
			t.Fatalf("Each(%d) = %d, want %d", v, p, int(v)%k)
		}
	})
	if seen != first {
		t.Fatalf("Each visited %d vertices, want %d", seen, first)
	}
}

// TestEpochPageSharing: pages untouched between publishes are shared by
// pointer identity — only dirty pages are re-copied.
func TestEpochPageSharing(t *testing.T) {
	tr := NewTracker(2, 1.5)
	fillTracker(tr, 0, 2*PageSize+PageSize/2) // pages 0,1 full; page 2 half
	e1 := tr.Publish()
	if len(e1.pages) != 3 {
		t.Fatalf("e1 has %d pages, want 3", len(e1.pages))
	}

	// New assignments land in page 2's tail and page 3; pages 0-1 stay clean.
	fillTracker(tr, 2*PageSize+PageSize/2, 4*PageSize)
	e2 := tr.Publish()
	if len(e2.pages) != 4 {
		t.Fatalf("e2 has %d pages, want 4", len(e2.pages))
	}

	if e2.pages[0] != e1.pages[0] || e2.pages[1] != e1.pages[1] {
		t.Error("clean pages were re-copied: want pointer-identical pages 0 and 1")
	}
	if e2.pages[2] == e1.pages[2] {
		t.Error("dirty page 2 shared between epochs: held epoch would see new writes")
	}

	// Publishing with nothing new reuses the whole epoch.
	e3 := tr.Publish()
	if e3 != e2 {
		t.Errorf("no-op Publish built a new epoch (seq %d → %d)", e2.Seq(), e3.Seq())
	}

	// Latest always returns the most recent publish.
	if tr.Latest() != e3 {
		t.Error("Latest() disagrees with last Publish()")
	}
}

// TestEpochMaterialiseMatches: Materialise must flatten to exactly the
// epoch's contents even after the tracker has moved on.
func TestEpochMaterialiseMatches(t *testing.T) {
	const k = 3
	tr := NewTracker(k, 1.1)
	n := PageSize + 7
	fillTracker(tr, 0, n)
	e := tr.Publish()
	fillTracker(tr, n, 3*PageSize) // mutate tracker after capture
	tr.Publish()

	a := e.Materialise()
	if a.NumAssigned() != n || a.K != k {
		t.Fatalf("materialised assignment: %d assigned k=%d, want %d k=%d",
			a.NumAssigned(), a.K, n, k)
	}
	e.Each(func(v graph.VertexID, p ID) {
		if got := a.Of(v); got != p {
			t.Fatalf("Materialise().Of(%d) = %d, epoch says %d", v, got, p)
		}
	})
}

// TestEpochOfUnknown: lookups past the epoch's vertex horizon and for
// unknown vertices return Unassigned instead of reading younger state.
func TestEpochOfUnknown(t *testing.T) {
	tr := NewTracker(2, 1.5)
	fillTracker(tr, 0, 10)
	e := tr.Publish()
	if got := e.Of(graph.VertexID(999)); got != Unassigned {
		t.Errorf("Of(unknown vertex) = %d, want Unassigned", got)
	}
	if got := e.OfIdx(uint32(PageSize * 10)); got != Unassigned {
		t.Errorf("OfIdx(out of range) = %d, want Unassigned", got)
	}
	// A vertex interned after publish is invisible to the held epoch.
	tr.Assign(graph.VertexID(999), 1)
	tr.Publish()
	if got := e.Of(graph.VertexID(999)); got != Unassigned {
		t.Errorf("held epoch sees post-publish vertex: Of(999) = %d", got)
	}
}

// TestEpochOfAssignment: an epoch built from an offline assignment reports
// exactly its placements, sizes and count — including the Unassigned holes
// and a partial last page — and later edits to the assignment do not
// reach it.
func TestEpochOfAssignment(t *testing.T) {
	const k, n = 3, PageSize + PageSize/3
	a := NewAssignment(k)
	for v := 0; v < n; v++ {
		if v%5 == 0 { // every fifth vertex is a hole: interned, Unassigned
			a.verts.Intern(int64(v))
			continue
		}
		a.Set(graph.VertexID(v), ID(v%k))
	}
	a.verts.Intern(int64(n)) // interned but never placed
	e := EpochOf(a)
	if e.K() != k || e.NumAssigned() != a.NumAssigned() {
		t.Fatalf("epoch k=%d assigned=%d, want k=%d assigned=%d", e.K(), e.NumAssigned(), k, a.NumAssigned())
	}
	for p, s := range a.Sizes {
		if e.Sizes()[p] != s {
			t.Fatalf("epoch sizes %v, want %v", e.Sizes(), a.Sizes)
		}
	}
	for v := 0; v <= n+1; v++ {
		if got, want := e.Of(graph.VertexID(v)), a.Of(graph.VertexID(v)); got != want {
			t.Fatalf("Of(%d) = %d, want %d", v, got, want)
		}
	}
	each := 0
	e.Each(func(v graph.VertexID, p ID) {
		each++
		if a.Of(v) != p {
			t.Fatalf("Each(%d) = %d, assignment says %d", v, p, a.Of(v))
		}
	})
	if each != a.NumAssigned() {
		t.Fatalf("Each visited %d, want %d", each, a.NumAssigned())
	}

	a.Set(1, ID(2)) // was 1
	a.Set(0, ID(0)) // was a hole
	if e.Of(1) != 1 || e.Of(0) != Unassigned || e.Sizes()[2] == a.Sizes[2] {
		t.Fatal("editing the assignment changed the epoch built from it")
	}
}
