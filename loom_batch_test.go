package loom_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"loom"
)

// Tests for batch ingest against per-edge ingest: golden bit-identity on
// the ipt dataset fixtures across batch sizes, event-stream equivalence,
// sticky-error semantics for corrupt edges inside a batch, and
// multi-producer ingest under the race detector. The test names predate
// the removal of the multi-worker batch pipeline and are kept so their
// history stays continuous.

// batchFixture returns one dataset's workload and bfs-ordered stream —
// the same fixtures the ipt golden tests replay.
func batchFixture(t testing.TB, dataset string, scale int) (*loom.Workload, []loom.StreamEdge) {
	t.Helper()
	wl, err := loom.DatasetWorkload(dataset)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := loom.GenerateDataset(dataset, scale, 3)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := loom.OrderStream(edges, "bfs", 5)
	if err != nil {
		t.Fatal(err)
	}
	return wl, ordered
}

// ingestEdges feeds the stream edge by edge through AddEdge and flushes:
// the reference the batch tests compare against.
func ingestEdges(p *loom.Partitioner, edges []loom.StreamEdge) {
	for _, e := range edges {
		p.AddEdge(e.U, e.LU, e.V, e.LV)
	}
	p.Flush()
}

// ingestBatches feeds the stream via AddBatch in fixed-size chunks and
// flushes.
func ingestBatches(t testing.TB, p *loom.Partitioner, edges []loom.StreamEdge, batch int) {
	t.Helper()
	for _, b := range chunk(edges, batch) {
		if err := p.AddBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
}

// TestAddBatchParallelGolden: AddBatch at every batch size must produce
// placements, sizes and stats bit-identical to per-edge AddEdge, on both
// an immediate-heavy and a motif-heavy fixture.
func TestAddBatchParallelGolden(t *testing.T) {
	for _, dataset := range []string{"provgen", "musicbrainz"} {
		wl, edges := batchFixture(t, dataset, 1500)
		n := distinctVertices(edges)
		opt := loom.Options{Partitions: 4, ExpectedVertices: n, WindowSize: 128}
		ref, err := loom.New(opt, wl)
		if err != nil {
			t.Fatal(err)
		}
		ingestEdges(ref, edges)
		want := ref.Snapshot().Assignments()
		wantStats := ref.Stats()
		wantSizes := ref.Snapshot().Sizes()

		for _, size := range []int{1, 63, 211, 4096} {
			p, err := loom.New(opt, wl)
			if err != nil {
				t.Fatal(err)
			}
			ingestBatches(t, p, edges, size)
			label := fmt.Sprintf("%s batch=%d", dataset, size)
			if got := p.Stats(); got != wantStats {
				t.Fatalf("%s: stats diverged:\nwant %+v\ngot  %+v", label, wantStats, got)
			}
			for i, s := range p.Snapshot().Sizes() {
				if s != wantSizes[i] {
					t.Fatalf("%s: partition %d size %d, want %d", label, i, s, wantSizes[i])
				}
			}
			got := p.Snapshot().Assignments()
			if len(got) != len(want) {
				t.Fatalf("%s: %d assigned, want %d", label, len(got), len(want))
			}
			for v, part := range want {
				if got[v] != part {
					t.Fatalf("%s: vertex %d placed in %d, want %d", label, v, got[v], part)
				}
			}
		}
	}
}

// TestAddBatchParallelEvents: the placement-event feed (order, sequence
// numbers, payloads) must be identical between per-edge and batch ingest —
// a query router mirroring either sees the same history.
func TestAddBatchParallelEvents(t *testing.T) {
	wl, edges := batchFixture(t, "provgen", 1200)
	n := distinctVertices(edges)
	run := func(batch int) []loom.PlacementEvent {
		p, err := loom.New(loom.Options{Partitions: 4, ExpectedVertices: n, WindowSize: 64}, wl)
		if err != nil {
			t.Fatal(err)
		}
		var events []loom.PlacementEvent
		p.Subscribe(func(ev loom.PlacementEvent) { events = append(events, ev) })
		if batch == 0 {
			ingestEdges(p, edges)
		} else {
			ingestBatches(t, p, edges, batch)
		}
		return events
	}
	want := run(0)
	for _, batch := range []int{137, 1024} {
		got := run(batch)
		if len(got) != len(want) {
			t.Fatalf("batch=%d: %d events, %d per-edge", batch, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch=%d: event %d diverged: %+v, per-edge %+v", batch, i, got[i], want[i])
			}
		}
	}
}

// TestAddBatchParallelStickyErrors: corrupt edges inside a large batch
// must be dropped with the same error, sticky Err and surviving placements
// as per-edge ingest that skips them.
func TestAddBatchParallelStickyErrors(t *testing.T) {
	wl := loom.NewWorkload("social")
	wl.Add("fof", loom.Path("person", "person", "person"), 1.0)

	build := func() *loom.Partitioner {
		p, err := loom.New(loom.Options{Partitions: 2, ExpectedVertices: 512, WindowSize: 16}, wl)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var batch []loom.StreamEdge
	for i := int64(0); i < 256; i++ {
		batch = append(batch, loom.StreamEdge{U: i, LU: "person", V: i + 1, LV: "person"})
	}
	batch[100] = loom.StreamEdge{U: 7, LU: "city", V: 300, LV: "person"}  // vertex 7 relabelled
	batch[200] = loom.StreamEdge{U: 301, LU: "person", V: 9, LV: "venue"} // vertex 9 relabelled

	ref := build()
	var refErr error
	for _, e := range batch {
		if err := ref.AddEdgeE(e.U, e.LU, e.V, e.LV); err != nil && refErr == nil {
			refErr = err
		}
	}
	ref.Flush()

	p := build()
	batchErr := p.AddBatch(batch)
	p.Flush()

	if refErr == nil || batchErr == nil {
		t.Fatalf("want errors from both paths, got per-edge=%v batch=%v", refErr, batchErr)
	}
	if refErr.Error() != batchErr.Error() {
		t.Fatalf("first error diverged:\nper-edge %v\nbatch    %v", refErr, batchErr)
	}
	if !strings.Contains(batchErr.Error(), "label") {
		t.Errorf("error should describe the conflict, got %v", batchErr)
	}
	if got := p.Err(); got == nil || got.Error() != batchErr.Error() {
		t.Errorf("sticky Err() = %v, want %v", got, batchErr)
	}
	want, got := ref.Snapshot().Assignments(), p.Snapshot().Assignments()
	if len(want) != len(got) {
		t.Fatalf("%d assigned per-edge vs %d batch", len(want), len(got))
	}
	for v, part := range want {
		if got[v] != part {
			t.Fatalf("vertex %d placed in %d by batch, %d per-edge", v, got[v], part)
		}
	}
	// The corrupt edges' fresh endpoints must not have been placed.
	for _, v := range []int64{300, 301} {
		if _, ok := p.Snapshot().PartitionOf(v); ok {
			t.Errorf("vertex %d from a dropped edge was placed", v)
		}
	}
}

// TestAddBatchParallelConcurrentProducers: N producers with different
// batch sizes feed one partitioner while readers snapshot; every batch
// must apply inside the ingest lock's exclusion. Run under -race in CI.
func TestAddBatchParallelConcurrentProducers(t *testing.T) {
	wl, edges := batchFixture(t, "provgen", 1500)
	n := distinctVertices(edges)
	p, err := loom.New(loom.Options{Partitions: 4, ExpectedVertices: n, WindowSize: 128}, wl)
	if err != nil {
		t.Fatal(err)
	}

	sizes := []int{1, 17, 97, 512}
	var wg sync.WaitGroup
	for w, size := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []loom.StreamEdge
			for i := w; i < len(edges); i += len(sizes) {
				mine = append(mine, edges[i])
			}
			for _, b := range chunk(mine, size) {
				if err := p.AddBatch(b); err != nil {
					t.Errorf("producer %d: %v", w, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			snap := p.Snapshot()
			total := 0
			for _, s := range snap.Sizes() {
				total += s
			}
			if total != snap.NumAssigned() {
				t.Errorf("snapshot sizes sum %d != assigned %d", total, snap.NumAssigned())
				return
			}
			p.Snapshot().PartitionOf(edges[0].U)
			p.Stats()
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()
	p.Flush()

	if err := p.Err(); err != nil {
		t.Fatalf("ingest error: %v", err)
	}
	if got := p.Snapshot().NumAssigned(); got != n {
		t.Fatalf("assigned %d of %d vertices", got, n)
	}
}

// TestOptionsWorkersValidation: the deprecated Workers field is neither
// validated nor read — any value, negative included, is accepted and
// places exactly as the default.
func TestOptionsWorkersValidation(t *testing.T) {
	wl, edges := batchFixture(t, "provgen", 600)
	n := distinctVertices(edges)
	var want map[int64]int
	for _, workers := range []int{0, -2, 1, 8} {
		p, err := loom.New(loom.Options{Partitions: 2, ExpectedVertices: n, WindowSize: 64, Workers: workers}, wl)
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		ingestBatches(t, p, edges, 256)
		got := p.Snapshot().Assignments()
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("Workers=%d: %d assigned, want %d", workers, len(got), len(want))
		}
		for v, part := range want {
			if got[v] != part {
				t.Fatalf("Workers=%d: vertex %d placed in %d, want %d", workers, v, got[v], part)
			}
		}
	}
	if _, err := loom.NewBaseline("ldg", loom.Options{Partitions: 2, ExpectedVertices: 8, Workers: -1}, nil); err != nil {
		t.Errorf("baseline with Workers set: %v", err)
	}
}
