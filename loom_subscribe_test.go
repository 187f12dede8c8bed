package loom

import (
	"maps"
	"sync"
	"testing"
)

// eventLog collects placement events under its own lock (handlers run on
// the ingesting goroutines, under the partitioner's ingest lock).
type eventLog struct {
	mu  sync.Mutex
	evs []PlacementEvent
}

func (l *eventLog) add(ev PlacementEvent) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

func (l *eventLog) events() []PlacementEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]PlacementEvent(nil), l.evs...)
}

// TestSubscribeMidStream pins the resume-point contract Subscribe
// documents — the spec a router mirror's gap detection holds onto:
//
//  1. the returned firstSeq is exactly the Seq of the next event emitted;
//  2. the subscriber sees every event with Seq >= firstSeq, exactly once,
//     in order, with no holes;
//  3. a Snapshot taken after Subscribe covers every placement whose event
//     predates firstSeq, so (snapshot, events from firstSeq) is a
//     complete view of the final assignment.
func TestSubscribeMidStream(t *testing.T) {
	wl, err := DatasetWorkload("dblp")
	if err != nil {
		t.Fatalf("DatasetWorkload: %v", err)
	}
	p, err := New(Options{Partitions: 4, ExpectedVertices: 4000, WindowSize: 256}, wl)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	edges, err := GenerateDataset("dblp", 3000, 9)
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}

	// A baseline subscriber from Seq 0 records the full feed.
	full := &eventLog{}
	if first := p.Subscribe(full.add); first != 0 {
		t.Fatalf("fresh partitioner Subscribe returned firstSeq %d, want 0", first)
	}

	// Ingest half the stream, then subscribe mid-stream.
	half := len(edges) / 2
	const batch = 128
	for i := 0; i < half; i += batch {
		end := min(i+batch, half)
		if err := p.AddBatch(edges[i:end]); err != nil {
			t.Fatalf("AddBatch: %v", err)
		}
	}
	late := &eventLog{}
	firstSeq := p.Subscribe(late.add)
	snap := p.Snapshot() // taken after Subscribe: covers every Seq < firstSeq
	for i := half; i < len(edges); i += batch {
		end := min(i+batch, len(edges))
		if err := p.AddBatch(edges[i:end]); err != nil {
			t.Fatalf("AddBatch: %v", err)
		}
	}
	p.Flush()

	fullEvs, lateEvs := full.events(), late.events()
	if len(fullEvs) == 0 || len(lateEvs) == 0 {
		t.Fatalf("no events recorded: full %d, late %d", len(fullEvs), len(lateEvs))
	}

	// (1) firstSeq is well-defined: it continues the dense sequence — the
	// event before the subscription has Seq firstSeq-1, the first event
	// the late subscriber sees has Seq exactly firstSeq.
	if firstSeq == 0 {
		t.Fatal("mid-stream Subscribe returned firstSeq 0; ingest had already emitted events")
	}
	if got := lateEvs[0].Seq; got != firstSeq {
		t.Fatalf("late subscriber's first event has Seq %d, want firstSeq %d", got, firstSeq)
	}

	// (2) exactly once, in order, dense — for both subscribers.
	for i, ev := range fullEvs {
		if ev.Seq != uint64(i) {
			t.Fatalf("full feed event %d has Seq %d: not dense from 0", i, ev.Seq)
		}
	}
	for i, ev := range lateEvs {
		if want := firstSeq + uint64(i); ev.Seq != want {
			t.Fatalf("late feed event %d has Seq %d, want %d: not dense from firstSeq", i, ev.Seq, want)
		}
	}
	// The late subscriber saw exactly the suffix of the full feed.
	if want := len(fullEvs) - int(firstSeq); len(lateEvs) != want {
		t.Fatalf("late subscriber saw %d events, want the %d-event suffix", len(lateEvs), want)
	}
	for i, ev := range lateEvs {
		if ev != fullEvs[int(firstSeq)+i] {
			t.Fatalf("late event %d = %+v differs from full feed's %+v", i, ev, fullEvs[int(firstSeq)+i])
		}
	}

	// (3) the snapshot covers every placement reported before firstSeq…
	for _, ev := range fullEvs[:firstSeq] {
		if ev.Kind != EventPlace {
			continue
		}
		if got, ok := snap.PartitionOf(ev.V); !ok || got != ev.Partition {
			t.Fatalf("snapshot misses pre-subscription placement of %d (event says %d, snapshot %d, ok=%v)",
				ev.V, ev.Partition, got, ok)
		}
	}
	// …so snapshot + late events reconstruct the final assignment exactly
	// (placements are write-once: overlap is harmless, disagreement is a
	// bug).
	union := maps.Clone(snap.Assignments()) // the published snapshot's map is shared
	for _, ev := range lateEvs {
		if ev.Kind != EventPlace {
			continue
		}
		if prev, dup := union[ev.V]; dup && prev != ev.Partition {
			t.Fatalf("vertex %d reassigned: snapshot/earlier event says %d, event Seq %d says %d",
				ev.V, prev, ev.Seq, ev.Partition)
		}
		union[ev.V] = ev.Partition
	}
	final := p.Snapshot()
	if len(union) != final.NumAssigned() {
		t.Fatalf("union covers %d vertices, final assignment %d", len(union), final.NumAssigned())
	}
	final.Each(func(v int64, part int) {
		if got, ok := union[v]; !ok || got != part {
			t.Fatalf("union disagrees at vertex %d: got %d (ok=%v), final %d", v, got, ok, part)
		}
	})
}

// TestSubscribeDuringConcurrentIngest subscribes while four producers are
// mid-AddBatch and checks the contract's race half under -race: the feed
// the late subscriber sees is dense from firstSeq, and a snapshot taken
// after Subscribe plus those events covers the final assignment.
func TestSubscribeDuringConcurrentIngest(t *testing.T) {
	wl, err := DatasetWorkload("dblp")
	if err != nil {
		t.Fatalf("DatasetWorkload: %v", err)
	}
	p, err := New(Options{Partitions: 4, ExpectedVertices: 4000, WindowSize: 256}, wl)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	edges, err := GenerateDataset("dblp", 3000, 13)
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}

	const producers, batch = 4, 64
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		shard := edges[w*len(edges)/producers : (w+1)*len(edges)/producers]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(shard); i += batch {
				end := min(i+batch, len(shard))
				if err := p.AddBatch(shard[i:end]); err != nil {
					t.Errorf("AddBatch: %v", err)
				}
			}
		}()
	}

	// Subscribe with no synchronisation against the producers.
	late := &eventLog{}
	firstSeq := p.Subscribe(late.add)
	snap := p.Snapshot()

	wg.Wait()
	p.Flush()

	lateEvs := late.events()
	for i, ev := range lateEvs {
		if want := firstSeq + uint64(i); ev.Seq != want {
			t.Fatalf("event %d has Seq %d, want %d: feed not dense from firstSeq", i, ev.Seq, want)
		}
	}
	union := maps.Clone(snap.Assignments()) // the published snapshot's map is shared
	for _, ev := range lateEvs {
		if ev.Kind == EventPlace {
			union[ev.V] = ev.Partition
		}
	}
	final := p.Snapshot()
	if len(union) != final.NumAssigned() {
		t.Fatalf("union covers %d vertices, final assignment %d", len(union), final.NumAssigned())
	}
	final.Each(func(v int64, part int) {
		if got, ok := union[v]; !ok || got != part {
			t.Fatalf("union disagrees at vertex %d: got %d (ok=%v), final %d", v, got, ok, part)
		}
	})
}
