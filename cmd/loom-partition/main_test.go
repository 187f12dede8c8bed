package main

import (
	"bufio"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"loom"

	"loom/internal/dataset"
	"loom/internal/graph"
	"loom/internal/workload"
)

func writeTestStream(t *testing.T) string {
	t.Helper()
	g, err := dataset.Generate("provgen", 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := graph.StreamOf(g, graph.OrderRandom, rand.New(rand.NewSource(2)))
	path := filepath.Join(t.TempDir(), "in.el")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteEdgeList(f, s); err != nil {
		t.Fatal(err)
	}
	return path
}

func readAssignments(t *testing.T, path string, k int) map[int64]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[int64]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("bad line %q", sc.Text())
		}
		v, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		p, err := strconv.Atoi(fields[1])
		if err != nil {
			t.Fatal(err)
		}
		if p < 0 || p >= k {
			t.Fatalf("partition %d out of range", p)
		}
		out[v] = p
	}
	return out
}

func TestRunAllAlgorithms(t *testing.T) {
	in := writeTestStream(t)
	for _, algo := range []string{"hash", "ldg", "fennel", "loom"} {
		out := filepath.Join(t.TempDir(), algo+".tsv")
		err := run(in, 4, algo, "provgen", "", 256, 0.4, 1, out, false, false, "", false)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		asg := readAssignments(t, out, 4)
		if len(asg) == 0 {
			t.Fatalf("%s: no assignments written", algo)
		}
	}
}

func TestRunTraversalCostModel(t *testing.T) {
	in := writeTestStream(t)
	out := filepath.Join(t.TempDir(), "p.tsv")
	if err := run(in, 2, "ldg", "provgen", "", 64, 0.4, 1, out, false, true, "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunWorkloadFile(t *testing.T) {
	in := writeTestStream(t)
	wlPath := filepath.Join(t.TempDir(), "wl.json")
	wl := `{"name":"custom","queries":[{"name":"step","freq":1,
		"edges":[[1,"Entity",2,"Activity"],[2,"Activity",3,"Entity"]]}]}`
	if err := os.WriteFile(wlPath, []byte(wl), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "p.tsv")
	if err := run(in, 2, "loom", "", wlPath, 64, 0.4, 1, out, false, false, "", false); err != nil {
		t.Fatal(err)
	}
}

func mustWorkload(t *testing.T) workload.Workload {
	t.Helper()
	wl, err := workload.ForDataset("provgen")
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// TestRunDurableWAL: the -wal path must produce the same assignments as
// the in-memory loom path, and a run split across two invocations sharing
// one WAL directory must recover and land on the same assignments as the
// single uninterrupted run.
func TestRunDurableWAL(t *testing.T) {
	g, err := dataset.Generate("provgen", 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := graph.StreamOf(g, graph.OrderRandom, rand.New(rand.NewSource(2)))
	dir := t.TempDir()
	write := func(name string, part graph.Stream) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := dataset.WriteEdgeList(f, part); err != nil {
			t.Fatal(err)
		}
		return path
	}
	full := write("full.el", s)
	half := len(s) / 2
	first := write("first.el", s[:half])
	second := write("second.el", s[half:])

	// In-memory reference.
	memOut := filepath.Join(dir, "mem.tsv")
	if err := run(full, 4, "loom", "provgen", "", 256, 0.4, 1, memOut, true, false, "", false); err != nil {
		t.Fatal(err)
	}
	want := readAssignments(t, memOut, 4)

	// One durable run over the full stream, with a checkpoint.
	walOut := filepath.Join(dir, "wal.tsv")
	if err := run(full, 4, "loom", "provgen", "", 256, 0.4, 1, walOut, true, false,
		filepath.Join(dir, "wal-full"), true); err != nil {
		t.Fatal(err)
	}
	if got := readAssignments(t, walOut, 4); len(got) != len(want) {
		t.Fatalf("durable run assigned %d vertices, in-memory %d", len(got), len(want))
	} else {
		for v, p := range want {
			if got[v] != p {
				t.Fatalf("vertex %d: durable %d, in-memory %d", v, got[v], p)
			}
		}
	}

	// The same stream split across two runs sharing a WAL directory: the
	// second run recovers the first and must finish on the same state.
	// Each CLI run ends with a (stateful) window Flush, so the reference
	// is a library run that flushes at the same midpoint.
	walDir := filepath.Join(dir, "wal-split")
	if err := run(first, 4, "loom", "provgen", "", 256, 0.4, 1,
		filepath.Join(dir, "half.tsv"), true, false, walDir, true); err != nil {
		t.Fatal(err)
	}
	splitOut := filepath.Join(dir, "split.tsv")
	if err := run(second, 4, "loom", "provgen", "", 256, 0.4, 1, splitOut, true, false, walDir, false); err != nil {
		t.Fatal(err)
	}
	got := readAssignments(t, splitOut, 4)

	pub := make([]loom.StreamEdge, len(s))
	for i, e := range s {
		pub[i] = loom.StreamEdge{U: int64(e.U), LU: string(e.LU), V: int64(e.V), LV: string(e.LV)}
	}
	// Each CLI invocation sizes capacity from its own input slice, and the
	// checkpoint config fingerprint holds a resumed run to the original
	// value — the reference must use the count the split runs used.
	nFirst := map[int64]struct{}{}
	for _, e := range pub[:half] {
		nFirst[e.U] = struct{}{}
		nFirst[e.V] = struct{}{}
	}
	ref, err := loom.New(loom.Options{
		Partitions: 4, ExpectedVertices: len(nFirst), WindowSize: 256,
		SupportThreshold: 0.4, Seed: 1,
	}, publicWorkload(mustWorkload(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.AddBatch(pub[:half]); err != nil {
		t.Fatal(err)
	}
	ref.Flush()
	if err := ref.AddBatch(pub[half:]); err != nil {
		t.Fatal(err)
	}
	ref.Flush()
	want2 := ref.Snapshot().Assignments()
	if len(got) != len(want2) {
		t.Fatalf("split run assigned %d vertices, flush-matched reference %d", len(got), len(want2))
	}
	for v, p := range want2 {
		if got[v] != p {
			t.Fatalf("vertex %d: split %d, flush-matched reference %d", v, got[v], p)
		}
	}

	// -checkpoint without -wal is rejected.
	if err := run(full, 4, "loom", "provgen", "", 256, 0.4, 1, walOut, true, false, "", true); err == nil {
		t.Error("-checkpoint without -wal: want error")
	}
	// -wal with a baseline is rejected.
	if err := run(full, 4, "hash", "", "", 256, 0.4, 1, walOut, true, false, filepath.Join(dir, "wal-hash"), false); err == nil {
		t.Error("-wal with baseline: want error")
	}
}

func TestRunErrors(t *testing.T) {
	in := writeTestStream(t)
	out := filepath.Join(t.TempDir(), "p.tsv")
	if err := run(in, 2, "loom", "", "", 64, 0.4, 1, out, false, false, "", false); err == nil {
		t.Error("loom without workload: want error")
	}
	if err := run(in, 2, "metis", "provgen", "", 64, 0.4, 1, out, false, false, "", false); err == nil {
		t.Error("unknown algorithm: want error")
	}
	if err := run("/does/not/exist.el", 2, "hash", "", "", 64, 0.4, 1, out, false, false, "", false); err == nil {
		t.Error("missing input: want error")
	}
	empty := filepath.Join(t.TempDir(), "empty.el")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(empty, 2, "hash", "", "", 64, 0.4, 1, out, false, false, "", false); err == nil {
		t.Error("empty input: want error")
	}
}
