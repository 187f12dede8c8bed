package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// toyConfig runs a workload at a twentieth of its size for a fraction of a
// second: big enough that the serve phase checkpoints once, small enough
// for a unit test.
func toyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.2, trace: trace, root: "..", out: t.TempDir(), scale: 0.05}
}

// TestWorkloadsAtToySize runs every listed workload, untraced and traced,
// through all of its output checks.
func TestWorkloadsAtToySize(t *testing.T) {
	for _, name := range benchmarkWorkloads(t) {
		for _, trace := range []bool{false, true} {
			sp, ok := specByName(name)
			if !ok {
				t.Fatalf("BENCHMARK.json lists unknown workload %q", name)
			}
			rep, err := measure(sp, toyConfig(t, name, trace), os.Stderr)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.result.Correct || len(rep.failures) > 0 || rep.result.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d: %v", name, trace, rep.result.Correct, rep.result.Failed, rep.failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rep.result.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", name, trace, len(rep.result.Metrics), len(defs))
			}
			for _, d := range defs {
				v := rep.result.Metrics[d.name]
				if v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", name, trace, d.name, v)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, d.name, v.Value)
				}
			}
		}
	}
}

// TestPowerlawLeavesVerticesUnplaced pins the defect that keeps
// ingest-powerlaw out of BENCHMARK.json: Loom leaves some vertices of the
// power-law stream unplaced, so the run's output check fails. When this
// test fails because the run passes, list the workload in BENCHMARK.json.
func TestPowerlawLeavesVerticesUnplaced(t *testing.T) {
	sp, _ := specByName("ingest-powerlaw")
	rep, err := measure(sp, toyConfig(t, sp.name, false), os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.result.Correct {
		t.Fatal("ingest-powerlaw passed its output checks; the defect is fixed")
	}
	if !strings.Contains(strings.Join(rep.failures, "\n"), "streamed vertices placed") {
		t.Fatalf("unexpected failures: %v", rep.failures)
	}
}

// TestSpanArithmetic checks self times and the nesting checks.
func TestSpanArithmetic(t *testing.T) {
	base := time.Now()
	tr := newTracer("t", base)
	tr.begin("harness.root", 0)
	tr.begin("loom.add_batch", 1)
	tr.begin("wal.append", 1)
	busy(time.Millisecond)
	tr.end()
	busy(time.Millisecond)
	tr.end()
	busy(time.Millisecond)
	tr.end()
	totals, unattributed, err := tr.analyse()
	if err != nil {
		t.Fatal(err)
	}
	root, batch, wal := totals["harness.root"], totals["loom.add_batch"], totals["wal.append"]
	for name, st := range totals {
		if st.self < 0 || st.self > st.total {
			t.Errorf("%s: self %v, total %v", name, st.self, st.total)
		}
	}
	if batch.total > root.total || wal.total > batch.total {
		t.Errorf("children exceed parents: root %v, batch %v, wal %v", root.total, batch.total, wal.total)
	}
	if got := root.self + batch.self + wal.self; got != root.total {
		t.Errorf("self times sum to %v, want the root's %v", got, root.total)
	}
	if unattributed != root.self {
		t.Errorf("unattributed %v, want the root's self time %v", unattributed, root.self)
	}

	bad := newTracer("bad", base)
	bad.spans = []span{{Name: "a", Parent: -1, Start: 10, End: 20}, {Name: "b", Parent: 0, Start: 15, End: 25}}
	if _, _, err := bad.analyse(); err == nil {
		t.Error("a child ending after its parent was accepted")
	}
	open := newTracer("open", base)
	open.begin("a", 0)
	if _, _, err := open.analyse(); err == nil {
		t.Error("an open span was accepted")
	}
}

func busy(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// benchmarkFile is the subset of BENCHMARK.json the tests compare with the
// code.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func benchmarkWorkloads(t *testing.T) []string {
	var names []string
	for _, w := range readBenchmarkFile(t).Workloads {
		names = append(names, w.Name)
	}
	return names
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json's metric lists and the
// metrics the code reports identical.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the code %d and %d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if f.EndToEnd[i].Name != d.name || f.EndToEnd[i].Unit != d.unit {
			t.Errorf("end_to_end[%d] = %s (%s), code has %s (%s)", i, f.EndToEnd[i].Name, f.EndToEnd[i].Unit, d.name, d.unit)
		}
	}
	for i, d := range perLayer {
		if f.PerLayer[i].Name != d.name || f.PerLayer[i].Unit != d.unit {
			t.Errorf("per_layer[%d] = %s (%s), code has %s (%s)", i, f.PerLayer[i].Name, f.PerLayer[i].Unit, d.name, d.unit)
		}
	}
}
