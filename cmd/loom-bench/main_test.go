package main

import (
	"encoding/json"
	"os"
	"testing"

	"loom/internal/bench"
)

func tinyCfg() bench.Config {
	return bench.Config{Scale: 900, Seed: 3, K: 2, WindowSize: 64, Datasets: []string{"provgen"}}
}

func TestRunEachExperiment(t *testing.T) {
	for _, exp := range []string{"table1", "fig4", "fig9", "table2", "ablation", "extensions", "motifs", "simulate"} {
		if err := run(exp, tinyCfg(), false, nil); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

func TestWithProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pprof", dir+"/mem.pprof"
	ran := false
	if err := withProfiles(cpu, mem, func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("fn not run")
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	// Errors from fn must propagate (and still stop the CPU profile).
	wantErr := withProfiles(dir+"/cpu2.pprof", "", func() error { return os.ErrInvalid })
	if wantErr != os.ErrInvalid {
		t.Errorf("fn error not propagated: %v", wantErr)
	}
}

// TestWriteJSONFootprint writes a tiny footprint report through the shared
// -json path to a file and decodes it back.
func TestWriteJSONFootprint(t *testing.T) {
	cfg := bench.Config{Seed: 3, K: 2, WindowSize: 64}
	rep, err := report("footprint", cfg, false, []int64{20_000})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/footprint.json"
	if err := writeJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back bench.FootprintReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(back.Rows) != 2 || back.K != 2 {
		t.Fatalf("decoded %d rows at k=%d, want 2 rows (memory + spill) at k=2", len(back.Rows), back.K)
	}
	for _, r := range back.Rows {
		if r.StreamEdges != 20_000 || r.RecordedEdges == 0 || r.NsPerEdge <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Mode, r)
		}
	}
	if err := writeJSON(t.TempDir()+"/missing/dir.json", rep); err == nil {
		t.Error("writeJSON into a missing directory: want error")
	}
}

func TestRunFig7AndFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, exp := range []string{"fig7", "fig8"} {
		if err := run(exp, tinyCfg(), false, nil); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	// scale, perf, read, hub, recover and route are retired experiments.
	for _, exp := range []string{"fig99", "scale", "perf", "read", "hub", "recover", "route"} {
		if err := run(exp, tinyCfg(), false, nil); err == nil {
			t.Errorf("unknown experiment %q: want error", exp)
		}
		if _, err := report(exp, tinyCfg(), false, nil); err == nil {
			t.Errorf("-json -exp %s: want error", exp)
		}
	}
}
