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
	for _, exp := range []string{"table1", "fig4", "fig9", "table2", "ablation", "extensions", "motifs", "simulate", "perf"} {
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

func TestRunPerfJSON(t *testing.T) {
	path := t.TempDir() + "/BENCH_test.json"
	if err := runPerfJSON(tinyCfg(), path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep bench.PerfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if want := len(bench.Systems) * len(bench.PerfIngestModes); len(rep.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(rep.Rows), want)
	}
	for _, r := range rep.Rows {
		if r.NsPerEdge <= 0 {
			t.Errorf("%s/%s: non-positive ns/edge %v", r.Dataset, r.System, r.NsPerEdge)
		}
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
	for _, exp := range []string{"fig99", "scale"} {
		if err := run(exp, tinyCfg(), false, nil); err == nil {
			t.Errorf("unknown experiment %q: want error", exp)
		}
	}
}
