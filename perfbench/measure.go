package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// measure sets the workload up, runs it, and assembles the report: the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one.
func measure(sp spec, cfg config, log io.Writer) (*report, error) {
	scratch := filepath.Join(cfg.out, "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	rep := &report{Env: newEnvironment(sp, cfg, scratch), Workload: sp.name, Trace: cfg.trace, Info: map[string]float64{}}
	c := &checker{}

	// Set-up runs setupReps times (once when traced) and the last one is
	// kept; setup_s is the median.
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var b *bench
	var setupS []float64
	for r := 0; r < reps; r++ {
		var prev float64
		if b != nil {
			prev = b.hashIPT
			if err := b.close(); err != nil {
				return nil, err
			}
			b = nil
		}
		runtime.GC()
		t0 := time.Now()
		nb, err := setUp(sp, cfg, scratch)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if r > 0 && nb.hashIPT != prev {
			c.fail("set-up %d: Hash ipt %g differs from the previous set-up's %g on the same seed", r, nb.hashIPT, prev)
		}
		b = nb
	}
	defer b.close()
	rep.Env.Vertices, rep.Env.StreamEdges = len(b.vertices), len(b.stream)
	fmt.Fprintf(log, "perfbench: %s: %d edges, %d vertices, set-up %.2fs\n", sp.name, len(b.stream), len(b.vertices), median(setupS))

	m := map[string]float64{}
	var attempted, failed int64
	if cfg.trace {
		var err error
		if attempted, failed, err = b.traced(cfg, c, m, rep.Info); err != nil {
			return nil, err
		}
	} else {
		// An ingest workload spends half its time in closed-loop passes and
		// half serving; the serve workload serves throughout after one
		// untimed pass that gives the quality figures.
		ingestSeconds, serveSeconds := cfg.seconds/2, cfg.seconds/2
		if sp.serve {
			ingestSeconds, serveSeconds = 0, cfg.seconds
		}
		ing, err := b.ingestPhase(ingestSeconds, c)
		if err != nil {
			return nil, err
		}
		want, err := b.servedHash(c, ing.hash)
		if err != nil {
			return nil, err
		}
		debug.FreeOSMemory()
		sr := &serveResult{}
		deadline := time.Now().Add(time.Duration(serveSeconds * float64(time.Second)))
		for round := 0; round == 0 || time.Now().Before(deadline); round++ {
			if err := b.serveRound(round, cfg.seed, want, c, sr, nil); err != nil {
				return nil, err
			}
			debug.FreeOSMemory()
		}
		attempted = ing.batches + sr.attempted
		failed = sr.failed

		m["setup_s"] = median(setupS)
		if sp.serve {
			m["ingest_edges_per_s"] = median(sr.edgesPerS)
			rep.Info["batch_p50_ms"] = quantile(sr.batchLat, 0.5)
			rep.Info["batch_p95_ms"] = quantile(sr.batchLat, 0.95)
			rep.Info["batch_p99_ms"] = quantile(sr.batchLat, 0.99)
		} else {
			m["ingest_edges_per_s"] = median(ing.rates)
			rep.Info["batch_p50_ms"] = median(ing.batchP50)
			rep.Info["batch_p95_ms"] = median(ing.batchP95)
			rep.Info["batch_p99_ms"] = median(ing.batchP99)
		}
		rep.Info["route_p50_ms"] = quantile(sr.routeLat, 0.5)
		rep.Info["route_p95_ms"] = quantile(sr.routeLat, 0.95)
		rep.Info["route_p99_ms"] = quantile(sr.routeLat, 0.99)
		m["replica_lag_p50_ms"] = quantile(sr.lagMS, 0.5)
		m["replica_lag_p99_ms"] = quantile(sr.lagMS, 0.99)
		rep.Info["recover_s"] = median(sr.recoverS)
		m["ipt_pct_hash"] = ing.iptPct
		rep.Info["evaluate_s"] = ing.evalS
		rep.Info["ingest_passes"] = float64(len(ing.rates))
		rep.Info["closed_loop_batches"] = float64(ing.batches)
		rep.Info["serve_rounds"] = float64(len(sr.recoverS))
		rep.Info["open_loop_batches"] = float64(len(sr.batchLat))
		rep.Info["routes"] = float64(len(sr.routeLat))
		rep.Info["lag_samples"] = float64(len(sr.lagMS))
		rep.Info["gen_late_p99_ms"] = quantile(sr.late, 0.99)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		m["peak_rss_mb"] = rss
	}
	rep.Info["peak_rss_mb"] = rss

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rep.result = result{Correct: len(c.failures) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.result.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	rep.failures = c.failures
	if rep.result.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return rep, nil
}

// traced runs one traced pass of each phase and fills m with the per-layer
// metrics. It returns the operations attempted and failed.
func (b *bench) traced(cfg config, c *checker, m, info map[string]float64) (int64, int64, error) {
	itr, hash, err := b.tracedIngest(c, m, info)
	if err != nil {
		return 0, 0, err
	}
	if m["wal.overhead_ms_per_batch"], err = b.walOverhead(); err != nil {
		return 0, 0, err
	}

	base := time.Now()
	tc := &serveTrace{
		producer: newTracer("serve-producer", base),
		client:   newTracer("route-client", base),
		poller:   newTracer("follower-poller", base),
	}
	want, err := b.servedHash(c, hash)
	if err != nil {
		return 0, 0, err
	}
	sr := &serveResult{}
	if err := b.serveRound(0, cfg.seed, want, c, sr, tc); err != nil {
		return 0, 0, err
	}
	m["wal.bytes_per_edge"] = tc.walBytesPerEdge
	m["wal.checkpoint_ms"] = median(tc.checkpointMS)
	m["wal.checkpoint_bytes"] = median(tc.checkpointBytes)
	m["wal.sync_ms"] = tc.syncMS
	m["wal.replayed_records"] = float64(tc.replayed)
	m["follower.poll_ms"] = median(tc.pollMS)
	m["follower.records_per_poll"] = mean(tc.pollRecords)
	m["follower.empty_poll_frac"] = float64(tc.emptyPolls) / float64(max(tc.emptyPolls+len(tc.pollMS), 1))
	m["follower.lsn_behind"] = mean(tc.lsnBehind)
	m["supervisor.faults"] = float64(tc.faults)
	m["supervisor.rebootstraps"] = float64(tc.rebootstraps)
	m["mirror.lookup_ns"] = tc.lookupNS
	m["server.handler_us"] = tc.handlerUS
	m["http.overhead_us"] = median(tc.rttUS) - tc.handlerUS
	m["mirror.apply_ns"] = tc.applyNS
	m["mirror.found_frac"] = float64(tc.found) / float64(max(len(tc.rttUS), 1))
	m["mirror.snapshot_frac"] = float64(tc.fromSnapshot) / float64(max(len(tc.rttUS), 1))
	m["mirror.gaps"] = float64(tc.mirrorGaps)
	m["planner.scatter_us"] = tc.scatterUS
	m["planner.fanout_avg"] = tc.fanout
	m["server.shed"] = float64(tc.shed)
	m["gc.pause_ms"] = tc.gcPauseMS
	m["sched.latency_p99_us"] = tc.schedP99US
	m["gen.late_p99_ms"] = quantile(sr.late, 0.99)

	// Time no layer accounts for: the self time of every root span, i.e.
	// the harness's own loop overhead outside any timed call or wait.
	tracers := []*tracer{itr, tc.producer, tc.client, tc.poller}
	var unattributed time.Duration
	for _, t := range tracers {
		totals, u, err := t.analyse()
		if err != nil {
			return 0, 0, err
		}
		unattributed += u
		for name, st := range totals {
			info["self."+layerOf(name)+"_s"] += st.self.Seconds()
		}
	}
	m["unattributed"] = unattributed.Seconds()
	dir := filepath.Join(cfg.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	if err := writeSpans(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.name, cfg.seed)), tracers); err != nil {
		return 0, 0, err
	}
	return int64(m["loom.add_batch.calls"]) + sr.attempted, sr.failed, nil
}
