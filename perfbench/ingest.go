package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"loom"
)

// checker collects failed output checks; any failure fails the run. Safe
// for concurrent use.
type checker struct {
	mu       sync.Mutex
	failures []string
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// partitioner checks a finished partitioner: no sticky error, every
// streamed vertex placed, and the fullest partition within MaxImbalance of
// the mean. It returns the assignment hash.
func (c *checker) partitioner(in *input, p *loom.Partitioner, what string) uint64 {
	if err := p.Err(); err != nil {
		c.fail("%s: Err() = %v", what, err)
	}
	snap := p.Snapshot()
	h, placed := assignmentHash(snap, in.vertices)
	if placed != len(in.vertices) || snap.NumAssigned() != len(in.vertices) {
		c.fail("%s: %d of %d streamed vertices placed (snapshot holds %d)", what, placed, len(in.vertices), snap.NumAssigned())
	}
	largest := 0
	for _, s := range snap.Sizes() {
		largest = max(largest, s)
	}
	const maxImbalance = 1.1 // the library default Options.MaxImbalance
	if mean := float64(len(in.vertices)) / partitions; float64(largest) > maxImbalance*mean*(1+1e-9) {
		c.fail("%s: largest partition %d is %.4f× the mean %.1f, bound %.2f", what, largest, float64(largest)/mean, mean, maxImbalance)
	}
	return h
}

// ingestPass streams in once through a fresh in-memory partitioner
// with graph recording on, in a closed loop: each AddBatch is sent when the
// previous one returns. It appends each call's duration in ms to lat (if
// non-nil) and returns the partitioner and the wall time from the first
// AddBatch to Flush's return.
func (b *bench) ingestPass(in *input, opt loom.Options, tr *tracer, lat *[]float64) (*loom.Partitioner, time.Duration, error) {
	if in.spill {
		dir, err := os.MkdirTemp(b.dir, "spill-")
		if err != nil {
			return nil, 0, err
		}
		opt.SpillDir = dir
	}
	p, err := loom.New(opt, in.wl)
	if err != nil {
		return nil, 0, err
	}
	runtime.GC() // start every pass from the same heap state
	start := time.Now()
	tr.begin("harness.ingest_pass", 0)
	for i, id := 0, int64(0); i < len(in.stream); i, id = i+in.batch, id+1 {
		batch := in.stream[i:min(i+in.batch, len(in.stream))]
		t0 := time.Now()
		tr.begin("loom.add_batch", id)
		err := p.AddBatch(batch)
		tr.end()
		if lat != nil {
			*lat = append(*lat, ms(time.Since(t0)))
		}
		if err != nil {
			tr.end()
			return nil, 0, fmt.Errorf("AddBatch %d: %w", id, err)
		}
	}
	tr.begin("loom.flush", 0)
	p.Flush()
	tr.end()
	tr.end()
	return p, time.Since(start), nil
}

// evalReps is how many times the phase times Evaluate.
const evalReps = 3

// ingestResult is what the closed-loop phase measured. Each statistic is
// computed per pass; the reported value is the median over passes.
type ingestResult struct {
	rates    []float64 // edges/s
	batchP50 []float64 // ms per AddBatch call
	batchP95 []float64
	batchP99 []float64 // printed, not gated: too noisy on small machines
	batches  int64
	hash     uint64
	evalS    float64 // median Evaluate time
	iptPct   float64
}

// ingestPhase runs closed-loop passes until seconds have elapsed (at least
// one pass), checks every pass, then evaluates the last pass's partitioning
// against the workload.
func (b *bench) ingestPhase(seconds float64, c *checker) (*ingestResult, error) {
	res := &ingestResult{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var last *loom.Partitioner
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		last = nil // let the previous pass's state be collected
		var lat []float64
		p, wall, err := b.ingestPass(b.input, b.options(), nil, &lat)
		if err != nil {
			return nil, err
		}
		res.rates = append(res.rates, float64(len(b.stream))/wall.Seconds())
		res.batchP50 = append(res.batchP50, quantile(lat, 0.5))
		res.batchP95 = append(res.batchP95, quantile(lat, 0.95))
		res.batchP99 = append(res.batchP99, quantile(lat, 0.99))
		res.batches += int64(len(lat))
		h := c.partitioner(b.input, p, fmt.Sprintf("ingest pass %d", pass))
		if pass == 0 {
			res.hash = h
		} else if h != res.hash {
			c.fail("ingest pass %d: assignment hash %x differs from pass 0's %x", pass, h, res.hash)
		}
		last = p
	}
	var evals []float64
	for r := 0; r < evalReps; r++ {
		runtime.GC()
		t0 := time.Now()
		ev, err := last.Evaluate()
		evals = append(evals, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("Evaluate: %w", err)
		}
		res.iptPct = 100 * ev.IPT / b.hashIPT
	}
	res.evalS = median(evals)
	return res, nil
}
