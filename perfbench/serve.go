package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"loom"
	"loom/router"
)

// serveResult accumulates the open-loop serve phase over its rounds.
// Latency samples are pooled over the rounds, since their tails come from
// a few stall events (checkpoints, GC) per round; the per-round figures
// are reported as their median.
type serveResult struct {
	batchLat  []float64 // ms from each batch's due time to AddBatch's return
	routeLat  []float64 // ms from each request's due time to its decoded reply
	lagMS     []float64 // ms per placement Seq, replica emit minus primary emit
	recoverS  []float64 // per round: median loom.Open time over three reopens
	edgesPerS []float64 // per round: achieved ingest rate
	late      []float64 // ms each open-loop generator started after its due time
	attempted int64
	failed    int64
}

// serveTrace is what a traced round records beyond the untraced metrics.
type serveTrace struct {
	producer, client, poller *tracer
	events                   []loom.PlacementEvent // the primary's events, replayed into a fresh Mirror
	rttUS                    []float64             // request send to reply, µs
	found, fromSnapshot      int
	checkpointMS             []float64
	checkpointBytes          []float64
	syncMS                   float64
	walBytesPerEdge          float64
	replayed                 int
	pollMS                   []float64 // productive polls of a bench-owned follower
	pollRecords              []float64
	emptyPolls               int
	lsnBehind                []float64
	faults, rebootstraps     uint64
	mirrorGaps               uint64
	shed                     uint64
	gcPauseMS, schedP99US    float64
	lookupNS, applyNS        float64
	handlerUS                float64
	scatterUS, fanout        float64
}

type routeAnswer struct {
	v     int64
	part  int
	found bool
}

// serveRound runs the durable serve path once over the served stream: a
// primary opened with loom.Open takes 256-edge batches from an open-loop
// producer at serveRate edges/s and checkpoints every checkpointEvery
// batches; a supervised follower tails its WAL directory into a
// router.Mirror, served over loopback HTTP to an open-loop client sending
// routeRate GET /route/{v} a second on one keep-alive connection. After the
// stream the replica must converge to the primary, and the primary is
// closed and recovered with loom.Open. wantHash is the in-memory
// partitioner's assignment hash on the same stream.
func (b *bench) serveRound(round int, seed int64, wantHash uint64, c *checker, res *serveResult, tc *serveTrace) error {
	in := b.served
	dir, err := os.MkdirTemp(b.dir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opt := in.options()
	opt.WALDir = dir
	opt.DisableGraphRecording = true
	p, info, err := loom.Open(opt, in.wl)
	if err != nil {
		return err
	}
	defer p.Close()
	if info.Recovered {
		return fmt.Errorf("serve round %d: fresh WAL directory reported recovered state", round)
	}
	dirBefore := dirSize(dir)

	base := time.Now()
	var prim []int64 // primary emit time per Seq (ns since base); -1 for evictions
	p.Subscribe(func(ev loom.PlacementEvent) {
		t := int64(time.Since(base))
		if ev.Kind != loom.EventPlace {
			t = -1
		}
		prim = append(prim, t)
		if tc != nil {
			tc.events = append(tc.events, ev)
		}
	})
	var repl []int64 // replica emit time per Seq; -1 until seen
	boot := func() (*loom.Follower, loom.RecoveryInfo, error) {
		f, info, err := loom.Follow(opt, in.wl)
		if err != nil {
			return nil, info, err
		}
		f.Partitioner().Subscribe(func(ev loom.PlacementEvent) {
			t := int64(time.Since(base))
			for uint64(len(repl)) <= ev.Seq {
				repl = append(repl, -1)
			}
			repl[ev.Seq] = t
		})
		return f, info, nil
	}
	mirror := router.New()
	sup := router.NewSupervisor(mirror, boot, router.SupervisorConfig{Poll: pollInterval, Seed: seed})
	ctx, cancel := context.WithCancel(context.Background())
	var supErr error
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		supErr = sup.Run(ctx)
	}()
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			cancel()
			bg.Wait()
			b.cur.Store(nil)
		}
	}
	defer stop()
	srv := router.NewServerWith(mirror, router.NewPlanner(mirror, in.wl.Queries(), partitions), router.ServerConfig{Supervisor: sup})
	b.cur.Store(srv)
	if !waitFor(sup.EverHealthy, 10*time.Second) {
		return fmt.Errorf("serve round %d: follower never became healthy", round)
	}

	var sent atomic.Int64 // stream edges acknowledged so far
	var lsn atomic.Uint64 // records the primary has logged
	lsn.Store(info.LastLSN)
	if tc != nil {
		b.startPoller(ctx, &bg, opt, &lsn, sup, tc)
	}
	gcBefore, schedBefore := sampleHist("/sched/pauses/total/gc:seconds"), sampleHist("/sched/latencies:seconds")

	routesDone := make(chan struct{})
	var routes []routeAnswer
	var routeWG sync.WaitGroup
	routeWG.Add(1)
	go func() {
		defer routeWG.Done()
		routes = b.routeClient(seed+int64(round), &sent, routesDone, c, res, tc)
	}()

	var ptr *tracer
	if tc != nil {
		ptr = tc.producer
	}
	nb := (len(in.stream) + serveBatch - 1) / serveBatch
	period := time.Second * serveBatch / serveRate
	start := time.Now()
	ptr.begin("harness.serve_round", int64(round))
	var lastAck time.Time
	for i := 0; i < nb; i++ {
		batch := in.stream[i*serveBatch : min((i+1)*serveBatch, len(in.stream))]
		due := start.Add(time.Duration(i) * period)
		ptr.begin("harness.wait", int64(i))
		sleepUntil(due)
		ptr.end()
		res.late = append(res.late, ms(time.Since(due)))
		ptr.begin("loom.add_batch", int64(i))
		err := p.AddBatch(batch)
		ptr.end()
		lastAck = time.Now()
		res.batchLat = append(res.batchLat, ms(lastAck.Sub(due)))
		res.attempted++
		if err != nil {
			res.failed++
			c.fail("serve round %d: AddBatch %d: %v", round, i, err)
			continue
		}
		sent.Add(int64(len(batch)))
		lsn.Add(1)
		if rest := nb - 1 - i; rest >= checkpointTail && (rest-checkpointTail)%checkpointEvery == 0 {
			ptr.begin("wal.checkpoint", int64(i))
			n, err := p.Checkpoint()
			d := ptr.end()
			if err != nil {
				c.fail("serve round %d: Checkpoint: %v", round, err)
			} else if tc != nil {
				tc.checkpointMS = append(tc.checkpointMS, ms(d))
				tc.checkpointBytes = append(tc.checkpointBytes, float64(n))
			}
		}
	}
	res.edgesPerS = append(res.edgesPerS, float64(len(in.stream))/lastAck.Sub(start).Seconds())
	ptr.begin("loom.flush", 0)
	p.Flush()
	ptr.end()
	lsn.Add(1)
	ptr.begin("wal.sync", 0)
	err = p.Sync()
	d := ptr.end()
	ptr.end()
	if err != nil {
		c.fail("serve round %d: Sync: %v", round, err)
	}
	close(routesDone)
	routeWG.Wait()
	if tc != nil {
		tc.syncMS = ms(d)
		tc.gcPauseMS = 1000 * sampleHist("/sched/pauses/total/gc:seconds").quantileSince(gcBefore, 0.99)
		tc.schedP99US = 1e6 * sampleHist("/sched/latencies:seconds").quantileSince(schedBefore, 0.99)
		tc.walBytesPerEdge = float64(dirSize(dir)-dirBefore) / float64(len(in.stream))
	}

	// The replica must converge: every logged record applied and every
	// primary event mirrored.
	wantLSN := lsn.Load()
	caughtUp := waitFor(func() bool {
		return sup.Stats().LSN >= wantLSN && mirror.Stats().NextSeq >= uint64(len(prim))
	}, 30*time.Second)
	if !caughtUp {
		c.fail("serve round %d: replica at LSN %d of %d, mirror at seq %d of %d after 30s", round,
			sup.Stats().LSN, wantLSN, mirror.Stats().NextSeq, len(prim))
	}

	final := p.Snapshot()
	h := c.partitioner(in, p, fmt.Sprintf("serve round %d primary", round))
	if h != wantHash {
		c.fail("serve round %d: durable primary's assignment hash %x differs from the in-memory partitioner's %x", round, h, wantHash)
	}
	wrong := 0
	for _, r := range routes {
		if !r.found {
			continue
		}
		if part, ok := final.PartitionOf(r.v); !ok || part != r.part {
			wrong++
		}
	}
	if wrong > 0 {
		res.failed += int64(wrong)
		c.fail("serve round %d: %d routes disagree with the primary's final placement", round, wrong)
	}
	if fp := sup.Partitioner(); fp == nil {
		c.fail("serve round %d: supervisor has no follower", round)
	} else if fh, _ := assignmentHash(fp.Snapshot(), in.vertices); fh != h {
		c.fail("serve round %d: replica's assignment hash %x differs from the primary's %x", round, fh, h)
	}
	mismatched := 0
	for _, v := range in.vertices {
		want, _ := final.PartitionOf(v)
		if d := mirror.Lookup(v); !d.Found || d.Partition != want {
			mismatched++
		}
	}
	if mismatched > 0 {
		c.fail("serve round %d: mirror disagrees with the primary on %d vertices", round, mismatched)
	}
	sst, mst := sup.Stats(), mirror.Stats()
	faults := sst.Transients + sst.Gaps + sst.Corruptions
	if faults > 0 || sst.Rebootstraps > 0 || mst.Gaps > 0 {
		c.fail("serve round %d: supervisor faults %d, rebootstraps %d, mirror gaps %d (last error %q)",
			round, faults, sst.Rebootstraps, mst.Gaps, sst.LastError)
	}
	if tc != nil {
		tc.faults, tc.rebootstraps, tc.mirrorGaps, tc.shed = faults, sst.Rebootstraps, mst.Gaps, srv.Shed()
		b.traceRouter(mirror, srv, tc)
	}
	stop()
	if supErr != nil {
		c.fail("serve round %d: supervisor: %v", round, supErr)
	}

	missing := 0
	for seq, t := range prim {
		if t < 0 {
			continue
		}
		if seq >= len(repl) || repl[seq] < 0 {
			missing++
			continue
		}
		res.lagMS = append(res.lagMS, float64(repl[seq]-t)/1e6)
	}
	if missing > 0 {
		c.fail("serve round %d: replica never emitted %d placements", round, missing)
	}

	// Recovery: close the primary and reopen its directory.
	pstats := p.Stats()
	if err := p.Close(); err != nil {
		c.fail("serve round %d: Close: %v", round, err)
	}
	var recov []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		rp, rinfo, err := loom.Open(opt, in.wl)
		recov = append(recov, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("serve round %d: recover: %w", round, err)
		}
		if rh, _ := assignmentHash(rp.Snapshot(), in.vertices); rh != h || rp.Stats() != pstats {
			c.fail("serve round %d: recovered partitioner differs from the primary (hash %x vs %x)", round, rh, h)
		}
		if tc != nil {
			tc.replayed = rinfo.ReplayedRecords
		}
		if err := rp.Close(); err != nil {
			c.fail("serve round %d: Close after recovery: %v", round, err)
		}
	}
	res.recoverS = append(res.recoverS, median(recov))
	return nil
}

// servedHash is the in-memory partitioner's assignment hash on the serve
// phase's stream, which the durable primary must reproduce; full is the
// hash on the whole stream.
func (b *bench) servedHash(c *checker, full uint64) (uint64, error) {
	if b.served == b.input {
		return full, nil
	}
	p, _, err := b.ingestPass(b.served, b.served.options(), nil, nil)
	if err != nil {
		return 0, err
	}
	return c.partitioner(b.served, p, "in-memory serve reference"), nil
}

// routeClient sends GET /route/{v} on a fixed schedule of routeRate a
// second over one keep-alive connection until done closes, timing each
// request from its due time. v is an endpoint of a random edge the primary
// has already acknowledged.
func (b *bench) routeClient(seed int64, sent *atomic.Int64, done <-chan struct{}, c *checker, res *serveResult, tc *serveTrace) []routeAnswer {
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   5 * time.Second,
	}
	defer client.CloseIdleConnections()
	var tr *tracer
	if tc != nil {
		tr = tc.client
	}
	in := b.served
	rng := rand.New(rand.NewSource(seed))
	url := "http://" + b.addr() + "/route/"
	var answers []routeAnswer
	var lat, late []float64
	var attempted, failed int64
	start := time.Now()
	tr.begin("harness.route_client", 0)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * time.Second / routeRate)
		tr.begin("harness.wait", int64(i))
		select {
		case <-done:
		case <-time.After(time.Until(due)):
		}
		tr.end()
		if isClosed(done) {
			break
		}
		late = append(late, ms(time.Since(due)))
		n := sent.Load()
		v := in.stream[0].U
		if n > 0 {
			e := in.stream[rng.Int63n(n)]
			if v = e.U; rng.Intn(2) == 1 {
				v = e.V
			}
		}
		attempted++
		t0 := time.Now()
		tr.begin("http.route", int64(i))
		d, status, err := getRoute(client, url+strconv.FormatInt(v, 10))
		tr.end()
		now := time.Now()
		lat = append(lat, ms(now.Sub(due)))
		if err != nil || status != http.StatusOK || d.Vertex != v {
			failed++
			if failed == 1 {
				c.fail("route %d: status %d, error %v, decision %+v", v, status, err, d)
			}
			continue
		}
		answers = append(answers, routeAnswer{v: v, part: d.Partition, found: d.Found})
		if tc != nil {
			tc.rttUS = append(tc.rttUS, float64(now.Sub(t0).Microseconds()))
			if d.Found {
				tc.found++
			}
			if d.Source == router.SourceSnapshot {
				tc.fromSnapshot++
			}
		}
	}
	tr.end()
	// Handed back only after every request has finished.
	res.routeLat = append(res.routeLat, lat...)
	res.late = append(res.late, late...)
	res.attempted += attempted
	res.failed += failed
	return answers
}

func getRoute(client *http.Client, url string) (router.Decision, int, error) {
	var d router.Decision
	resp, err := client.Get(url)
	if err != nil {
		return d, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return d, resp.StatusCode, nil
	}
	err = json.NewDecoder(resp.Body).Decode(&d)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return d, resp.StatusCode, err
}

// startPoller runs, for a traced round, a second follower owned by the
// benchmark and polled on the supervisor's interval, so each Poll call can
// be timed from outside; it also samples how many records the supervised
// follower is behind the primary.
func (b *bench) startPoller(ctx context.Context, wg *sync.WaitGroup, opt loom.Options, lsn *atomic.Uint64, sup *router.Supervisor, tc *serveTrace) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		f, _, err := loom.Follow(opt, b.wl)
		if err != nil {
			return // the round's own checks cover the follower path
		}
		defer f.Close()
		tick := time.NewTicker(pollInterval)
		defer tick.Stop()
		tr := tc.poller
		tr.begin("harness.poller", 0)
		defer tr.end()
		for id := int64(0); ; id++ {
			tr.begin("harness.wait", id)
			select {
			case <-ctx.Done():
				tr.end()
				return
			case <-tick.C:
			}
			tr.end()
			tr.begin("follower.poll", id)
			n, err := f.Poll()
			d := tr.end()
			if err != nil {
				continue
			}
			if n > 0 {
				tc.pollMS = append(tc.pollMS, ms(d))
				tc.pollRecords = append(tc.pollRecords, float64(n))
			} else {
				tc.emptyPolls++
			}
			tr.begin("supervisor.stats", id)
			supLSN := sup.Stats().LSN
			tr.end()
			if behind := int64(lsn.Load()) - int64(supLSN); behind >= 0 {
				tc.lsnBehind = append(tc.lsnBehind, float64(behind))
			}
		}
	}()
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(cond func() bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
