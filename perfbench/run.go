package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"slices"
	"time"

	"spq"
	"spq/internal/data"
	"spq/internal/geo"
	"spq/serve"
)

// slice is one measured stretch of the window.
type slice struct {
	start, end time.Duration
	traced     bool
	rt         rtStats
	seg        data.BlockCacheStats
}

// run executes one benchmark run. It returns the result line and the
// run's description; a non-nil error with a non-nil result means the run
// completed but its responses are wrong.
func run(o options) (*result, map[string]any, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown --workload %q", o.workload)
	}
	sc := o.scale
	epoch := time.Now()
	n := sc.objects[w.dataset]
	ds := data.Generate(genSpec(w.dataset, n, o.seed))
	pool, stream := queryStream(ds, sc, o.seed)
	objs, feats := engineInput(ds)
	logf(epoch, "generated %d objects, %d distinct queries", n, len(pool))

	cfg := spq.Config{Storage: spq.StorageDFSBinary}
	if w.workers > 0 {
		nodes, addrs, err := startWorkers(w.workers)
		if err != nil {
			return nil, nil, fmt.Errorf("start workers: %w", err)
		}
		defer stopWorkers(nodes)
		cfg.Workers = addrs
	}
	eng, setupS, err := setUp(cfg, objs, feats, sc.setups)
	if err != nil {
		return nil, nil, err
	}
	defer eng.Close()
	logf(epoch, "set up %d times: %v s", len(setupS), setupS)
	minX, minY, maxX, maxY := eng.Bounds()
	bounds := geo.Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}

	var batches []batch
	var interval time.Duration
	if w.writer {
		nb := sc.ingestRecords / sc.appendBatch
		batches = makeBatches(ds, nb, sc.appendBatch, o.seed, bounds)
		interval = o.window / time.Duration(nb)
	}

	var tr *tracer
	var served serve.Engine = eng
	if o.trace {
		tr = &tracer{eng: eng, epoch: epoch}
		served = tr
	}
	m, err := serveLoad(served, eng, w, o, pool, stream, epoch, tr, batches, interval)
	if err != nil {
		return nil, nil, err
	}

	logf(epoch, "served %d requests", len(m.reqs))
	var rs replayStats
	if o.trace {
		rs, m.replaySpans, err = replay(eng, ds, pool, m.replayTargets(sc.viewReplays, w.workers > 0), sc.replays, epoch)
		if err != nil {
			return nil, nil, err
		}
		logf(epoch, "replayed %d requests", rs.n)
	}
	if err := eng.Close(); err != nil {
		return nil, nil, fmt.Errorf("close engine: %w", err)
	}

	jobs, err := m.checkJobs(pool, sc.checkSample, o.seed)
	if err != nil {
		return nil, nil, err
	}
	cache, err := openRefCache(o.out, w.dataset, n, o.seed)
	if err != nil {
		return nil, nil, fmt.Errorf("open reference cache: %w", err)
	}
	bad, first := check(newOracle(ds, pool[0].Radius), pool, jobs, cache)
	logf(epoch, "checked %d responses against the oracle: %d wrong", len(jobs), bad)
	if err := cache.save(); err != nil {
		return nil, nil, fmt.Errorf("save reference cache: %w", err)
	}

	res := &result{Correct: bad == 0, Metrics: map[string]metric{}}
	res.Attempted, res.Failed = m.counts()
	info := map[string]any{
		"workload":         o.workload,
		"seed":             o.seed,
		"window_s":         o.window.Seconds(),
		"trace":            o.trace,
		"host":             host(),
		"engine_config":    engineConfig(cfg),
		"objects":          n,
		"distinct_queries": len(pool),
		"repeat_share":     m.repeatShare(),
		"cpu_steal_share":  m.stealShare,
		"setup_s_each":     setupS,
		"oracle_checked":   len(jobs),
		"oracle_mismatch":  bad,
	}
	if bad > 0 {
		info["oracle_first_mismatch"] = first
	}
	if o.trace {
		spans := m.spans()
		path, err := writeSpans(o.out, o.workload, o.seed, spans)
		if err != nil {
			return nil, nil, fmt.Errorf("write spans: %w", err)
		}
		info["spans"], info["span_file"] = len(spans), path
		m.perLayer(res.Metrics, rs)
	} else {
		m.endToEnd(res.Metrics, median(setupS))
	}
	if bad > 0 {
		return res, info, fmt.Errorf("%w: %d of %d checked, first: %s", errMismatch, bad, len(jobs), first)
	}
	return res, info, nil
}

// logf reports progress on standard error.
func logf(epoch time.Time, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.1fs "+format+"\n", append([]any{time.Since(epoch).Seconds()}, args...)...)
}

// measurement is everything one run observed.
type measurement struct {
	reqs        []request // every request, sorted by issue order
	slices      []slice
	writer      *appender // ingest only
	appended    []data.Object
	matched     map[int]*engineCall
	replaySpans []span
	// rssMB is the peak resident memory up to the end of serving, before
	// the benchmark's own replays and oracle checks.
	rssMB float64
	// stealShare is the share of the machine's CPU time the hypervisor
	// gave other guests during the window.
	stealShare float64
}

// serveLoad starts the server on a loopback listener, warms it up, runs
// the measured window with the ingest writer beside it, and drains the
// server.
func serveLoad(served serve.Engine, eng *spq.Engine, w workload, o options, pool []spq.Query, stream []int,
	epoch time.Time, tr *tracer, batches []batch, interval time.Duration) (_ *measurement, err error) {
	srv := serve.New(served, serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeBinary(ln) }()
	var ld *loader
	defer func() {
		if ld != nil {
			ld.close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		derr := srv.Drain(ctx)
		if serr := <-serveDone; derr == nil {
			derr = serr
		}
		if err == nil && derr != nil {
			err = fmt.Errorf("drain server: %w", derr)
		}
	}()

	ld, err = newLoader(ln.Addr().String(), w.conns, pool, stream, epoch)
	if err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	if _, _, err := ld.run(o.scale.warmup, phaseWarmup, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	m := &measurement{}
	var writerDone chan error
	if len(batches) > 0 {
		m.writer = &appender{eng: eng, epoch: epoch, baseGen: eng.Generation()}
		for _, b := range batches {
			m.appended = append(m.appended, b.objs...)
		}
		start := time.Since(epoch)
		writerDone = make(chan error, 1)
		go func() { writerDone <- m.writer.run(batches, start, interval) }()
	}
	steal0, total0 := cpuTimes()
	parts := 1
	if o.trace {
		// Untraced and traced slices alternate, short against the ingest
		// compaction cycle, so drift over the window affects both kinds
		// alike.
		parts = 10
	}
	var loadErr error
	for i := 0; i < parts && loadErr == nil; i++ {
		s := slice{traced: o.trace && i%2 == 1}
		if tr != nil {
			tr.on.Store(s.traced)
		}
		rt0, seg0 := readRuntime(), eng.SegmentCacheStats()
		s.start, s.end, loadErr = ld.run(o.window/time.Duration(parts), phaseWindow, s.traced)
		seg1 := eng.SegmentCacheStats()
		s.rt = readRuntime().sub(rt0)
		s.seg = data.BlockCacheStats{Hits: seg1.Hits - seg0.Hits, Misses: seg1.Misses - seg0.Misses}
		m.slices = append(m.slices, s)
	}
	if tr != nil {
		tr.on.Store(false)
	}
	if writerDone != nil {
		if werr := <-writerDone; werr != nil && loadErr == nil {
			loadErr = werr
		}
	}
	if loadErr != nil {
		return nil, fmt.Errorf("window: %w", loadErr)
	}
	steal1, total1 := cpuTimes()
	m.stealShare = (steal1 - steal0) / max(total1-total0, 1)
	m.rssMB = peakRSSMB()
	ld.mu.Lock()
	m.reqs = slices.Clone(ld.reqs)
	ld.mu.Unlock()
	slices.SortFunc(m.reqs, func(a, b request) int { return a.id - b.id })
	if tr != nil {
		m.matched = tr.match(m.reqs, pool)
	}
	return m, nil
}

// window returns the requests of the measured window.
func (m *measurement) window() []*request {
	var out []*request
	for i := range m.reqs {
		if m.reqs[i].phase == phaseWindow {
			out = append(out, &m.reqs[i])
		}
	}
	return out
}

// counts returns how many window requests were sent and how many failed
// or were refused.
func (m *measurement) counts() (attempted, failed int) {
	for _, r := range m.window() {
		attempted++
		if !r.ok() {
			failed++
		}
	}
	return attempted, failed
}

// repeatShare is the share of sent queries identical to an earlier one.
func (m *measurement) repeatShare() float64 {
	seen := map[int]bool{}
	repeats := 0
	for _, r := range m.reqs {
		if seen[r.query] {
			repeats++
		}
		seen[r.query] = true
	}
	if len(m.reqs) == 0 {
		return 0
	}
	return float64(repeats) / float64(len(m.reqs))
}

// checkJobs selects the responses to check: all of them, or on ingest a
// seeded sample of the window's, each against the records appended up to
// the generation it reports.
func (m *measurement) checkJobs(pool []spq.Query, sample int, seed int64) ([]checkJob, error) {
	var jobs []checkJob
	if m.writer == nil {
		for i := range m.reqs {
			if r := &m.reqs[i]; r.ok() {
				jobs = append(jobs, checkJob{req: r, key: queryKey(pool[r.query])})
			}
		}
		return jobs, nil
	}
	var ok []*request
	for _, r := range m.window() {
		if r.ok() {
			ok = append(ok, r)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ok), func(i, j int) { ok[i], ok[j] = ok[j], ok[i] })
	for _, r := range ok[:min(sample, len(ok))] {
		vis, err := m.writer.visible(r.gen)
		if err != nil {
			return nil, err
		}
		j := checkJob{req: r, extra: m.appended[:vis]}
		if vis == 0 {
			j.key = queryKey(pool[r.query])
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// endToEnd fills the metrics of an untraced run.
func (m *measurement) endToEnd(out map[string]metric, setupS float64) {
	var lat []float64
	for _, r := range m.window() {
		if r.ok() {
			lat = append(lat, r.latency().Seconds()*1000)
		}
	}
	attempted, _ := m.counts()
	s := m.slices[0]
	out["qps"] = metric{float64(len(lat)) / (s.end - s.start).Seconds(), "1/s"}
	out["p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	out["p95_ms"] = metric{quantile(lat, 0.95), "ms"}
	out["ok_ratio"] = metric{float64(len(lat)) / float64(max(attempted, 1)), "ratio"}
	out["setup_s"] = metric{setupS, "s"}
	out["rss_peak_mb"] = metric{m.rssMB, "MB"}
}

// replayTargets picks the first n traced, answered requests in issue
// order; view marks those the engine served through a data view (in
// process, no delta visible).
func (m *measurement) replayTargets(n int, distributed bool) []replayTarget {
	var out []replayTarget
	for i := range m.reqs {
		r := &m.reqs[i]
		c := m.matched[r.id]
		if len(out) == n {
			break
		}
		if c == nil || c.rep == nil {
			continue
		}
		view := !distributed && (c.rep.Delta == nil || c.rep.Delta.Records == 0)
		out = append(out, replayTarget{req: r, view: view})
	}
	return out
}

// spans returns every span of the traced run.
func (m *measurement) spans() []span {
	var out []span
	for _, r := range m.window() {
		if r.traced {
			out = append(out, requestSpans(r, m.matched[r.id])...)
		}
	}
	if m.writer != nil {
		for i, a := range m.writer.recs {
			out = append(out, span{ID: fmt.Sprintf("a%d", i), Name: "append.batch", Req: i, Start: us(a.start), End: us(a.end)})
		}
	}
	return append(out, m.replaySpans...)
}

// perLayer fills the metrics of a traced run. Per-query figures are means
// over the traced requests of the window.
func (m *measurement) perLayer(out map[string]metric, rs replayStats) {
	var traced []*engineCall
	var tracedReqs []*request
	for _, r := range m.window() {
		if c := m.matched[r.id]; r.traced && c != nil && c.rep != nil {
			traced = append(traced, c)
			tracedReqs = append(tracedReqs, r)
		}
	}
	nq := float64(max(len(traced), 1))
	perQuery := func(f func(*spq.Report) float64) float64 {
		var s float64
		for _, c := range traced {
			s += f(c.rep)
		}
		return s / nq
	}
	ctr := func(name string) func(*spq.Report) float64 {
		return func(r *spq.Report) float64 { return float64(r.Counters[name]) }
	}
	var reqSpans []span
	for _, r := range tracedReqs {
		reqSpans = append(reqSpans, requestSpans(r, m.matched[r.id])...)
	}
	self := selfTimes(reqSpans)
	out["serve.self_ms"] = metric{self["request"] / nq, "ms"}
	out["engine.outside_job_ms"] = metric{self["engine.query"] / nq, "ms"}
	out["mapreduce.job_self_ms"] = metric{self["mapreduce.job"] / nq, "ms"}
	out["mapreduce.map_ms"] = metric{self["mapreduce.map"] / nq, "ms"}
	out["mapreduce.reduce_ms"] = metric{self["mapreduce.reduce"] / nq, "ms"}

	out["engine.delta_visible"] = metric{perQuery(func(r *spq.Report) float64 {
		if r.Delta == nil {
			return 0
		}
		return float64(r.Delta.Records)
	}), "records/query"}
	out["engine.delta_selected"] = metric{perQuery(func(r *spq.Report) float64 {
		if r.Delta == nil {
			return 0
		}
		return float64(r.Delta.RecordsSelected)
	}), "records/query"}
	compactions, compactMs, lag := 0, 0.0, 0.0
	var appendMs []float64
	if m.writer != nil {
		for _, a := range m.writer.recs {
			if a.compacted > 0 {
				compactions++
				compactMs += a.compacted.Seconds() * 1000
			}
			lag += (a.start - a.due).Seconds() * 1000
			appendMs = append(appendMs, (a.end-a.due).Seconds()*1000)
		}
		lag /= float64(max(len(m.writer.recs), 1))
	}
	out["engine.compactions"] = metric{float64(compactions), "count"}
	out["engine.compact_ms"] = metric{compactMs / float64(max(compactions, 1)), "ms"}
	out["engine.append_p50_ms"] = metric{quantile(appendMs, 0.5), "ms"}
	out["engine.append_p99_ms"] = metric{quantile(appendMs, 0.99), "ms"}
	out["load.writer_lag_ms"] = metric{lag, "ms"}

	nr := float64(max(rs.n, 1))
	out["plan.ms"] = metric{rs.planMs / nr, "ms"}
	var sel, total float64
	for _, c := range traced {
		if p := c.rep.Plan; p != nil {
			sel += float64(p.RecordsSelected)
			total += float64(p.RecordsTotal)
		}
	}
	out["plan.blocks_scanned"] = metric{perQuery(ctr("spq.plan.blocks.scanned")), "blocks/query"}
	out["plan.blocks_pruned"] = metric{perQuery(ctr("spq.plan.blocks.pruned")), "blocks/query"}
	out["plan.selected_ratio"] = metric{sel / max(total, 1), "ratio"}
	out["core.view_build_ms"] = metric{rs.viewBuildMs / float64(max(rs.viewLookups, 1)), "ms"}
	out["core.view_hit_ratio"] = metric{float64(rs.viewHits) / float64(max(rs.viewLookups, 1)), "ratio"}
	out["data.decode_ms"] = metric{rs.decodeMs / nr, "ms"}

	out["data.seg_read_bytes"] = metric{perQuery(ctr(spq.CounterSegBytesRead)), "bytes/query"}
	out["data.seg_decoded_bytes"] = metric{perQuery(ctr(spq.CounterSegBytesDecoded)), "bytes/query"}
	out["data.seg_selected_bytes"] = metric{perQuery(ctr(spq.CounterSegBytesSelected)), "bytes/query"}
	var hits, misses int64
	var rt rtStats
	var qpsOn, qpsOff [2]float64 // completed requests, seconds
	for _, s := range m.slices {
		done := 0
		for _, r := range m.window() {
			if r.ok() && r.start >= s.start && r.end <= s.end {
				done++
			}
		}
		acc := &qpsOff
		if s.traced {
			acc = &qpsOn
			hits += s.seg.Hits
			misses += s.seg.Misses
			rt = rt.add(s.rt)
		}
		acc[0] += float64(done)
		acc[1] += (s.end - s.start).Seconds()
	}
	out["data.seg_cache_hit_ratio"] = metric{float64(hits) / float64(max(hits+misses, 1)), "ratio"}

	out["mapreduce.map_records_in"] = metric{perQuery(ctr("map.records.in")), "records/query"}
	out["mapreduce.shuffle_records"] = metric{perQuery(ctr("map.records.out")), "records/query"}
	out["mapreduce.shuffle_chunks"] = metric{perQuery(ctr("shuffle.chunks")), "chunks/query"}
	out["mapreduce.shuffle_bytes"] = metric{perQuery(ctr("shuffle.bytes")), "bytes/query"}
	out["mapreduce.sched_wait_us"] = metric{perQuery(ctr("spq.sched.wait_us")), "us/query"}
	out["mapreduce.retries"] = metric{perQuery(func(r *spq.Report) float64 {
		return float64(r.Counters["spq.retry.map"] + r.Counters["spq.retry.reduce"])
	}), "tasks/query"}

	out["core.features_examined"] = metric{perQuery(ctr("spq.reduce.features.examined")), "count/query"}
	out["core.score_computations"] = metric{perQuery(ctr("spq.reduce.score.computations")), "count/query"}
	out["core.early_terminations"] = metric{perQuery(ctr("spq.reduce.early_terminations")), "count/query"}
	out["core.features_duplicated"] = metric{perQuery(ctr("spq.map.features.duplicated")), "count/query"}

	out["rpc.bytes"] = metric{perQuery(ctr("spq.exec.rpc.bytes")), "bytes/query"}
	out["rpc.tasks"] = metric{perQuery(func(r *spq.Report) float64 { return counterSum(r.Counters, "spq.exec.tasks.") }), "tasks/query"}
	out["rpc.reexec"] = metric{perQuery(ctr("spq.exec.reexec")), "tasks/query"}
	out["rpc.spec_wasted"] = metric{perQuery(ctr("spq.exec.spec.wasted")), "tasks/query"}
	out["rpc.fallback_local"] = metric{perQuery(ctr("spq.exec.fallback.local")), "jobs/query"}
	out["dfs.fault_events"] = metric{perQuery(func(r *spq.Report) float64 { return counterSum(r.Counters, "spq.fault.") }) * nq, "count"}

	out["go.alloc_bytes"] = metric{rt.alloc / nq, "bytes/query"}
	out["go.gc_cpu_share"] = metric{rt.gcCPU / max(rt.totalCPU, 1e-9), "ratio"}

	on, off := qpsOn[0]/max(qpsOn[1], 1e-9), qpsOff[0]/max(qpsOff[1], 1e-9)
	out["trace.qps_traced"] = metric{on, "1/s"}
	out["trace.qps_untraced"] = metric{off, "1/s"}
	out["trace.overhead_ratio"] = metric{1 - on/max(off, 1e-9), "ratio"}

	attempted, failed := m.counts()
	out["serve.fail_ratio"] = metric{float64(failed) / float64(max(attempted, 1)), "ratio"}
	out["load.repeat_share"] = metric{m.repeatShare(), "ratio"}
}
