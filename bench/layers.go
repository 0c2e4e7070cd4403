package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"testing"
	"time"

	usp "repro"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/vecmath"
)

// Shares of the traced pass's seconds. The churn workload gives its own
// phase most of the time and scales the others down.
const (
	kernelShare = 0.08
	stageShare  = 0.20
	engineShare = 0.10
	serveShare  = 0.12
	httpShare   = 0.08
	frontShare  = 0.08
	ladderShare = 0.14
	churnShare  = 0.20

	churnShareOnChurn = 0.45
)

// kernelBlock is how many back-to-back kernel calls one span covers — a
// single call is shorter than the clock's resolution — and the most spans one
// kernel loop records.
const kernelBlock = 4096

// sink keeps the compiler from discarding the kernels' results.
var sink float32

// layerPass is the state of one traced pass.
type layerPass struct {
	*run
	tr    *tracer
	m     map[string]float64
	scale float64 // shrinks every non-churn share on the churn workload
	rng   *rand.Rand
	// stageSum is the sum of the rig's median stage times in microseconds.
	stageSum float64
}

func (p *layerPass) dur(share float64) time.Duration {
	return time.Duration(p.seconds * share * p.scale * float64(time.Second))
}

// tracedPass measures the per-layer metrics: spans are recorded from here,
// around the calls into each layer's public functions, kept in memory and
// written to tracePath when the pass ends.
func (r *run) tracedPass(tracePath string) error {
	sv, _, err := r.setUp()
	if err != nil {
		return err
	}
	defer sv.close()
	rg, err := buildRig(r.w)
	if err != nil {
		return err
	}
	ref, err := reference(sv.ix, r.w.queries, r.spec.Search)
	if err != nil {
		return err
	}
	p := &layerPass{run: r, tr: newTracer(1 << 18), m: map[string]float64{}, scale: 1,
		rng: rand.New(rand.NewSource(r.w.seed + 17))}
	churn := churnShare
	if r.spec.Churn {
		churn = churnShareOnChurn
		p.scale = (1 - churnShareOnChurn) / (1 - churnShare)
	}
	r.res.PerLayer = p.m

	r.cal.take(r.spec.SpeedSamples)
	p.kernelLayers(rg)
	p.checkRig(rg, sv.ix)
	p.stageLayers(rg)
	p.engineLayer(sv.ix, ref)
	if err := p.serveLayers(sv, ref); err != nil {
		return err
	}
	// The phases below change the index, so they come last.
	if err := p.lifecycleLayer(sv.ix); err != nil {
		return err
	}
	p.churnLayer(sv.ix, time.Duration(r.seconds*churn*float64(time.Second)))
	// Where set-up itself bulk-loads, compacts and reloads, its phase times
	// are the ones that explain setup_s.
	for k, v := range sv.phases {
		p.m[k] = v
	}
	// Per-layer times are wall-clock; host.speed is what to scale them by to
	// compare runs made while the host was at different speeds.
	r.cal.take(r.spec.SpeedSamples)
	p.m["host.speed"] = r.cal.speed()
	if n := p.tr.dropped.Load(); n > 0 {
		r.logf("%s: trace buffer full, %d spans dropped", r.spec.Name, n)
	}
	return writeTrace(tracePath, p.tr.recorded())
}

// timeSpans calls fn(i) under one span per call, i counting up, until d has
// passed or kernelBlock calls were made, and returns the median span in ns.
// n is the work count each span records.
func (p *layerPass) timeSpans(name string, d time.Duration, n int, fn func(i int)) float64 {
	from := len(p.tr.recorded())
	for i, end := 0, now()+int64(d); now() < end && i < kernelBlock; i++ {
		sp := p.tr.begin(name, -1, i)
		fn(i)
		p.tr.end(sp, n)
	}
	var durs []int64
	for _, sp := range p.tr.recorded()[from:] {
		durs = append(durs, sp.End-sp.Start)
	}
	return float64(percentile(sortedCopy(durs), 50))
}

// kernelLayers times the bottom layers on this workload's shapes: the
// distance and LUT-sum kernels over contiguous rows (a block of kernelBlock
// calls per span), a small MatMul, and the routing model's single-row and
// batched forward pass.
func (p *layerPass) kernelLayers(rg *rig) {
	d := p.dur(kernelShare / 5)
	q := p.w.queries[0]
	rows := min(kernelBlock, rg.ds.N)
	p.m["vecmath.sql2_ns_per_row"] = p.timeSpans("vecmath.sql2", d, kernelBlock, func(int) {
		for i := 0; i < kernelBlock; i++ {
			sink += vecmath.SquaredL2(q, rg.ds.Row(i%rows))
		}
	}) / kernelBlock
	lut := rg.pq.AppendLUT(nil, q)
	mSub, k := rg.pq.Subspaces, rg.pq.K
	p.m["vecmath.lutsum_ns_per_code"] = p.timeSpans("vecmath.lutsum", d, kernelBlock, func(int) {
		for i := 0; i < kernelBlock; i++ {
			row := i % rows
			sink += vecmath.LUTSum(lut, k, rg.codes[row*mSub:(row+1)*mSub])
		}
	}) / kernelBlock

	a, b, dst := tensor.New(64, 128), tensor.New(128, 64), tensor.New(64, 64)
	for i := range a.Data {
		a.Data[i] = p.rng.Float32()
	}
	for i := range b.Data {
		b.Data[i] = p.rng.Float32() - 0.5
	}
	p.m["tensor.matmul_64x128x64_us"] = p.timeSpans("tensor.matmul", d, 1, func(int) {
		tensor.MatMul(dst, a, b)
	}) / 1e3

	// The routing model: an ensemble's first member, or for a hierarchy —
	// whose nodes core does not expose — a fresh model of the root's shape.
	var model *nn.Sequential
	if rg.ens != nil {
		model = rg.ens.Parts[0].Model
	} else {
		model = nn.NewMLP(rg.ds.Dim, p.w.opt.Hidden, p.w.opt.Hierarchy[0], 0.1, p.rng)
	}
	var sc nn.InferScratch
	var out []float32
	nq := len(p.w.queries)
	p.m["nn.forward_us"] = p.timeSpans("nn.forward_row", d, 1, func(i int) {
		out = model.PredictVecInto(out, p.w.queries[i%nq], &sc)
	}) / 1e3
	const batchRows = 64
	x := tensor.New(batchRows, rg.ds.Dim)
	for i := 0; i < batchRows; i++ {
		copy(x.Row(i), p.w.queries[i%nq])
	}
	var bsc nn.BatchInferScratch
	p.m["nn.forward_batch_us_per_row"] = p.timeSpans("nn.forward_batch", d, batchRows, func(int) {
		out = model.PredictBatchInto(out, x, &bsc)
	}) / 1e3 / batchRows
}

// checkRig proves the rig is the engine's structure: per query, the same
// candidate count as Searcher.Scanned, and the same top-k ids (float) or at
// least 99 % of them (ADC, where the rig re-derives the codebooks).
func (p *layerPass) checkRig(rg *rig, ix *usp.Index) {
	s := ix.NewSearcher()
	agree, total := 0, 0
	for i, q := range p.w.queries {
		res, err := s.Search(q, topK, p.spec.Search)
		rg.query(nil, i, q)
		p.res.Attempted++
		if err != nil || s.Scanned() != len(rg.cands) {
			p.failf("stage rig gathers %d candidates for query %d, the engine %d (%v)", len(rg.cands), i, s.Scanned(), err)
			continue
		}
		same := 0
		for _, r := range res {
			for _, nb := range rg.nbrs {
				if nb.Index == r.ID {
					same++
					break
				}
			}
		}
		agree += same
		total += len(res)
		if !rg.adc && same != len(res) {
			p.failf("stage rig answers query %d with other ids than the engine", i)
		}
	}
	if rg.adc && float64(agree) < 0.99*float64(total) {
		p.failf("stage rig agrees with the engine on %d of %d ADC result ids, want 99%%", agree, total)
	}
}

// stageLayers runs queries through the rig with a span per stage and derives
// the per-stage metrics, then times the other path's scan stages.
func (p *layerPass) stageLayers(rg *rig) {
	queries := p.w.queries
	nq := len(queries)
	from := len(p.tr.recorded())
	// A few passes over the queries give the medians all they need; more
	// would only fill the trace.
	n := 0
	for end := now() + int64(p.dur(stageShare*0.75)); now() < end && n < 3*nq; n++ {
		rg.query(p.tr, n, queries[n%nq])
	}
	for i, end := 0, now()+int64(p.dur(stageShare*0.25)); now() < end && i < nq; i++ {
		rg.otherScan(p.tr, n+i, queries[i%nq])
	}
	st := summarize(p.tr.recorded()[from:], from)
	p.m["core.route_us"] = st.p50us("core.route")
	p.m["core.gather_us"] = st.p50us("core.gather")
	p.m["quant.lut_build_us"] = st.p50us("quant.lut_build")
	p.m["knn.float_scan_us"] = st.p50us("knn.float_scan")
	p.m["knn.float_scan_ns_per_cand"] = st.perCount("knn.float_scan")
	p.m["knn.adc_scan_us"] = st.p50us("knn.adc_scan")
	p.m["knn.adc_scan_ns_per_cand"] = st.perCount("knn.adc_scan")
	p.m["knn.rerank_us"] = st.p50us("knn.rerank")
	if n > 0 {
		p.m["core.cand_frac"] = float64(st.n["core.gather"]) / float64(n) / float64(rg.ds.N)
		p.m["core.bins_probed"] = float64(st.n["core.route"]) / float64(n)
	}
	p.m["core.bin_imbalance"] = rg.binImbalance()
	sum := 0.0
	for _, name := range rg.stageNames() {
		sum += st.p50us(name)
	}
	p.stageSum = sum
}

// engineLayer times the engine's own call untraced and traced (the
// difference is what tracing costs), reconciles it with the stage sum, and
// counts allocations per query.
func (p *layerPass) engineLayer(ix *usp.Index, ref [][]usp.Result) {
	queries, opt := p.w.queries, p.spec.Search
	nq := len(queries)
	s := ix.NewSearcher()
	dst := make([]usp.Result, 0, topK)
	var err error
	asked, next := 0, 0
	check := func(_, _ int) bool { return slices.Equal(dst, ref[asked]) }
	// Untraced and traced blocks alternate, so that a slow spell of the
	// machine lands on both sides of the ratio.
	const blocks = 10
	var lat [2][]int64
	for b := 0; b < 2*blocks; b++ {
		tr := []*tracer{nil, p.tr}[b%2]
		lr := closedLoop(1, p.dur(engineShare/(2*blocks)), func(_, _ int) bool {
			asked = next % nq
			next++
			sp := tr.begin("usp.search", -1, asked)
			dst, err = s.SearchInto(dst[:0], queries[asked], topK, opt)
			tr.end(sp, s.Scanned())
			return err == nil
		}, check)
		p.count(lr)
		lat[b%2] = append(lat[b%2], lr.lat...)
	}
	untraced := nsToUs(percentile(sortedCopy(lat[0]), 50))
	traced := nsToUs(percentile(sortedCopy(lat[1]), 50))
	sum := p.stageSum
	p.m["usp.engine_p50_us"] = untraced
	p.m["usp.engine_overhead_us"] = untraced - sum
	if untraced > 0 {
		ratio := sum / untraced
		p.m["usp.stage_sum_ratio"] = ratio
		p.m["trace.overhead_ratio"] = traced / untraced
		ok := ratio >= 0.85 && ratio <= 1.15
		p.res.Reconciled = &ok
	}
	q := queries[0]
	p.m["usp.allocs_per_query"] = testing.AllocsPerRun(200, func() {
		dst, _ = s.SearchInto(dst[:0], q, topK, opt)
	})
}

// serveLayers climbs the serving ladder over the same index and queries:
// Server.Search in process with batching off and on, one unsharded server
// over loopback HTTP, the front over the shards, and the open-loop rate
// ladder through the front.
func (p *layerPass) serveLayers(sv *served, ref [][]usp.Result) error {
	queries, opt := p.w.queries, p.spec.Search
	nq, clients := len(queries), nproc()

	// In process: nproc callers, batching off, then on.
	inProcess := func(name string, srv *serve.Server) float64 {
		res := make([][]usp.Result, clients)
		asked := make([]int, clients)
		lr := closedLoop(clients, p.dur(serveShare/2), func(c, i int) bool {
			asked[c] = (c + i*clients) % nq
			sp := p.tr.begin(name, -1, asked[c])
			var err error
			res[c], _, err = srv.Search(queries[asked[c]], topK, opt.Probes, opt.RerankK)
			p.tr.end(sp, 1)
			return err == nil
		}, func(c, _ int) bool { return slices.Equal(res[c], ref[asked[c]]) })
		p.count(lr)
		return nsToUs(percentile(sortedCopy(lr.lat), 50))
	}
	direct := serve.New(sv.ix, serve.Config{})
	p.m["serve.search_direct_p50_us"] = inProcess("serve.search_direct", direct)
	batched := serve.New(sv.ix, serve.Config{BatchWindow: tierWindow})
	p.m["serve.search_batched_p50_us"] = inProcess("serve.search_batched", batched)
	batched.Close()
	p.m["serve.batcher_overhead_us"] = p.m["serve.search_batched_p50_us"] - p.m["serve.search_direct_p50_us"]
	reg := batched.Registry()
	if h := reg.Histogram("usp_batch_size", "", "", 1); h.Count() > 0 {
		p.m["serve.batch_size_mean"] = float64(h.Sum()) / float64(h.Count())
	}
	for _, reason := range []string{"fast", "window", "full"} {
		p.m["serve.flush_"+reason] = float64(reg.Counter("usp_batch_flush_total", `reason="`+reason+`"`, "").Value())
	}

	// Over HTTP: one connection, first to one unsharded server, then through
	// the front.
	bodies, err := searchBodies(queries, opt)
	if err != nil {
		return err
	}
	single, err := newTier(sv.ix, 1, 1, p.w.outDir)
	if err != nil {
		return err
	}
	defer single.close()
	sharded := sv.tier
	if sharded == nil {
		if sharded, err = newTier(sv.ix, tierShards, clients, p.w.outDir); err != nil {
			return err
		}
		defer sharded.close()
	}
	bufs := make([]bytes.Buffer, clients)
	asked := make([]int, clients)
	var reqBytes, respBytes, replies int
	// A bounded quantized re-rank sees more survivors per shard than
	// unsharded, so sharded answers may be closer, never farther.
	shardedExact := !p.w.opt.Quantize.Enabled
	overHTTP := func(name string, t *tier, url string, exact bool, d time.Duration) float64 {
		next := 0
		lr := closedLoop(1, d, func(_, _ int) bool {
			asked[0] = next % nq
			next++
			sp := p.tr.begin(name, -1, asked[0])
			err := post(t.client, url+"/search", bodies[asked[0]], &bufs[0])
			p.tr.end(sp, bufs[0].Len())
			if err != nil {
				p.note("%s: %v", name, err)
			}
			return err == nil
		}, func(_, _ int) bool {
			reqBytes += len(bodies[asked[0]])
			respBytes += bufs[0].Len()
			replies++
			return checkSearchReply(bufs[0].Bytes(), ref[asked[0]], exact)
		})
		p.count(lr)
		return nsToUs(percentile(sortedCopy(lr.lat), 50))
	}
	p.m["serve.http_p50_us"] = overHTTP("serve.http", single, single.backends[0].URL, true, p.dur(httpShare))
	if replies > 0 {
		p.m["serve.req_bytes"] = float64(reqBytes) / float64(replies)
		p.m["serve.resp_bytes"] = float64(respBytes) / float64(replies)
	}
	p.m["serve.http_json_overhead_us"] = p.m["serve.http_p50_us"] - p.m["serve.search_direct_p50_us"]
	p.m["frontier.front_p50_us"] = overHTTP("frontier.front", sharded, sharded.frontSrv.URL, shardedExact, p.dur(frontShare))
	p.m["frontier.fanout_overhead_us"] = p.m["frontier.front_p50_us"] - p.m["serve.http_p50_us"]

	// Ladder: Poisson arrivals through the front at each fixed rate, latency
	// from the due time. A rate is sustained when its tail meets ladderLimit,
	// nothing failed, and the generator did not fall further behind as the
	// rung went on.
	url := sharded.frontSrv.URL
	okRate, lateAtOK := 0, -1.0
	for _, rate := range ladderRates {
		sched := poissonSchedule(p.rng, float64(rate), p.dur(ladderShare/float64(len(ladderRates))))
		base := p.rng.Intn(nq)
		lr := openLoop(clients, sched, time.Second, func(c, i int) bool {
			asked[c] = (base + i) % nq
			sp := p.tr.begin("ladder.request", -1, i)
			err := post(sharded.client, url+"/search", bodies[asked[c]], &bufs[c])
			p.tr.end(sp, rate)
			return err == nil
		}, func(c, _ int) bool { return checkSearchReply(bufs[c].Bytes(), ref[asked[c]], shardedExact) })
		// An overloaded rung's unsent requests are its finding, not a wrong
		// answer: they fail the rung, not the run.
		p.res.Attempted += lr.attempted - lr.unsent
		p.res.Failed += lr.failed - lr.unsent
		sorted := sortedCopy(lr.lat)
		tail := nsToUs(percentile(sorted, tailPercentile(len(sorted), 99)))
		p.m[fmt.Sprintf("ladder.r%d.p99_us", rate)] = tail
		if rate == ladderRates[0] {
			p.m[fmt.Sprintf("ladder.r%d.p50_us", rate)] = nsToUs(percentile(sorted, 50))
		}
		late := sortedCopy(lr.late)
		latePct := nsToUs(percentile(late, tailPercentile(len(late), 99)))
		quarter := len(lr.late) / 4
		growing := quarter > 0 &&
			percentile(sortedCopy(lr.late[len(lr.late)-quarter:]), 50) > percentile(sortedCopy(lr.late[:quarter]), 50)+int64(time.Millisecond)
		if lr.failed == 0 && !growing && tail <= nsToUs(int64(ladderLimit)) {
			okRate, lateAtOK = rate, latePct
		} else if lateAtOK < 0 {
			lateAtOK = latePct // no rate sustained yet: report the lowest rung's
		}
	}
	p.m["ladder.rate_ok_rps"] = float64(okRate)
	p.m["gen.late_p99_us"] = max(lateAtOK, 0)

	// The front's own counters and its view of backend latency.
	snap, err := scrape(sharded.client, sharded.frontSrv.URL)
	if err != nil {
		return err
	}
	p.m["frontier.retries"] = number(snap["front_retries_total"])
	p.m["frontier.rejected"] = number(snap["front_rejected_total"])
	p.m["frontier.coalesced"] = number(snap["front_coalesced_total"])
	sum, n := 0.0, 0
	for _, b := range sharded.backends {
		if h, ok := snap[`front_backend_latency_seconds{backend="`+b.URL+`"}`].(map[string]any); ok {
			sum += number(h["p50"]) * 1e6
			n++
		}
	}
	if n > 0 {
		p.m["frontier.backend_p50_us"] = sum / float64(n)
	}
	return nil
}

// scrape reads a /metrics endpoint's JSON snapshot.
func scrape(c *http.Client, url string) (map[string]any, error) {
	resp, err := c.Get(url + "/metrics?format=json")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	return snap, nil
}

// number reads a telemetry snapshot value, which is a uint64 in process and
// a float64 after a trip through JSON.
func number(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case uint64:
		return float64(x)
	}
	return 0
}

// lifecycleRows is how many pool rows lifecycleLayer adds: with the deletes of
// half of them, fewer mutations than compactAfter.
func lifecycleRows(pool [][]float32) int { return min(600, len(pool)/3) }

// lifecycleLayer times the write-side calls alone, closed loop: a bulk Add,
// Deletes of half of what it added, one Compact, one snapshot round trip. It
// stays under compactAfter pending mutations so that the Compact it times is
// the one that folds them.
func (p *layerPass) lifecycleLayer(ix *usp.Index) error {
	n := lifecycleRows(p.w.pool)
	from := len(p.tr.recorded())
	ids := make([]int, 0, n)
	t0 := now()
	for _, vec := range p.w.pool[:n] {
		sp := p.tr.begin("usp.add", -1, len(ids))
		id, err := ix.Add(vec)
		p.tr.end(sp, 1)
		p.res.Attempted++
		if err != nil {
			return fmt.Errorf("lifecycle add: %w", err)
		}
		ids = append(ids, id)
	}
	phases := phaseTimes(p.m)
	phases["usp.bulk_add_s"] = float64(now()-t0) / 1e9
	phases["usp.bulk_add_us_per_row"] = phases["usp.bulk_add_s"] * 1e6 / float64(n)
	for _, id := range ids[:n/2] {
		sp := p.tr.begin("usp.delete", -1, id)
		err := ix.Delete(id)
		p.tr.end(sp, 1)
		p.res.Attempted++
		if err != nil {
			return fmt.Errorf("lifecycle delete: %w", err)
		}
	}
	sp := p.tr.begin("usp.compact", -1, 0)
	_ = phases.time("usp.compact_s", func() error { ix.Compact(); return nil })
	p.tr.end(sp, n+n/2)
	if _, err := snapshotRoundTrip(ix, p.w.outDir, p.spec.Name, phases); err != nil {
		return err
	}
	st := summarize(p.tr.recorded()[from:], from)
	p.m["usp.add_us"] = st.p50us("usp.add")
	p.m["usp.delete_us"] = st.p50us("usp.delete")
	return nil
}

// churnLayer reads closed loop beside the open-loop writer for d and reports
// what the writes cost and what they did to the reads, from outside: the
// writer's own timings plus the index's lifecycle and telemetry counters.
func (p *layerPass) churnLayer(ix *usp.Index, d time.Duration) {
	reg := ix.Telemetry()
	counter := func(name string) float64 { return float64(reg.Counter(name, "", "").Value()) }
	before := map[string]float64{}
	names := []string{"usp_compactions_total", "usp_epoch_publishes_total", "usp_query_tombstones_skipped_total", "usp_queries_total"}
	for _, name := range names {
		before[name] = counter(name)
	}
	heap0 := heapMB()

	manual := p.w.opt.CompactAfter < 0
	wr := startWriter(ix, p.w.pool[lifecycleRows(p.w.pool):], p.spec.Search, writeRate, manual)
	queries := p.w.queries
	s := ix.NewSearcher()
	dst := make([]usp.Result, 0, topK)
	var err error
	lr := closedLoop(1, d, func(_, i int) bool {
		dst, err = s.SearchInto(dst[:0], queries[i%len(queries)], topK, p.spec.Search)
		return err == nil
	}, func(_, _ int) bool { return wellFormed(dst) })
	wr.finish()
	p.count(lr)
	p.countWriter(wr)

	delta := func(name string) float64 { return counter(name) - before[name] }
	add := sortedCopy(wr.addLat)
	p.m["usp.add_p50_us"] = nsToUs(percentile(add, 50))
	p.m["usp.add_p99_us"] = nsToUs(percentile(add, tailPercentile(len(add), 99)))
	p.m["usp.compactions"] = delta("usp_compactions_total")
	p.m["usp.epoch_publishes"] = delta("usp_epoch_publishes_total")
	if q := delta("usp_queries_total"); q > 0 {
		p.m["usp.tombstones_skipped_per_query"] = delta("usp_query_tombstones_skipped_total") / q
	}
	// The mean, not a quantile: the registry's histogram keeps an exact sum
	// but only bucketed quantiles, and a bucket edge is not a measurement.
	if h, ok := reg.JSON()["usp_compaction_latency_seconds"].(map[string]any); ok && number(h["count"]) > 0 {
		p.m["usp.compact_mean_ms"] = number(h["sum"]) / number(h["count"]) * 1e3
	}
	in, out := splitByWindows(lr.lat, lr.ends, wr.windows)
	in, out = sortedCopy(in), sortedCopy(out)
	p.m["usp.read_p99_in_compact_us"] = nsToUs(percentile(in, tailPercentile(len(in), 99)))
	p.m["usp.read_p99_out_compact_us"] = nsToUs(percentile(out, tailPercentile(len(out), 99)))
	p.m["usp.heap_growth_mb"] = heapMB() - heap0
	p.logf("%s: churn phase: %d reads (%d inside %d compaction windows), %d adds, %d deletes",
		p.spec.Name, len(lr.lat), len(in), len(wr.windows), len(wr.addLat), wr.deletes)
}
