package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	usp "repro"
)

// Repetition counts of the measured phases. An end-to-end metric is the
// median over a phase's repetitions, reported with their spread. The
// machine's noise comes in bursts of a few hundred milliseconds, so the
// repetitions are many and short — a burst spoils one or two of them, not
// the median — and the two phases of a workload alternate, repetition by
// repetition, so that a longer slow spell lands on a minority of each.
const (
	engineReps = 21 // closed-loop single-query and batch phases
	tierReps   = 15 // each http_tier phase
)

// churnWarmUp is how long churn's writer runs before measurement starts.
const churnWarmUp = 1500 * time.Millisecond

// Shares of the measured seconds each phase gets.
const (
	singleShare = 0.75 // engine workloads: the rest goes to the batch phase

	tierClosedShare = 0.7 // http_tier: the rest goes to the batch phase
)

// e2eValue is one end-to-end metric of one run: the median over repetitions,
// the repetitions themselves, and how many raw samples stand behind them.
type e2eValue struct {
	Median  float64   `json:"median"`
	Spread  float64   `json:"spread"`
	Unit    string    `json:"unit"`
	Reps    []float64 `json:"reps"`
	Samples int       `json:"samples"`
	// Raw is a timing metric's median as the wall clock gave it; Median and
	// Reps are in calibrated time (see calibrate.go).
	Raw float64 `json:"raw_median,omitempty"`
	// TailPct is set when a latency metric was taken at a lower percentile
	// than the one in its name, because the repetitions were too short to
	// leave minBeyond samples beyond that one.
	TailPct float64 `json:"taken_at_pct,omitempty"`
}

func newE2E(unit string, reps []float64, samples int) e2eValue {
	return e2eValue{Median: median(reps), Spread: spread(reps), Unit: unit, Reps: reps, Samples: samples}
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Traced    bool                `json:"traced"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	FailRatio float64             `json:"fail_ratio"`
	Failures  []string            `json:"failures,omitempty"`
	EndToEnd  map[string]e2eValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64  `json:"per_layer,omitempty"`
	// Reconciled is false when the stage rig's stage times do not add up to
	// the engine's time within 15 %: the per-stage numbers of that run do not
	// explain the end-to-end one.
	Reconciled *bool   `json:"reconciled,omitempty"`
	WallS      float64 `json:"wall_s"`
	// HostSpeed is the host's speed (see calibrate.go) — on an untraced run
	// during the measured phases, with SetupSpeed the speed during set-up;
	// the run's times were calibrated with the two.
	HostSpeed  float64 `json:"host_speed"`
	SetupSpeed float64 `json:"setup_speed,omitempty"`
}

// run carries the state of one run in progress.
type run struct {
	spec    *workloadSpec
	w       *world
	seconds float64
	logf    func(string, ...any)
	res     *runResult
	noteMu  sync.Mutex // tier clients complain concurrently
	cal     *calibrator
}

func (r *run) failf(format string, args ...any) {
	r.res.Failed++
	r.note(format, args...)
}

func (r *run) note(format string, args ...any) {
	r.noteMu.Lock()
	defer r.noteMu.Unlock()
	if len(r.res.Failures) < 16 {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
	}
}

// count folds a load phase's operation counts into the run's.
func (r *run) count(lr loadResult) {
	r.res.Attempted += lr.attempted
	r.res.Failed += lr.failed
}

// countWriter folds a finished writer's counts and complaints into the run's.
func (r *run) countWriter(wr *writer) {
	r.res.Attempted += wr.attempted
	r.res.Failed += wr.failed
	for _, n := range wr.notes {
		r.note("%s", n)
	}
}

func (r *run) phase(share float64, reps int) time.Duration {
	return time.Duration(r.seconds * share / float64(reps) * float64(time.Second))
}

// poolRows is how many spare rows a run needs for its writes.
func poolRows(spec *workloadSpec, seconds float64) int {
	if spec.Churn {
		return spec.Pool + int(float64(writeRate)*(seconds+churnWarmUp.Seconds()+2))
	}
	return spec.Pool
}

// runWorkload executes one run: set-up, warm-up, then either the untraced
// measured phases (end-to-end metrics) or the traced pass (per-layer
// metrics). Correctness is checked in the same run.
func runWorkload(spec *workloadSpec, seed int64, seconds float64, traced bool, outDir string, logf func(string, ...any)) (*runResult, error) {
	wall := time.Now()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	r := &run{spec: spec, seconds: seconds, logf: logf,
		res: &runResult{Workload: spec.Name, Seed: seed, Seconds: seconds, Traced: traced}}
	r.w = newWorld(spec, seed, poolRows(spec, seconds), outDir)
	r.cal = newCalibrator()

	var err error
	if traced {
		err = r.tracedPass(filepath.Join(outDir, "trace-"+spec.Name+".jsonl"))
	} else {
		err = r.untracedPass()
	}
	if err != nil {
		return nil, err
	}
	res := r.res
	if res.Attempted > 0 {
		res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = res.Failed == 0
	res.HostSpeed = r.cal.speed()
	res.WallS = time.Since(wall).Seconds()
	return res, nil
}

// served is a workload's index ready to answer, with its tier if it has one.
type served struct {
	ix     *usp.Index
	tier   *tier
	phases phaseTimes
}

func (s *served) close() {
	if s.tier != nil {
		s.tier.close()
	}
}

// setUp runs the workload's whole set-up once and returns what it built and
// how long it took. For a Reload workload the loaded index is checked
// against the live one it was saved from, outside the timed part.
func (r *run) setUp() (*served, float64, error) {
	t0 := time.Now()
	ix, live, phases, err := r.w.buildIndex()
	if err != nil {
		return nil, 0, err
	}
	sv := &served{ix: ix, phases: phases}
	if r.spec.Tier {
		if sv.tier, err = newTier(ix, tierShards, nproc(), r.w.outDir); err != nil {
			return nil, 0, err
		}
	}
	took := time.Since(t0).Seconds()
	if live != nil {
		r.checkReload(live, ix)
	}
	return sv, took, nil
}

// checkReload compares the loaded index with the live one on 200 sampled
// queries: every id and distance bit must agree.
func (r *run) checkReload(live, loaded *usp.Index) {
	rng := rand.New(rand.NewSource(r.w.seed + 11))
	for n := 0; n < 200; n++ {
		q := r.w.queries[rng.Intn(len(r.w.queries))]
		a, errA := live.Search(q, topK, r.spec.Search)
		b, errB := loaded.Search(q, topK, r.spec.Search)
		r.res.Attempted++
		if errA != nil || errB != nil || !slices.Equal(a, b) {
			r.failf("loaded snapshot answers differently from the live index: %v vs %v (%v, %v)", a, b, errA, errB)
		}
	}
}

// repeatedSetUp sets up spec.Setups times, keeps the last, and returns each
// set-up's duration. The host's speed is sampled before and after each.
func (r *run) repeatedSetUp() (*served, []float64, error) {
	var sv *served
	var times []float64
	r.cal.take(r.spec.SpeedSamples)
	for i := 0; i < r.spec.Setups; i++ {
		if sv != nil {
			sv.close()
		}
		var took float64
		var err error
		if sv, took, err = r.setUp(); err != nil {
			return nil, nil, err
		}
		times = append(times, took)
		r.cal.take(r.spec.SpeedSamples)
		r.logf("%s: set-up %d/%d took %.2fs", r.spec.Name, i+1, r.spec.Setups, took)
	}
	return sv, times, nil
}

// untracedPass measures the end-to-end metrics.
func (r *run) untracedPass() error {
	// heap_mb is what set-up left on the heap: the generated inputs, which
	// are the harness's own, are subtracted.
	inputs := heapMB()
	sv, setups, err := r.repeatedSetUp()
	if err != nil {
		return err
	}
	defer sv.close()
	r.res.SetupSpeed = r.cal.speed()
	r.cal.reset()
	e2e := map[string]e2eValue{
		"setup_s": calibrated(newE2E("s", setups, len(setups)), r.res.SetupSpeed),
		"heap_mb": newE2E("MB", []float64{heapMB() - inputs}, 1),
	}
	r.res.EndToEnd = e2e

	// Reference answers double as the warm-up pass.
	ref, err := reference(sv.ix, r.w.queries, r.spec.Search)
	if err != nil {
		return err
	}
	recall := recallOf(ref, truthOver(r.w.train, nil, r.w.queryDS))

	switch {
	case r.spec.Tier:
		if err := r.tierPhases(sv, ref, e2e); err != nil {
			return err
		}
	case r.spec.Churn:
		wr := startWriter(sv.ix, r.w.pool, r.spec.Search, writeRate, false)
		// Measure the steady state: deletes only start once deleteLag rows
		// were added, and tombstones only level off after a compaction.
		time.Sleep(churnWarmUp)
		r.enginePhases(sv.ix, nil, e2e)
		wr.finish()
		r.countWriter(wr)
		r.logf("churn: %d adds, %d deletes, %d compactions seen", len(wr.addLat), wr.deletes, len(wr.windows))
		// Recall is judged on the index as churn left it, against the
		// brute-force truth over the rows live at that point.
		after, err := reference(sv.ix, r.w.queries, r.spec.Search)
		if err != nil {
			return err
		}
		live, ids := wr.liveRows(r.w.train)
		recall = recallOf(after, truthOver(live, ids, r.w.queryDS))
	default:
		r.enginePhases(sv.ix, ref, e2e)
	}
	// The phases sampled the host's speed after each repetition.
	for _, name := range []string{"qps", "batch_qps", "lat_p50_us", "lat_p95_us", "lat_p99_us"} {
		e2e[name] = calibrated(e2e[name], r.cal.speed())
	}

	e2e["recall_at_10"] = newE2E("ratio", []float64{recall}, len(r.w.queries))
	r.res.Attempted++
	if recall < r.spec.RecallFloor {
		r.failf("recall@10 %.4f is below the floor %.2f", recall, r.spec.RecallFloor)
	}
	return nil
}

// rateMetric is the per-repetition rate of successful operations, each worth
// perOp queries.
func rateMetric(reps []loadResult, perOp float64) e2eValue {
	var rates []float64
	samples := 0
	for _, lr := range reps {
		rates = append(rates, lr.perSecond()*perOp)
		samples += lr.attempted
	}
	return newE2E("1/s", rates, samples)
}

// latencyMetrics files the per-repetition median, p95 and p99 latency under
// lat_p50_us, lat_p95_us and lat_p99_us. A tail is taken at its nominal
// percentile where every repetition leaves minBeyond samples beyond it, else
// at the highest percentile that does, which TailPct then records.
func latencyMetrics(reps []loadResult, e2e map[string]e2eValue) {
	var sorted [][]int64
	samples, fewest := 0, math.MaxInt
	for _, lr := range reps {
		s := sortedCopy(lr.lat)
		sorted = append(sorted, s)
		samples += len(s)
		fewest = min(fewest, len(s))
	}
	for _, m := range []struct {
		name string
		pct  float64
	}{{"lat_p50_us", 50}, {"lat_p95_us", 95}, {"lat_p99_us", 99}} {
		pct, taken := m.pct, 0.0
		if fewest-rank(fewest, pct) < minBeyond {
			pct = tailPercentile(fewest, pct)
			taken = pct
		}
		var vals []float64
		for _, s := range sorted {
			vals = append(vals, nsToUs(percentile(s, pct)))
		}
		v := newE2E("us", vals, samples)
		v.TailPct = taken
		e2e[m.name] = v
	}
}

// enginePhases runs the two closed-loop phases of an in-process workload from
// one goroutine, alternating repetition by repetition: single queries through
// Searcher.SearchInto with a recycled result slice, and SearchBatch over
// batchQueries-query batches. With ref set, every answer must equal the
// reference bit for bit; without (the index is changing under the reader), it
// must be well formed.
func (r *run) enginePhases(ix *usp.Index, ref [][]usp.Result, e2e map[string]e2eValue) {
	queries, opt := r.w.queries, r.spec.Search
	nq := len(queries)
	s := ix.NewSearcher()
	dst := make([]usp.Result, 0, topK)
	var err error
	next, asked := 0, 0
	// Batches are windows of the query list, wrapping at its end.
	size := min(batchQueries, nq)
	wrapped := append(slices.Clone(queries), queries[:size]...)
	var out [][]usp.Result
	var single, batch []loadResult
	for rep := 0; rep < engineReps; rep++ {
		lr := closedLoop(1, r.phase(singleShare, engineReps), func(_, _ int) bool {
			asked = next % nq
			next++
			dst, err = s.SearchInto(dst[:0], queries[asked], topK, opt)
			return err == nil
		}, func(_, _ int) bool {
			if ref == nil {
				return wellFormed(dst)
			}
			return slices.Equal(dst, ref[asked])
		})
		r.count(lr)
		single = append(single, lr)
		r.cal.take(1)

		lr = closedLoop(1, r.phase(1-singleShare, engineReps), func(_, _ int) bool {
			asked = next % nq
			next += size
			out, err = ix.SearchBatch(wrapped[asked:asked+size], topK, opt)
			return err == nil
		}, func(_, _ int) bool {
			for i, res := range out {
				if ref == nil && !wellFormed(res) || ref != nil && !slices.Equal(res, ref[(asked+i)%nq]) {
					return false
				}
			}
			return true
		})
		r.count(lr)
		batch = append(batch, lr)
		r.cal.take(1)
	}
	e2e["qps"] = rateMetric(single, 1)
	latencyMetrics(single, e2e)
	e2e["batch_qps"] = rateMetric(batch, float64(size))
}

// tierPhases measures http_tier through the front, alternating repetition by
// repetition: (a) closed loop with one client per CPU → qps and the latency
// metrics; (b) closed loop of /search/batch bodies from one client →
// batch_qps. Every reply must carry the ids and distance bits of the
// unsharded in-process answer.
//
// The open loop lives in the traced pass's rate ladder, ungated: at a rate
// that leaves the CPUs idle between requests, latency on a virtual machine
// follows the host's wake-up cost and came out bimodal from run to run.
func (r *run) tierPhases(sv *served, ref [][]usp.Result, e2e map[string]e2eValue) error {
	bodies, err := searchBodies(r.w.queries, r.spec.Search)
	if err != nil {
		return err
	}
	batches, err := batchBodies(r.w.queries, r.spec.Search)
	if err != nil {
		return err
	}
	nq, clients := len(bodies), nproc()
	url := sv.tier.frontSrv.URL
	bufs := make([]bytes.Buffer, clients)
	asked := make([]int, clients)
	search := func(c, q int) bool {
		asked[c] = q
		if err := post(sv.tier.client, url+"/search", bodies[q], &bufs[c]); err != nil {
			r.note("front /search: %v", err)
			return false
		}
		return true
	}
	check := func(c, _ int) bool { return checkSearchReply(bufs[c].Bytes(), ref[asked[c]], true) }

	// Warm the connections and the servers' searcher pools.
	r.count(closedLoop(clients, r.phase(0.02, 1), func(c, i int) bool { return search(c, (c+i*clients)%nq) }, check))

	var single, batch []loadResult
	offset, nb := 0, 0
	for rep := 0; rep < tierReps; rep++ {
		lr := closedLoop(clients, r.phase(tierClosedShare, tierReps), func(c, i int) bool {
			return search(c, (offset+c+i*clients)%nq)
		}, check)
		offset += lr.attempted
		r.count(lr)
		single = append(single, lr)
		r.cal.take(1)

		lr = closedLoop(1, r.phase(1-tierClosedShare, tierReps), func(c, _ int) bool {
			asked[c] = nb % len(batches)
			nb++
			if err := post(sv.tier.client, url+"/search/batch", batches[asked[c]], &bufs[c]); err != nil {
				r.note("front /search/batch: %v", err)
				return false
			}
			return true
		}, func(c, _ int) bool {
			lo := asked[c] * tierBatchQueries
			return checkBatchReply(bufs[c].Bytes(), ref[lo:lo+tierBatchQueries])
		})
		r.count(lr)
		batch = append(batch, lr)
		r.cal.take(1)
	}
	e2e["qps"] = rateMetric(single, 1)
	latencyMetrics(single, e2e)
	e2e["batch_qps"] = rateMetric(batch, tierBatchQueries)
	return nil
}
