package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99, 100}, {10, 10}, {1, 10}, {100, 100}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentileChoice(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{1000, 99, 99},       // exactly ten beyond p99
		{999, 99, 90},        // nine beyond p99: step down
		{100000, 100, 99.99}, // ten beyond p99.99
		{100000, 99, 99},     // the caller's limit caps it
		{20000, 100, 99.9},
		{100, 99, 90},
		{15, 99, 50}, // nothing supports a tail: the median is all there is
		{0, 99, 50},
	} {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.limit, got, c.want)
		}
	}
	for _, p := range tailLadder {
		for n := 1; n < 3000; n += 7 {
			if got := tailPercentile(n, p); got != 50 && n-rank(n, got) < minBeyond {
				t.Fatalf("tailPercentile(%d, %g) = %g leaves %d samples beyond", n, p, got, n-rank(n, got))
			}
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which is
// what the acceptance check computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("ten values: got %g, %g, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{7, 1, 5, 3, 2, 6, 4})
	if q1 != 2 || q3 != 6 {
		t.Errorf("seven values: got %g, %g, want 2, 6", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("two values: got %g, %g, want 0.5, 3.5", q1, q3)
	}
	if got := spread([]float64{90, 100, 110, 95, 105, 100, 100}); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("spread = %g, want 0.10", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// fixedSchedule returns evenly spaced due offsets at the given rate over dur.
func fixedSchedule(rate float64, dur time.Duration) []int64 {
	sched := make([]int64, int(rate*dur.Seconds()))
	for i := range sched {
		sched[i] = int64(float64(i) / rate * 1e9)
	}
	return sched
}

func TestPoissonScheduleReproducibleFromSeed(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(5)), 1000, 2*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(5)), 1000, 2*time.Second)
	c := poissonSchedule(rand.New(rand.NewSource(6)), 1000, 2*time.Second)
	if !slices.Equal(a, b) {
		t.Error("the same seed gave two different schedules")
	}
	if slices.Equal(a, c) {
		t.Error("two seeds gave the same schedule")
	}
	if !slices.IsSorted(a) {
		t.Error("due times are not ascending")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals in 2 s at 1000/s", n)
	}
	if last := a[len(a)-1]; last >= int64(2*time.Second) {
		t.Errorf("an arrival at %v lies beyond the schedule's end", time.Duration(last))
	}
}

// An open loop charges a stall to every request that came due during it:
// latency counts from the due time, and the generator's own lateness is
// reported beside it.
func TestOpenLoopCountsFromDueTimeAgainstStalledServer(t *testing.T) {
	const stall = 40 * time.Millisecond
	sched := fixedSchedule(1000, 30*time.Millisecond) // 30 requests, 1 ms apart
	res := openLoop(1, sched, time.Second, func(_, i int) bool {
		if i == 2 {
			time.Sleep(stall) // the server stops answering
		}
		return true
	}, nil)
	if res.attempted != len(sched) || res.failed != 0 || len(res.lat) != len(sched) {
		t.Fatalf("attempted %d, failed %d, %d latencies; want %d, 0, %d", res.attempted, res.failed, len(res.lat), len(sched), len(sched))
	}
	// Request 2 itself took the stall; request 3 was due 1 ms into it and
	// had to wait out the rest, though the server then answered at once.
	if got := time.Duration(res.lat[2]); got < stall {
		t.Errorf("stalled request's latency %v, want at least %v", got, stall)
	}
	if got := time.Duration(res.lat[3]); got < stall-2*time.Millisecond {
		t.Errorf("latency of the request due during the stall is %v: not counted from its due time", got)
	}
	if got := time.Duration(res.late[3]); got < stall-2*time.Millisecond {
		t.Errorf("lateness of the request due during the stall is %v, want about %v", got, stall)
	}
	// A closed loop would have sent request 3 after the stall and seen no
	// delay at all; here every request due inside the stall shows it.
	delayed := 0
	for _, l := range res.lat {
		if time.Duration(l) > 5*time.Millisecond {
			delayed++
		}
	}
	if delayed < 25 {
		t.Errorf("%d requests show the stall, want the ~28 that came due during it", delayed)
	}
}

func TestOpenLoopAbandonsWhatItCannotSend(t *testing.T) {
	sched := fixedSchedule(1000, 20*time.Millisecond)
	res := openLoop(1, sched, 5*time.Millisecond, func(_, i int) bool {
		time.Sleep(10 * time.Millisecond) // ten times slower than the arrivals
		return i != 0                     // and the first answer is wrong
	}, nil)
	if res.attempted != len(sched) {
		t.Fatalf("attempted %d, want all %d scheduled", res.attempted, len(sched))
	}
	if res.unsent == 0 || res.unsent >= len(sched) {
		t.Errorf("unsent = %d of %d, want some but not all", res.unsent, len(sched))
	}
	if res.failed != res.unsent+1 {
		t.Errorf("failed = %d, want the %d unsent plus the one wrong answer", res.failed, res.unsent)
	}
	if len(res.lat) != len(sched)-res.unsent {
		t.Errorf("%d latencies for %d sent requests", len(res.lat), len(sched)-res.unsent)
	}
}

func TestClosedLoopCountsFailuresAndChecks(t *testing.T) {
	res := closedLoop(2, 20*time.Millisecond,
		func(_, i int) bool { time.Sleep(time.Millisecond); return i != 1 },
		func(_, i int) bool { return i != 2 })
	if res.attempted < 6 || len(res.lat) != res.attempted || len(res.ends) != res.attempted {
		t.Fatalf("attempted %d with %d latencies", res.attempted, len(res.lat))
	}
	if res.failed != 4 { // per client: operation 1 failed, answer 2 was wrong
		t.Errorf("failed = %d, want 4", res.failed)
	}
	if rate := res.perSecond(); rate <= 0 || rate > 2100 {
		t.Errorf("rate %g/s from two clients at 1 ms per operation", rate)
	}
}

// A span's self time is its duration minus what its children cover, with
// overlapping children counted once and children clipped to the parent.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a by 10
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs 20 past the root
		{Name: "leaf", Parent: 1, Start: 15, End: 20},
		{Name: "other", Parent: -1, Start: 200, End: 230},
	}
	want := []int64{100 - (30 + 20 + 10), 30 - 5, 30, 30, 5, 30}
	if got := selfTimes(spans, 0); !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	// A phase's slice of a longer trace names parents by their trace index.
	shifted := slices.Clone(spans)
	for i := range shifted {
		if shifted[i].Parent >= 0 {
			shifted[i].Parent += 1000
		}
	}
	if got := selfTimes(shifted, 1000); !slices.Equal(got, want) {
		t.Errorf("self times of a trace slice %v, want %v", got, want)
	}
	st := summarize(spans, 0)
	if got := st.self["root"]; len(got) != 1 || got[0] != 40 {
		t.Errorf("summarized root self time %v, want [40]", got)
	}
	if got := st.p50us("other"); got != 0.03 {
		t.Errorf("p50 of 'other' = %g us, want 0.03", got)
	}
}

func TestTracerRecordsAndDropsWhenFull(t *testing.T) {
	tr := newTracer(3)
	root := tr.begin("root", -1, 7)
	kid := tr.begin("kid", root, 7)
	tr.end(kid, 5)
	tr.end(root, 1)
	tr.begin("third", -1, 8)
	if i := tr.begin("fourth", -1, 9); i != -1 {
		t.Errorf("a full tracer handed out span %d", i)
	}
	tr.end(-1, 0) // closing a dropped span is a no-op
	got := tr.recorded()
	if len(got) != 3 || tr.dropped.Load() != 1 {
		t.Fatalf("%d spans recorded, %d dropped; want 3, 1", len(got), tr.dropped.Load())
	}
	if got[1].Parent != root || got[1].Req != 7 || got[1].N != 5 || got[1].End < got[1].Start || got[0].End < got[1].End {
		t.Errorf("spans %+v", got[:2])
	}
	var none *tracer
	none.end(none.begin("x", -1, 0), 0) // a nil tracer records nothing and does not panic
}

func TestSplitByCompactionWindows(t *testing.T) {
	lat := []int64{10, 10, 10, 10}
	ends := []int64{20, 60, 105, 300} // reads span [10,20] [50,60] [95,105] [290,300]
	in, out := splitByWindows(lat, ends, []window{{55, 100}})
	if len(in) != 2 || len(out) != 2 {
		t.Errorf("%d reads inside, %d outside; want 2 and 2", len(in), len(out))
	}
}

// On a host at half speed everything took twice as long as it would have.
func TestCalibratedScalesDurationsAndRates(t *testing.T) {
	for _, c := range []struct {
		v         e2eValue
		want, raw float64
	}{
		{newE2E("s", []float64{2, 4, 6}, 3), 2, 4},
		{newE2E("us", []float64{10}, 1), 5, 10},
		{newE2E("1/s", []float64{100, 200, 300}, 3), 400, 200},
	} {
		if v := calibrated(c.v, 0.5); v.Median != c.want || v.Raw != c.raw || median(v.Reps) != v.Median {
			t.Errorf("%s: median %g, wall-clock %g, reps %v; want %g and %g", v.Unit, v.Median, v.Raw, v.Reps, c.want, c.raw)
		}
	}
}

// The reference computation is the same work in every run.
func TestCalibratorTimesFixedWork(t *testing.T) {
	a, b := newCalibrator(), newCalibrator()
	if x, y := a.round(), b.round(); x != y || x == 0 {
		t.Errorf("two calibrators computed %g and %g", x, y)
	}
	a.take(2)
	if len(a.speeds) != 2 || !(a.speed() > 0) {
		t.Errorf("speed samples %v", a.speeds)
	}
	if a.reset(); len(a.speeds) != 0 {
		t.Errorf("samples left after a reset: %v", a.speeds)
	}
}
