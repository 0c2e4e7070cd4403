package main

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// benchEpoch anchors every timestamp the harness compares across goroutines.
var benchEpoch = time.Now()

// now is nanoseconds since benchEpoch on the monotonic clock.
func now() int64 { return int64(time.Since(benchEpoch)) }

// loadResult is what one load phase observed. lat holds one exact latency per
// completed operation in nanoseconds — from the call in a closed loop, from
// the due time in an open loop — and ends the matching completion times. late
// (open loop only) is how long after its due time each operation started.
type loadResult struct {
	lat, ends, late   []int64
	attempted, failed int
	// unsent counts the failed operations an open loop abandoned unsent.
	unsent  int
	elapsed time.Duration
}

func (r *loadResult) merge(o loadResult) {
	r.lat = append(r.lat, o.lat...)
	r.ends = append(r.ends, o.ends...)
	r.late = append(r.late, o.late...)
	r.attempted += o.attempted
	r.failed += o.failed
}

// perSecond is the rate of operations that succeeded.
func (r loadResult) perSecond() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / r.elapsed.Seconds()
}

// closedLoop runs op back to back from `clients` goroutines until dur has
// passed: each client issues its next operation only when the previous one
// has completed, so a slower system receives less load. op is timed and
// reports whether the operation succeeded; check (may be nil) then judges the
// answer with the clock stopped. i counts the client's own operations from 0.
func closedLoop(clients int, dur time.Duration, op, check func(client, i int) bool) loadResult {
	parts := make([]loadResult, clients)
	start := now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &parts[c]
			r.lat, r.ends = make([]int64, 0, 1<<16), make([]int64, 0, 1<<16)
			for i := 0; ; i++ {
				t0 := now()
				ok := op(c, i)
				t1 := now()
				r.lat = append(r.lat, t1-t0)
				r.ends = append(r.ends, t1)
				r.attempted++
				if !ok || (check != nil && !check(c, i)) {
					r.failed++
				}
				if t1-start >= int64(dur) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	total := loadResult{elapsed: time.Duration(now() - start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// poissonSchedule returns the due offsets (ns from the phase start) of a
// Poisson arrival process of the given rate over dur: independent users, not
// callers waiting on a reply. The same rng state gives the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []int64 {
	var sched []int64
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		sched = append(sched, int64(t*1e9))
	}
	return sched
}

// spinWindow is how far before a due time the generator stops sleeping and
// starts yielding: a sleeping thread wakes up to ~100us late, which would
// otherwise be billed to the system as latency.
const spinWindow = 100 * time.Microsecond

// waitUntil returns once the clock has reached due (ns since benchEpoch).
func waitUntil(due int64) {
	for {
		d := time.Duration(due - now())
		switch {
		case d <= 0:
			return
		case d > spinWindow:
			preciseSleep(d - spinWindow)
		default:
			runtime.Gosched()
		}
	}
}

// openLoop issues operation i at start+sched[i] whether or not earlier ones
// have completed, from at most `workers` goroutines. Latency counts from the
// due time, so the wait a stall imposes on later operations is measured and
// not omitted; late reports how far behind the generator itself ran. An
// operation still unsent `grace` after the last due time is abandoned and
// counted as failed: it would have missed any latency limit. op and check
// are as in closedLoop.
func openLoop(workers int, sched []int64, grace time.Duration, op, check func(worker, i int) bool) loadResult {
	n := len(sched)
	if n == 0 {
		return loadResult{}
	}
	lat := make([]int64, n)
	ends := make([]int64, n)
	late := make([]int64, n)
	state := make([]int8, n) // 0 unsent, 1 ok, 2 wrong
	start := now()
	cutoff := start + sched[n-1] + int64(grace)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || now() > cutoff {
					return
				}
				due := start + sched[i]
				waitUntil(due)
				t0 := now()
				ok := op(w, i)
				t1 := now()
				lat[i], ends[i], late[i] = t1-due, t1, t0-due
				state[i] = 1
				if !ok || (check != nil && !check(w, i)) {
					state[i] = 2
				}
			}
		}(w)
	}
	wg.Wait()
	res := loadResult{attempted: n, elapsed: time.Duration(now() - start)}
	for i, st := range state {
		if st == 0 {
			res.failed++
			res.unsent++
			continue
		}
		if st == 2 {
			res.failed++
		}
		res.lat = append(res.lat, lat[i])
		res.ends = append(res.ends, ends[i])
		res.late = append(res.late, late[i])
	}
	return res
}
