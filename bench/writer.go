package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	usp "repro"
	"repro/internal/dataset"
)

// deleteLag is how many benchmark-added rows stay live before the oldest is
// deleted, so live rows stay about constant while writes flow.
const deleteLag = 500

// compactAfter is the pending-mutation count at which the index compacts in
// the background (usp.Options.CompactAfter's default), and at which the
// writer compacts an index built with automatic compaction off.
const compactAfter = 1024

// addedRow is one live benchmark-added row: the id Add returned and the pool
// vector it carries.
type addedRow struct{ id, poolIdx int }

// window is one compaction's interval in ns since benchEpoch.
type window struct{ start, end int64 }

// writer is churn's open-loop write load: one goroutine issuing `rate` Add
// and `rate` Delete per second on a fixed schedule, each Delete removing the
// oldest row the writer itself added. Every probeEvery-th write checks its
// own effect: an added vector must come back as rank 1 at distance 0, a
// deleted id must never come back.
type writer struct {
	ix     *usp.Index
	pool   [][]float32
	search usp.SearchOptions
	rate   int
	// manual makes the writer run Compact itself once compactAfter
	// mutations are pending, for an index built with CompactAfter < 0.
	manual bool

	stop chan struct{}
	done chan struct{}

	// Results, owned by the goroutine until done is closed.
	addLat            []int64 // Add latency from its due time
	deletes           int
	attempted, failed int
	notes             []string
	live              []addedRow // FIFO of rows added and not yet deleted
	windows           []window
}

func startWriter(ix *usp.Index, pool [][]float32, search usp.SearchOptions, rate int, manual bool) *writer {
	w := &writer{ix: ix, pool: pool, search: search, rate: rate, manual: manual,
		stop: make(chan struct{}), done: make(chan struct{})}
	go w.run()
	return w
}

// finish stops the writer and waits for it and any compaction it started.
func (w *writer) finish() {
	close(w.stop)
	<-w.done
}

func (w *writer) failf(format string, args ...any) {
	w.failed++
	if len(w.notes) < 8 {
		w.notes = append(w.notes, fmt.Sprintf(format, args...))
	}
}

func (w *writer) run() {
	defer close(w.done)
	compactions := w.ix.Telemetry().Counter("usp_compactions_total", "", "")
	var (
		manualBusy atomic.Bool
		manualWG   sync.WaitGroup
		inWindow   bool
		winStart   int64
		lastDone   = compactions.Value()
		writes     int
	)
	defer manualWG.Wait()
	start := now()
	period := int64(1e9) / int64(w.rate)
	for tick := 0; ; tick++ {
		select {
		case <-w.stop:
			return
		default:
		}
		due := start + int64(tick)*period
		waitUntil(due)

		poolIdx := tick % len(w.pool)
		vec := w.pool[poolIdx]
		id, err := w.ix.Add(vec)
		t1 := now()
		w.attempted++
		writes++
		if err != nil {
			w.failf("add: %v", err)
			continue
		}
		w.addLat = append(w.addLat, t1-due)
		w.live = append(w.live, addedRow{id, poolIdx})
		if writes%probeEvery == 0 {
			w.probeAdded(id, vec)
		}

		if len(w.live) > deleteLag {
			old := w.live[0]
			w.live = w.live[1:]
			err = w.ix.Delete(old.id)
			w.deletes++
			w.attempted++
			writes++
			if err != nil {
				w.failf("delete %d: %v", old.id, err)
			} else if writes%probeEvery == 0 {
				w.probeDeleted(old.id, w.pool[old.poolIdx])
			}
		}

		// Follow compactions from outside: one is due once compactAfter
		// mutations are pending and over when the engine's counter moves.
		lc := w.ix.Lifecycle()
		pending := lc.PendingInserts + lc.Tombstones
		if w.manual {
			if pending >= compactAfter && manualBusy.CompareAndSwap(false, true) {
				manualWG.Add(1)
				go func() {
					defer manualWG.Done()
					defer manualBusy.Store(false)
					c0 := now()
					w.ix.Compact()
					w.windows = append(w.windows, window{c0, now()})
				}()
			}
			continue
		}
		done := compactions.Value()
		switch {
		case inWindow && done > lastDone:
			w.windows = append(w.windows, window{winStart, now()})
			inWindow = false
		case !inWindow && pending >= compactAfter:
			inWindow, winStart = true, now()
		}
		lastDone = done
	}
}

// probeAdded checks that a vector just added is found as its own nearest
// neighbour at distance exactly 0.
func (w *writer) probeAdded(id int, vec []float32) {
	w.attempted++
	res, err := w.ix.Search(vec, topK, w.search)
	if err != nil || len(res) == 0 || res[0].ID != id || res[0].Distance != 0 {
		w.failf("added id %d not its own rank 1 at distance 0: %v %v", id, res, err)
	}
}

// probeDeleted checks that a deleted id is no longer returned.
func (w *writer) probeDeleted(id int, vec []float32) {
	w.attempted++
	res, err := w.ix.Search(vec, topK, w.search)
	if err != nil {
		w.failf("probe after delete %d: %v", id, err)
		return
	}
	for _, r := range res {
		if r.ID == id {
			w.failf("deleted id %d still returned", id)
			return
		}
	}
}

// liveRows returns the rows live after the writer finished — the base rows,
// which it never deletes, plus the added rows still in its FIFO — and the id
// each carries in the index.
func (w *writer) liveRows(base *dataset.Dataset) (*dataset.Dataset, []int) {
	live := dataset.New(base.N+len(w.live), base.Dim)
	copy(live.Data, base.Data)
	ids := make([]int, 0, live.N)
	for i := 0; i < base.N; i++ {
		ids = append(ids, i)
	}
	for i, a := range w.live {
		copy(live.Row(base.N+i), w.pool[a.poolIdx])
		ids = append(ids, a.id)
	}
	return live, ids
}

// splitByWindows separates read latencies into those whose read overlapped a
// compaction window and those that did not. ends[i] is when read i completed.
func splitByWindows(lat, ends []int64, windows []window) (in, out []int64) {
	for i, l := range lat {
		startAt := ends[i] - l
		overlapped := false
		for _, w := range windows {
			if startAt < w.end && ends[i] > w.start {
				overlapped = true
				break
			}
		}
		if overlapped {
			in = append(in, l)
		} else {
			out = append(out, l)
		}
	}
	return in, out
}
