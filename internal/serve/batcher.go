// Dynamic micro-batch scheduler for /search. Under concurrency, the most
// expensive fixed cost of every request — the routing model's forward pass —
// can be amortized across requests: searches enqueue into a bounded
// admission queue, a collector goroutine gathers up to BatchMax requests
// and executes them as one staged SearchBatch, answering each request over
// its own channel.
//
// Batching comes from queue pressure first (group commit): on waking, the
// collector drains whatever is already queued, and because waiting clients
// park on their answer channels, they yield the CPU to one another and the
// queue fills naturally — even on a single core, where truly simultaneous
// execution never happens. The BatchWindow deadline is a bounded extra
// wait to grow a batch when more requests are known to be in flight but
// not yet queued; a request with no in-flight company is flushed
// immediately and never waits the window, so single-client latency is
// unchanged up to two channel handoffs.
//
// The scheduler never changes answers: SearchBatch is test-pinned
// bit-identical to looped single Search.
//
// State machine of the collector: IDLE —(first item)→ drain queued
// —(BatchMax reached: flush "full" | every in-flight request already
// collected: flush "fast")→ IDLE, else COLLECTING —(BatchMax: flush
// "full" | window deadline: flush "window" | shutdown: flush "drain")→
// IDLE. Close() drains the queue before the collector exits, so every
// admitted request is answered; a closed or full queue degrades the
// caller to direct single-query execution, never to an error.
package serve

import (
	"runtime"
	"sync"
	"time"

	usp "repro"
	"repro/internal/telemetry"
)

// batchItem is one queued /search request. rerankK is pre-resolved against
// the server default so batching never changes its meaning.
type batchItem struct {
	vec     []float32
	k       int
	probes  int
	rerankK int
	done    chan batchOut // buffered; the collector always answers exactly once
}

// batchOut is the scheduler's answer to one request. eng is the engine the
// batch executed against, so the handler reports the matching IDOffset even
// across a concurrent /reload.
type batchOut struct {
	res     []usp.Result
	scanned int
	eng     *engine
	err     error
}

type batcher struct {
	srv    *Server
	max    int
	window time.Duration

	queue chan *batchItem
	stop  chan struct{}
	done  chan struct{}

	// closed gates submit: it is flipped under the write lock, so after
	// close() observes the lock no enqueue can be in progress and the
	// collector's final drain is complete.
	mu     sync.RWMutex
	closed bool

	// Collector-owned staging (no synchronization needed).
	items []*batchItem
	vecs  [][]float32

	batchSize   *telemetry.Histogram
	flushFull   *telemetry.Counter
	flushFast   *telemetry.Counter
	flushWindow *telemetry.Counter
	flushDrain  *telemetry.Counter
}

// newBatcher starts a scheduler of batches of up to max requests. Its
// admission queue holds four batches, so a burst can queue while the
// collector flushes; past that, requests execute directly.
func newBatcher(srv *Server, max int, window time.Duration) *batcher {
	reg := srv.reg
	b := &batcher{
		srv:    srv,
		max:    max,
		window: window,
		queue:  make(chan *batchItem, 4*max),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		batchSize: reg.Histogram("usp_batch_size", "",
			"Requests per micro-batch scheduler flush.", 1),
		flushFull: reg.Counter("usp_batch_flush_total", `reason="full"`,
			"Micro-batch flushes by trigger."),
		flushFast: reg.Counter("usp_batch_flush_total", `reason="fast"`,
			"Micro-batch flushes by trigger."),
		flushWindow: reg.Counter("usp_batch_flush_total", `reason="window"`,
			"Micro-batch flushes by trigger."),
		flushDrain: reg.Counter("usp_batch_flush_total", `reason="drain"`,
			"Micro-batch flushes by trigger."),
	}
	go b.run()
	return b
}

// submit enqueues a request and blocks for its answer. ok=false means the
// scheduler did not admit it (queue full or shutting down) and the caller
// must execute directly.
func (b *batcher) submit(vec []float32, k, probes, rerankK int) (batchOut, bool) {
	it := &batchItem{vec: vec, k: k, probes: probes, rerankK: rerankK, done: make(chan batchOut, 1)}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return batchOut{}, false
	}
	select {
	case b.queue <- it:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		return batchOut{}, false
	}
	return <-it.done, true
}

// close stops the collector and waits for it to answer everything admitted.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	<-b.done
}

// run is the collector loop: idle until a first request arrives, gather
// what queue pressure already delivered, then — only if more requests are
// known to be in flight — keep gathering until the batch is full or the
// window deadline fires, then execute.
func (b *batcher) run() {
	defer close(b.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case it := <-b.queue:
			b.items = append(b.items[:0], it)
			// Yield once before gathering: the enqueue that woke this
			// goroutine scheduled it ahead of every other runnable
			// client (runnext priority), so on a single P the queue
			// would always look empty here. One Gosched lets runnable
			// clients enqueue first, which is what lets batches form at
			// all when GOMAXPROCS=1; with a lone client it costs one
			// scheduler round trip, not the window.
			runtime.Gosched()
			flush, stopping := b.gather(timer)
			flush.Inc()
			b.execute(b.items)
			if stopping {
				b.drain()
				return
			}
		case <-b.stop:
			b.drain()
			return
		}
	}
}

// gather grows b.items (holding >= 1 item) until a flush trigger fires,
// returning the trigger's counter and whether shutdown was requested.
// Each round prefers what queue pressure already delivered, then checks
// whether waiting can help at all, and only then blocks on the window.
func (b *batcher) gather(timer *time.Timer) (flush *telemetry.Counter, stopping bool) {
	armed := false
	defer func() {
		if armed && !timer.Stop() {
			<-timer.C
		}
	}()
	for {
		if len(b.items) >= b.max {
			return b.flushFull, false
		}
		// Group commit: take everything already queued for free.
		select {
		case it := <-b.queue:
			b.items = append(b.items, it)
			continue
		default:
		}
		// If no request beyond this batch is in flight, the window cannot
		// grow it — flush now so a lone request never waits. (The read is
		// racy only in the safe direction: an arrival between it and the
		// flush catches the next batch.)
		if int(b.srv.inflight.Load()) <= len(b.items) {
			return b.flushFast, false
		}
		if !armed {
			timer.Reset(b.window)
			armed = true
		}
		select {
		case it := <-b.queue:
			b.items = append(b.items, it)
		case <-timer.C:
			armed = false
			return b.flushWindow, false
		case <-b.stop:
			return b.flushDrain, true
		}
	}
}

// drain answers whatever is still queued at shutdown. closed was flipped
// under the write lock before stop closed, so no new enqueue can race this.
func (b *batcher) drain() {
	b.items = b.items[:0]
	for {
		select {
		case it := <-b.queue:
			b.items = append(b.items, it)
		default:
			if len(b.items) > 0 {
				b.flushDrain.Inc()
				b.execute(b.items)
			}
			return
		}
	}
}

// execute answers one collected batch. Items are grouped by
// (k, probes, rerank_k, dim) — parameters SearchBatch applies batch-wide —
// and each group runs as one staged SearchBatch against the engine current
// at flush time. Grouping by dim also isolates a wrong-width vector's 400
// to its own group instead of failing innocent neighbors.
func (b *batcher) execute(items []*batchItem) {
	b.batchSize.Observe(uint64(len(items)))
	for lo := 0; lo < len(items); {
		head := items[lo]
		hi := lo + 1
		for i := hi; i < len(items); i++ {
			it := items[i]
			if it.k == head.k && it.probes == head.probes && it.rerankK == head.rerankK &&
				len(it.vec) == len(head.vec) {
				items[hi], items[i] = items[i], items[hi]
				hi++
			}
		}
		b.vecs = b.vecs[:0]
		for _, it := range items[lo:hi] {
			b.vecs = append(b.vecs, it.vec)
		}
		eng := b.srv.eng.Load()
		res, scanned, err := eng.ix.SearchBatchScanned(b.vecs, head.k,
			usp.SearchOptions{Probes: head.probes, RerankK: head.rerankK})
		for i, it := range items[lo:hi] {
			if err != nil {
				it.done <- batchOut{err: err}
				continue
			}
			it.done <- batchOut{res: res[i], scanned: scanned[i], eng: eng}
		}
		lo = hi
	}
}
