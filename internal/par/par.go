// Package par provides small parallel-execution helpers used across the
// library: chunked parallel-for over index ranges, a parallel map-reduce and
// a run-side-by-side helper.
//
// All helpers degrade gracefully to sequential execution when GOMAXPROCS is
// 1. ForChunks and MapReduce also run any range shorter than 1024
// items inline on the calling goroutine, so hot paths pay no goroutine
// overhead on tiny inputs; a handful of expensive items (models, codebooks,
// subspaces) needs ForChunksMin with a small minimum span, or Do.
package par

import (
	"runtime"
	"sync"
)

// minParallelSpan is the smallest index range worth splitting across
// goroutines. Below this the scheduling overhead dominates.
const minParallelSpan = 1024

// Workers returns the degree of parallelism helpers in this package use.
func Workers() int { return runtime.GOMAXPROCS(0) }

// ForChunks splits [0, n) into contiguous chunks and runs fn(lo, hi) on each,
// potentially in parallel. fn must be safe to call concurrently for disjoint
// ranges.
func ForChunks(n int, fn func(lo, hi int)) {
	ForChunksMin(n, minParallelSpan, fn)
}

// ForChunksMin is ForChunks with an explicit sequential-fallback threshold:
// ranges shorter than minSpan run on the calling goroutine. Batch query
// serving uses minSpan = 1 — a request of even a handful of queries is worth
// fanning out when each query costs a model forward pass plus a candidate
// scan, which is orders of magnitude above the scheduling overhead the
// default threshold guards against.
func ForChunksMin(n, minSpan int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w <= 1 || n < minSpan || n < 2 {
		fn(0, n)
		return
	}
	if w > n {
		w = n
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Do runs the given functions, potentially concurrently, and waits for all of
// them to finish.
func Do(fns ...func()) {
	if len(fns) == 0 {
		return
	}
	if Workers() <= 1 || len(fns) == 1 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		go func(f func()) {
			defer wg.Done()
			f()
		}(fn)
	}
	wg.Wait()
}

// MapReduce computes a per-chunk partial result with mapFn and folds the
// partials (in deterministic chunk order) with reduceFn. It is used for
// parallel reductions such as loss sums where floating-point determinism for
// a fixed GOMAXPROCS matters.
func MapReduce[T any](n int, mapFn func(lo, hi int) T, reduceFn func(a, b T) T) T {
	var zero T
	if n <= 0 {
		return zero
	}
	w := Workers()
	if w <= 1 || n < minParallelSpan {
		return mapFn(0, n)
	}
	if w > n {
		w = n
	}
	chunk := (n + w - 1) / w
	nChunks := (n + chunk - 1) / chunk
	partials := make([]T, nChunks)
	var wg sync.WaitGroup
	for c := 0; c < nChunks; c++ {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			partials[c] = mapFn(lo, hi)
		}(c, lo, hi)
	}
	wg.Wait()
	acc := partials[0]
	for _, p := range partials[1:] {
		acc = reduceFn(acc, p)
	}
	return acc
}
