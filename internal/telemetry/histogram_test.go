package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestBucketIndexBounds: every probe value must land in a bucket whose
// bounds contain it, across the exact range, octave boundaries, and the
// extremes of uint64.
func TestBucketIndexBounds(t *testing.T) {
	probes := []uint64{0, 1, 7, 15, 16, 17, 31, 32, 33, 255, 256, 1023, 1 << 20, 1<<20 + 3}
	for e := histMinExp; e < 64; e++ {
		v := uint64(1) << uint(e)
		probes = append(probes, v-1, v, v+1)
	}
	probes = append(probes, math.MaxUint64-1, math.MaxUint64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		probes = append(probes, rng.Uint64())
	}
	for _, v := range probes {
		i := bucketIndex(v)
		if i < 0 || i >= histNumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		lo, hi := bucketBounds(i)
		// The last bucket's hi saturates at MaxUint64 and is inclusive.
		if v < lo || (v >= hi && !(hi == math.MaxUint64 && v <= hi)) {
			t.Fatalf("bucketIndex(%d) = %d with bounds [%d, %d)", v, i, lo, hi)
		}
	}
}

// TestBucketBoundsContiguousMonotone: walking every bucket index must yield
// adjacent, strictly increasing ranges covering uint64 with no gaps.
func TestBucketBoundsContiguousMonotone(t *testing.T) {
	prevHi := uint64(0)
	for i := 0; i < histNumBuckets; i++ {
		lo, hi := bucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d lo = %d, want %d (contiguity)", i, lo, prevHi)
		}
		if hi <= lo {
			t.Fatalf("bucket %d empty or inverted: [%d, %d)", i, lo, hi)
		}
		// Index must round-trip through the lower bound.
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(bucketBounds(%d).lo) = %d", i, got)
		}
		prevHi = hi
	}
	if prevHi != math.MaxUint64 {
		t.Fatalf("last bucket hi = %d, want MaxUint64", prevHi)
	}
}

// TestQuantileMatchesExactSort: on random samples from several shapes, the
// histogram quantile must agree with the exact sorted-sample quantile to
// within the scheme's bound (one sub-bucket ≈ 6.25% relative, plus the
// exact-vs-interpolated rank off-by-one inside the landing bucket).
func TestQuantileMatchesExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := map[string]func() uint64{
		// Typical latency shapes: tight cluster, heavy tail, wide uniform.
		"lognormal": func() uint64 { return uint64(20_000 * math.Exp(rng.NormFloat64())) },
		"uniform":   func() uint64 { return uint64(rng.Int63n(1_000_000)) },
		"bimodal": func() uint64 {
			if rng.Intn(10) == 0 {
				return 500_000 + uint64(rng.Int63n(100_000))
			}
			return 1_000 + uint64(rng.Int63n(1_000))
		},
		"small": func() uint64 { return uint64(rng.Int63n(30)) },
	}
	for name, gen := range shapes {
		h := NewHistogram("t", "", "", 1)
		const n = 20_000
		samples := make([]uint64, n)
		for i := range samples {
			samples[i] = gen()
			h.Observe(samples[i])
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999} {
			rank := int(math.Ceil(q * n))
			if rank < 1 {
				rank = 1
			}
			exact := float64(samples[rank-1])
			got := h.Quantile(q)
			// One sub-bucket of relative width 1/16, plus 1 for the exact
			// low range where buckets are unit-width.
			tol := exact/16 + 1
			if math.Abs(got-exact) > tol {
				t.Errorf("%s q=%g: histogram %.1f, exact %.1f (tol %.1f)", name, q, got, exact, tol)
			}
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	h := NewHistogram("t", "", "", 1)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	h.Observe(42)
	for _, q := range []float64{0, 0.5, 1} {
		got := h.Quantile(q)
		lo, hi := bucketBounds(bucketIndex(42))
		if got < float64(lo) || got > float64(hi) {
			t.Fatalf("single-sample quantile(%g) = %v, want within [%d, %d]", q, got, lo, hi)
		}
	}
	if h.Count() != 1 || h.Sum() != 42 {
		t.Fatalf("count/sum = %d/%d, want 1/42", h.Count(), h.Sum())
	}
}

func TestObserveDurationClampsNegative(t *testing.T) {
	h := NewHistogram("t", "", "", NanosToSeconds)
	h.ObserveDuration(-5 * time.Second)
	if h.Count() != 1 || h.Sum() != 0 {
		t.Fatalf("negative duration recorded as count=%d sum=%d, want 1/0", h.Count(), h.Sum())
	}
}

// TestObserveNEqualsRepeatedObserve: one ObserveN(v, n) leaves the
// histogram exactly as n calls of Observe(v) do — count, sum, every bucket
// and so every quantile — including n = 0.
func TestObserveNEqualsRepeatedObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bulk := NewHistogram("t", "", "", 1)
	loop := NewHistogram("t", "", "", 1)
	for i := 0; i < 300; i++ {
		v, n := uint64(rng.Int63n(1<<uint(1+rng.Intn(40)))), uint64(rng.Intn(300))
		bulk.ObserveN(v, n)
		for j := uint64(0); j < n; j++ {
			loop.Observe(v)
		}
	}
	if bulk.Count() != loop.Count() || bulk.Sum() != loop.Sum() {
		t.Fatalf("ObserveN count/sum %d/%d != looped Observe %d/%d",
			bulk.Count(), bulk.Sum(), loop.Count(), loop.Sum())
	}
	for i := range bulk.buckets {
		if b, l := bulk.buckets[i].Load(), loop.buckets[i].Load(); b != l {
			t.Fatalf("bucket %d: ObserveN %d != looped Observe %d", i, b, l)
		}
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if b, l := bulk.Quantile(q), loop.Quantile(q); b != l {
			t.Fatalf("q=%v: ObserveN %v != looped Observe %v", q, b, l)
		}
	}
}
