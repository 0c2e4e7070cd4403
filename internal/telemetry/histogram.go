package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram buckets: log-linear over uint64 values, the HdrHistogram
// scheme reduced to its atomic essentials. Values below 2^histMinExp get
// one exact bucket each; above that, every power-of-two octave is split
// into 2^histSubBits equal sub-buckets, so the relative quantization error
// is bounded by 2^-histSubBits = 6.25% everywhere. The whole structure is
// one fixed array of atomic counters: recording is a single uncontended
// atomic add at a computed index, histograms merge by bucket-wise addition,
// and quantiles come from a cumulative walk with linear interpolation
// inside the landing bucket.
const (
	histMinExp  = 4 // values < 2^4 = 16 are exact
	histSubBits = 4
	histSub     = 1 << histSubBits
	// Exponents histMinExp..63 each contribute histSub buckets, after the
	// 2^histMinExp exact low buckets. 16 + 60*16 = 976 buckets ≈ 7.8 KB.
	histNumBuckets = histSub + (64-histMinExp)*histSub
)

// bucketIndex maps a recorded value to its bucket. For v < 16 the index is
// v itself; otherwise the octave (bit length) selects a 16-bucket block and
// the 4 bits after the leading one select the sub-bucket. Monotone in v.
func bucketIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 // histMinExp..63
	m := int((v >> (uint(e) - histSubBits)) & (histSub - 1))
	return histSub + (e-histMinExp)*histSub + m
}

// bucketBounds returns bucket i's value range [lo, hi). The last bucket's
// hi saturates at MaxUint64 (its true upper bound, 2^64, is unrepresentable).
func bucketBounds(i int) (lo, hi uint64) {
	if i < histSub {
		return uint64(i), uint64(i) + 1
	}
	e := histMinExp + (i-histSub)/histSub
	m := uint64((i - histSub) % histSub)
	width := uint64(1) << (uint(e) - histSubBits)
	lo = 1<<uint(e) + m*width
	if hi = lo + width; hi < lo { // 2^64 overflowed
		hi = math.MaxUint64
	}
	return lo, hi
}

// Histogram is a lock-free log-bucketed histogram of uint64 observations
// (typically nanosecond durations). Observe is one atomic add per field —
// no locks, no allocation — and is safe for any number of concurrent
// writers. Reads (Quantile, exposition) take per-bucket atomic snapshots
// and may be slightly stale under concurrent writes, never blocking them.
//
// The zero Histogram is NOT usable; construct with NewHistogram or register
// through a Registry.
type Histogram struct {
	d       desc
	scale   float64 // recorded units → exported units at exposition
	count   atomic.Uint64
	sum     atomic.Uint64 // sum of recorded values, in recorded units
	buckets [histNumBuckets]atomic.Uint64
}

// NewHistogram returns an unregistered histogram — for callers that want
// percentile tracking without exposition (uspquery). scale is
// only used if the histogram is later exposed; NanosToSeconds fits
// duration recording.
func NewHistogram(name, labels, help string, scale float64) *Histogram {
	return newHistogram(desc{name: name, labels: labels, help: help}, scale)
}

func newHistogram(d desc, scale float64) *Histogram {
	if scale <= 0 {
		scale = 1
	}
	return &Histogram{d: d, scale: scale}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveN records the value v n times: the state Observe(v) called n
// times leaves, for three atomic adds instead of 3n. A batch that charges
// each of its queries the same amortized latency records them in one call.
func (h *Histogram) ObserveN(v, n uint64) {
	h.buckets[bucketIndex(v)].Add(n)
	h.count.Add(n)
	h.sum.Add(v * n)
}

// ObserveDuration records a duration in nanoseconds (negative clamps to 0).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values, in recorded units.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// load copies the bucket array. Individual loads are atomic; the array as a
// whole is a monitoring-grade snapshot, not a linearizable one.
func (h *Histogram) load() (bkts [histNumBuckets]uint64, total uint64) {
	for i := range h.buckets {
		bkts[i] = h.buckets[i].Load()
		total += bkts[i]
	}
	return bkts, total
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) of the
// recorded values, in recorded units, with relative error bounded by the
// bucket width (6.25%) plus interpolation. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	bkts, total := h.load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, n := range bkts {
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := bucketBounds(i)
			frac := float64(rank-cum) / float64(n)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += n
	}
	// Unreachable: rank ≤ total and the loop covers every count.
	return 0
}

func (h *Histogram) meta() desc   { return h.d }
func (h *Histogram) kind() string { return "histogram" }

// writeSamples emits the Prometheus histogram series: cumulative _bucket
// lines at every octave boundary spanning the observed range (a compact,
// data-driven ladder ≤ 61 lines instead of one per internal bucket), then
// the mandatory +Inf, _sum, and _count.
func (h *Histogram) writeSamples(b []byte) []byte {
	bkts, total := h.load()
	if total > 0 {
		first, last := -1, -1
		for i, n := range bkts {
			if n > 0 {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		// Walk to the end of the octave containing the last observation, so
		// every sample sits under at least one finite le bound.
		end := (last/histSub+1)*histSub - 1
		var cum uint64
		for i := 0; i <= end; i++ {
			cum += bkts[i]
			// Octave upper boundaries sit after bucket 15, 31, 47, ... —
			// every histSub-th index ends an octave (the linear range is
			// one octave too: its boundary is 16 = 2^histMinExp).
			if (i+1)%histSub != 0 || i < first {
				continue
			}
			_, hi := bucketBounds(i)
			le := formatFloat(float64(hi) * h.scale)
			b = appendSample(b, h.d.name+"_bucket", joinLabels(h.d.labels, `le="`+le+`"`), formatUint(cum))
		}
	}
	b = appendSample(b, h.d.name+"_bucket", joinLabels(h.d.labels, `le="+Inf"`), formatUint(total))
	b = appendSample(b, h.d.name+"_sum", h.d.labels, formatFloat(float64(h.sum.Load())*h.scale))
	b = appendSample(b, h.d.name+"_count", h.d.labels, formatUint(total))
	return b
}

// jsonValue summarizes the histogram as count/sum plus the operational
// quantiles, all in exported units.
func (h *Histogram) jsonValue() any {
	return map[string]any{
		"count": h.Count(),
		"sum":   float64(h.Sum()) * h.scale,
		"p50":   h.Quantile(0.50) * h.scale,
		"p95":   h.Quantile(0.95) * h.scale,
		"p99":   h.Quantile(0.99) * h.scale,
	}
}
