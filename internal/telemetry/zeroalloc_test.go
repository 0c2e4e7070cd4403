package telemetry

import (
	"testing"
	"time"
)

// Recording must be allocation-free: these metrics sit inside the query
// engine's 0 allocs/op steady state, so any allocation here would show up
// as a per-query regression.
func TestRecordingAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("z_total", "", "")
	g := r.Gauge("z_gauge", "", "")
	h := r.Histogram("z_lat_seconds", "", "", NanosToSeconds)
	start := time.Now()

	if a := testing.AllocsPerRun(1000, func() { c.Add(3) }); a != 0 {
		t.Errorf("Counter.Add allocates %v/op", a)
	}
	if a := testing.AllocsPerRun(1000, func() { g.Set(1.25) }); a != 0 {
		t.Errorf("Gauge.Set allocates %v/op", a)
	}
	if a := testing.AllocsPerRun(1000, func() { h.Observe(123_456) }); a != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", a)
	}
	if a := testing.AllocsPerRun(1000, func() { h.ObserveN(123_456, 256) }); a != 0 {
		t.Errorf("Histogram.ObserveN allocates %v/op", a)
	}
	if a := testing.AllocsPerRun(1000, func() { h.ObserveDuration(time.Since(start)) }); a != 0 {
		t.Errorf("Histogram.ObserveDuration allocates %v/op", a)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("b_total", "", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("b_lat_seconds", "", "", NanosToSeconds)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i)*2654435761 + 17)
	}
}
