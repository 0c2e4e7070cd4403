package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent is the index of the span that caused this one (-1 for a root).
// N carries the count read at the same boundary (candidates, rows, bytes).
type span struct {
	Name   string
	Parent int32
	Req    int32
	Start  int64 // ns since the tracer's epoch
	End    int64
	N      int64
}

// tracer records spans around the benchmark's calls into each layer. Spans
// live in one preallocated slice until the run ends; begin reserves a slot
// with one atomic add, so concurrent clients may trace without a lock. A nil
// tracer records nothing, which is how the untraced passes run the same code.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int32
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// begin opens a span and returns its index, or -1 when the tracer is nil or
// full.
func (t *tracer) begin(name string, parent int32, req int) int32 {
	if t == nil {
		return -1
	}
	i := t.next.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{Name: name, Parent: parent, Req: int32(req), Start: int64(time.Since(t.epoch))}
	return i
}

// end closes span i, recording n as its count.
func (t *tracer) end(i int32, n int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
	t.spans[i].N = int64(n)
}

// recorded returns the spans opened so far.
func (t *tracer) recorded() []span {
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children are counted once). base is
// the trace index of spans[0]: a phase's slice of the trace still names its
// parents by their index in the whole trace.
func selfTimes(spans []span, base int) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if p := s.Parent - int32(base); p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		slices.SortFunc(kids, func(a, b int32) int { return int(spans[a].Start - spans[b].Start) })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// spanStats holds the finished spans' figures by span name.
type spanStats struct {
	dur  map[string][]int64 // durations, sorted ascending
	self map[string][]int64 // self times, sorted ascending
	n    map[string]int64   // summed counts
}

// summarize groups spans by name; base is as in selfTimes.
func summarize(spans []span, base int) spanStats {
	st := spanStats{dur: map[string][]int64{}, self: map[string][]int64{}, n: map[string]int64{}}
	self := selfTimes(spans, base)
	for i, s := range spans {
		if s.End == 0 {
			continue // never closed: the run was cut short
		}
		st.dur[s.Name] = append(st.dur[s.Name], s.End-s.Start)
		st.self[s.Name] = append(st.self[s.Name], self[i])
		st.n[s.Name] += s.N
	}
	for _, m := range []map[string][]int64{st.dur, st.self} {
		for _, v := range m {
			slices.Sort(v)
		}
	}
	return st
}

// p50us is the median duration of the named span in microseconds.
func (st spanStats) p50us(name string) float64 { return nsToUs(percentile(st.dur[name], 50)) }

// perCount is the named span's total duration over its total count, in ns.
func (st spanStats) perCount(name string) float64 {
	var total int64
	for _, d := range st.dur[name] {
		total += d
	}
	if st.n[name] == 0 {
		return 0
	}
	return float64(total) / float64(st.n[name])
}

// writeTrace writes one JSON object per span, in the order spans were opened.
func writeTrace(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("writing trace: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID      int    `json:"id"`
		Parent  int32  `json:"parent"`
		Req     int32  `json:"req"`
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		N       int64  `json:"n"`
	}
	for i, s := range spans {
		if err := enc.Encode(line{i, s.Parent, s.Req, s.Name, s.Start, s.End, s.N}); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
