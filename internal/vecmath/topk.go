package vecmath

import (
	"slices"
	"sort"
)

// Neighbor pairs an item index with a distance (or score). It is the unit of
// currency for all top-k selection in the library.
type Neighbor struct {
	Index int
	Dist  float32
}

// TopK maintains the k smallest neighbors seen so far under compareNeighbors
// — ascending distance, ties broken by ascending index — using a bounded
// max-heap: the root is the current worst retained neighbor, so a new
// candidate is admitted in O(log k) only when it beats the root. The
// retained set is the first k of everything pushed in that order, whatever
// order the pushes came in.
//
// The zero value is not usable; construct with NewTopK or NewTopKs.
type TopK struct {
	k    int
	heap []Neighbor // max-heap under compareNeighbors
}

// NewTopK returns a selector retaining the k nearest neighbors.
// k must be positive.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("vecmath: NewTopK requires k > 0")
	}
	return &TopK{k: k, heap: make([]Neighbor, 0, k)}
}

// NewTopKs returns n selectors retaining the k nearest neighbors each, all
// backed by one n·k buffer rather than one allocation per selector: the
// per-row lists of an all-pairs join. k must be positive.
func NewTopKs(n, k int) []TopK {
	if k <= 0 {
		panic("vecmath: NewTopKs requires k > 0")
	}
	buf := make([]Neighbor, n*k)
	ts := make([]TopK, n)
	for i := range ts {
		ts[i] = TopK{k: k, heap: buf[i*k : i*k : i*k+k]}
	}
	return ts
}

// Len reports how many neighbors are currently retained (≤ k).
func (t *TopK) Len() int { return len(t.heap) }

// Worst returns the largest retained distance, or +Inf semantics via ok=false
// when fewer than k neighbors have been pushed (meaning any candidate will be
// admitted).
func (t *TopK) Worst() (d float32, ok bool) {
	if len(t.heap) < t.k {
		return 0, false
	}
	return t.heap[0].Dist, true
}

// Push offers a candidate neighbor.
func (t *TopK) Push(index int, dist float32) {
	if len(t.heap) < t.k {
		t.heap = append(t.heap, Neighbor{index, dist})
		t.siftUp(len(t.heap) - 1)
		return
	}
	if compareNeighbors(Neighbor{index, dist}, t.heap[0]) >= 0 {
		return
	}
	t.heap[0] = Neighbor{index, dist}
	t.siftDown(0)
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if compareNeighbors(t.heap[parent], t.heap[i]) >= 0 {
			return
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

func (t *TopK) siftDown(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && compareNeighbors(t.heap[l], t.heap[largest]) > 0 {
			largest = l
		}
		if r < n && compareNeighbors(t.heap[r], t.heap[largest]) > 0 {
			largest = r
		}
		if largest == i {
			return
		}
		t.heap[i], t.heap[largest] = t.heap[largest], t.heap[i]
		i = largest
	}
}

// Sorted drains the selector and returns the retained neighbors ordered by
// ascending distance (ties broken by ascending index for determinism).
// The selector is empty afterwards and may be reused.
func (t *TopK) Sorted() []Neighbor {
	out := t.heap
	t.heap = make([]Neighbor, 0, t.k)
	sortNeighbors(out)
	return out
}

// AppendSorted appends the retained neighbors to dst ordered by ascending
// distance (ties broken by ascending index) and resets the selector, keeping
// its buffer. Unlike Sorted it performs no allocation beyond growing dst, so
// a selector + destination pair can be reused across queries allocation-free.
func (t *TopK) AppendSorted(dst []Neighbor) []Neighbor {
	slices.SortFunc(t.heap, compareNeighbors)
	dst = append(dst, t.heap...)
	t.heap = t.heap[:0]
	return dst
}

// Reset discards all retained neighbors, keeping capacity.
func (t *TopK) Reset() { t.heap = t.heap[:0] }

// SetK changes the retention count for subsequent pushes, discarding any
// currently retained neighbors but keeping the buffer when it is large
// enough. k must be positive.
func (t *TopK) SetK(k int) {
	if k <= 0 {
		panic("vecmath: TopK.SetK requires k > 0")
	}
	t.k = k
	if cap(t.heap) < k {
		t.heap = make([]Neighbor, 0, k)
	} else {
		t.heap = t.heap[:0]
	}
}

func compareNeighbors(a, b Neighbor) int {
	switch {
	case a.Dist < b.Dist:
		return -1
	case a.Dist > b.Dist:
		return 1
	case a.Index < b.Index:
		return -1
	case a.Index > b.Index:
		return 1
	}
	return 0
}

func sortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, compareNeighbors)
}

// MergeSortedNeighbors appends to dst the k best neighbors across the given
// lists and returns it. Every list must already be sorted by (Dist asc,
// Index asc) — the order TopK.AppendSorted and Sorted emit — and the output
// preserves exactly that ordering, so merging the per-shard top-k lists of a
// fanned-out query is bit-identical to running one TopK over the union of
// the shards' candidates: ties at the cut are broken by ascending Index, the
// same rule compareNeighbors applies everywhere else in the library. The
// merge is bounded: it performs at most k selection steps over len(lists)
// cursors and allocates nothing beyond growth of dst.
func MergeSortedNeighbors(dst []Neighbor, k int, lists ...[]Neighbor) []Neighbor {
	if k <= 0 {
		return dst
	}
	// Cursor state lives in a small stack array for the common fan-out
	// widths; fall back to an allocation only for very wide merges.
	var curArr [16]int
	var cur []int
	if len(lists) <= len(curArr) {
		cur = curArr[:len(lists)]
	} else {
		cur = make([]int, len(lists))
	}
	for taken := 0; taken < k; taken++ {
		best := -1
		for li, l := range lists {
			if cur[li] >= len(l) {
				continue
			}
			if best < 0 || compareNeighbors(l[cur[li]], lists[best][cur[best]]) < 0 {
				best = li
			}
		}
		if best < 0 {
			break // all lists exhausted
		}
		dst = append(dst, lists[best][cur[best]])
		cur[best]++
	}
	return dst
}

// ranksAbove reports whether x[i] ranks strictly above x[j] in the one
// order ArgMax, TopKIndices and TopKIndicesInto share: descending value,
// with a NaN below every number — except a NaN x[0], which ranks above
// everything, as ArgMax's scan, which starts at x[0] and moves only to a
// larger value, keeps it. Equal values (−0 and +0 included) and two NaNs
// after x[0] rank level, and the selectors break the tie by ascending
// index. So the top-k lists of one row nest as k grows, and the top-1 is
// ArgMax, whatever NaNs the row holds.
func ranksAbove(x []float32, i, j int) bool {
	a, b := x[i], x[j]
	if a != a {
		return i == 0 && j > 0
	}
	return a > b || b != b && j != 0
}

// TopKIndices returns the indices of the k largest values of x in descending
// value order (ties broken by ascending index, NaNs placed as ranksAbove
// says). If k exceeds len(x), all indices are returned. Used to pick the m′
// most probable bins from a model's probability vector.
func TopKIndices(x []float32, k int) []int {
	n := len(x)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Full sort is fine: bin counts are small (m ≤ a few thousand).
	sort.Slice(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		return ranksAbove(x, i, j) || !ranksAbove(x, j, i) && i < j
	})
	return idx[:k]
}

// TopKIndicesInto is TopKIndices writing into dst (reusing its capacity):
// the indices of the k largest values of x in descending value order, ties
// broken by ascending index, NaNs placed as ranksAbove says. It allocates
// nothing once dst has capacity k, making it suitable for the per-query bin
// selection of the online phase. The two functions return identical
// orderings for identical inputs.
func TopKIndicesInto(dst []int, x []float32, k int) []int {
	n := len(x)
	if k > n {
		k = n
	}
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	// Partial insertion selection: dst is kept sorted by (rank desc, index
	// asc). Scanning indices in ascending order with strict comparisons
	// reproduces TopKIndices' tie-breaking exactly. m′ and m are small, so
	// the O(n·k) shifts are cheaper than maintaining a heap.
	for i := range x {
		if len(dst) < k {
			j := len(dst)
			for j > 0 && ranksAbove(x, i, dst[j-1]) {
				j--
			}
			dst = append(dst, 0)
			copy(dst[j+1:], dst[j:])
			dst[j] = i
		} else if ranksAbove(x, i, dst[k-1]) {
			j := k - 1
			for j > 0 && ranksAbove(x, i, dst[j-1]) {
				j--
			}
			copy(dst[j+1:k], dst[j:k-1])
			dst[j] = i
		}
	}
	return dst
}

// SelectKthLargest returns the k-th largest value of x (1-based: k=1 is the
// maximum) using an in-place quickselect over a copy. It is used by the
// balance loss to find the per-column probability window threshold in O(n).
func SelectKthLargest(x []float32, k int) float32 {
	if k <= 0 || k > len(x) {
		panic("vecmath: SelectKthLargest k out of range")
	}
	buf := make([]float32, len(x))
	copy(buf, x)
	lo, hi := 0, len(buf)-1
	target := k - 1 // index in descending order
	for {
		if lo == hi {
			return buf[lo]
		}
		// Median-of-three pivot for resistance to sorted inputs.
		mid := lo + (hi-lo)/2
		if buf[mid] > buf[lo] {
			buf[mid], buf[lo] = buf[lo], buf[mid]
		}
		if buf[hi] > buf[lo] {
			buf[hi], buf[lo] = buf[lo], buf[hi]
		}
		if buf[mid] > buf[hi] {
			buf[mid], buf[hi] = buf[hi], buf[mid]
		}
		pivot := buf[hi]
		i := lo
		for j := lo; j < hi; j++ {
			if buf[j] > pivot { // descending partition
				buf[i], buf[j] = buf[j], buf[i]
				i++
			}
		}
		buf[i], buf[hi] = buf[hi], buf[i]
		switch {
		case target == i:
			return buf[i]
		case target < i:
			hi = i - 1
		default:
			lo = i + 1
		}
	}
}
