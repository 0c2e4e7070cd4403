package vecmath

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func TestDotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 127, 128, 129} {
		a, b := randVec(rng, n), randVec(rng, n)
		var want float64
		for i := range a {
			want += float64(a[i]) * float64(b[i])
		}
		if got := float64(Dot(a, b)); !almostEq(got, want, 1e-4) {
			t.Fatalf("n=%d Dot=%v want %v", n, got, want)
		}
	}
}

func TestSquaredL2Properties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Symmetry, non-negativity, identity of indiscernibles.
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		a, b := randVec(rng, n), randVec(rng, n)
		dab, dba := SquaredL2(a, b), SquaredL2(b, a)
		if dab < 0 {
			t.Fatalf("negative squared distance %v", dab)
		}
		if dab != dba {
			t.Fatalf("asymmetric: %v vs %v", dab, dba)
		}
		if d := SquaredL2(a, a); d != 0 {
			t.Fatalf("d(a,a) = %v", d)
		}
	}
}

func TestL2TriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(32)
		a, b, c := randVec(rng, n), randVec(rng, n), randVec(rng, n)
		if float64(L2(a, c)) > float64(L2(a, b))+float64(L2(b, c))+1e-4 {
			t.Fatalf("triangle inequality violated")
		}
	}
}

func TestAXPYScaleAddSub(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{10, 20, 30}
	AXPY(2, x, y)
	want := []float32{12, 24, 36}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("AXPY got %v", y)
		}
	}
	Scale(0.5, y)
	for i := range y {
		if y[i] != want[i]/2 {
			t.Fatalf("Scale got %v", y)
		}
	}
	dst := make([]float32, 3)
	Add(dst, x, x)
	if dst[2] != 6 {
		t.Fatalf("Add got %v", dst)
	}
	Sub(dst, dst, x)
	if dst[2] != 3 {
		t.Fatalf("Sub got %v", dst)
	}
}

func TestNormalize(t *testing.T) {
	v := []float32{3, 4}
	if !Normalize(v) {
		t.Fatal("Normalize failed on nonzero vector")
	}
	if !almostEq(float64(Norm(v)), 1, 1e-6) {
		t.Fatalf("norm after normalize = %v", Norm(v))
	}
	z := []float32{0, 0}
	if Normalize(z) {
		t.Fatal("Normalize succeeded on zero vector")
	}
}

func TestArgMaxArgMin(t *testing.T) {
	if ArgMax(nil) != -1 || ArgMin(nil) != -1 {
		t.Fatal("empty arg should be -1")
	}
	x := []float32{1, 5, 5, -2}
	if ArgMax(x) != 1 {
		t.Fatalf("ArgMax = %d (tie must go to first)", ArgMax(x))
	}
	if ArgMin(x) != 3 {
		t.Fatalf("ArgMin = %d", ArgMin(x))
	}
}

func TestTopKMatchesSort(t *testing.T) {
	// Property: TopK selection equals brute-force sort-then-truncate.
	check := func(seed int64, kRaw uint8, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%500 + 1
		k := int(kRaw)%64 + 1
		dists := make([]float32, n)
		for i := range dists {
			dists[i] = float32(rng.NormFloat64())
		}
		tk := NewTopK(k)
		for i, d := range dists {
			tk.Push(i, d)
		}
		got := tk.Sorted()

		all := make([]Neighbor, n)
		for i, d := range dists {
			all[i] = Neighbor{i, d}
		}
		sortNeighbors(all)
		want := all
		if k < n {
			want = all[:k]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKWorst(t *testing.T) {
	tk := NewTopK(2)
	if _, ok := tk.Worst(); ok {
		t.Fatal("Worst should report not-full")
	}
	tk.Push(0, 5)
	tk.Push(1, 1)
	if w, ok := tk.Worst(); !ok || w != 5 {
		t.Fatalf("Worst = %v,%v", w, ok)
	}
	tk.Push(2, 3)
	if w, _ := tk.Worst(); w != 3 {
		t.Fatalf("Worst after eviction = %v", w)
	}
	tk.Reset()
	if tk.Len() != 0 {
		t.Fatal("Reset did not empty")
	}
}

// TestTopKTiesIndependentOfPushOrder pushes every permutation drawn of a
// list whose distances repeat, so ties fall at the cut, and requires the
// list's first k under compareNeighbors each time: the retained set must
// not depend on which equal-distance neighbor came first.
func TestTopKTiesIndependentOfPushOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	all := make([]Neighbor, 40)
	for i := range all {
		all[i] = Neighbor{i, float32(rng.Intn(5))}
	}
	want := slices.Clone(all)
	sortNeighbors(want)
	var got []Neighbor
	for trial := 0; trial < 50; trial++ {
		order := rng.Perm(len(all))
		if trial == 0 { // descending ids: every tie arrives worst id first
			slices.Sort(order)
			slices.Reverse(order)
		}
		for _, k := range []int{1, 3, 7, 16, 39} {
			tk := NewTopK(k)
			for _, i := range order {
				tk.Push(all[i].Index, all[i].Dist)
			}
			got = tk.AppendSorted(got[:0])
			if !slices.Equal(got, want[:k]) {
				t.Fatalf("trial %d k=%d: kept %v, want %v", trial, k, got, want[:k])
			}
		}
	}
}

// TestNewTopKsShareNoSlots fills selectors that share one buffer in
// interleaved order — the first after growing its k — and each must keep
// exactly its own first k, so no selector's heap runs into its neighbor's
// slots.
func TestNewTopKsShareNoSlots(t *testing.T) {
	const n, k = 5, 3
	tks := NewTopKs(n, k)
	tks[0].SetK(k + 2)
	tks[0].Push(-1, 0)
	tks[0].Push(-2, 0)
	for d := 10; d > 0; d-- {
		for r := range tks {
			tks[r].Push(r*100+d, float32(d))
		}
	}
	for r := range tks {
		got := tks[r].AppendSorted(nil)
		want := []Neighbor{{r*100 + 1, 1}, {r*100 + 2, 2}, {r*100 + 3, 3}}
		if r == 0 {
			want = append([]Neighbor{{-2, 0}, {-1, 0}}, want...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("selector %d kept %v, want %v", r, got, want)
		}
	}
}

func TestTopKIndices(t *testing.T) {
	x := []float32{0.1, 0.9, 0.5, 0.9}
	got := TopKIndices(x, 3)
	want := []int{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopKIndices = %v, want %v", got, want)
		}
	}
	if len(TopKIndices(x, 10)) != 4 {
		t.Fatal("k > n should clamp")
	}
	if TopKIndices(x, 0) != nil {
		t.Fatal("k=0 should return nil")
	}
}

// TestTopKIndicesNaNOrder: ArgMax and both top-k selectors share one order
// on rows holding NaN. On a routing row with NaN between its numbers the
// top-m′ lists nest for every m′ — the NaNs come after every number — and
// the top-1 is ArgMax; a NaN in slot 0 ranks first, where ArgMax keeps it.
// Random rows salted with NaN and repeated values give TopKIndices,
// TopKIndicesInto and ArgMax the same answers.
func TestTopKIndicesNaNOrder(t *testing.T) {
	nan := float32(math.NaN())
	row := []float32{0.05, 0.1, nan, nan, 0.21, 0.02, -1, -1}
	if ArgMax(row) != 4 {
		t.Fatalf("ArgMax = %d, want 4", ArgMax(row))
	}
	want := []int{4, 1, 0, 5, 6, 7, 2, 3}
	var dst []int
	for k := 1; k <= len(row); k++ {
		dst = TopKIndicesInto(dst, row, k)
		if !slices.Equal(dst, want[:k]) || !slices.Equal(TopKIndices(row, k), want[:k]) {
			t.Fatalf("top-%d = %v and %v, want %v", k, dst, TopKIndices(row, k), want[:k])
		}
	}
	first := []float32{nan, 0.5, nan, 0.7}
	if got := TopKIndices(first, 4); ArgMax(first) != 0 || !slices.Equal(got, []int{0, 3, 1, 2}) {
		t.Fatalf("NaN first: ArgMax %d, order %v, want 0 and [0 3 1 2]", ArgMax(first), got)
	}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 500; trial++ {
		x := make([]float32, 1+rng.Intn(20))
		for i := range x {
			x[i] = float32(rng.Intn(5))
			if rng.Intn(4) == 0 {
				x[i] = nan
			}
		}
		all := TopKIndices(x, len(x))
		if all[0] != ArgMax(x) {
			t.Fatalf("x=%v: top-1 %d, ArgMax %d", x, all[0], ArgMax(x))
		}
		for k := 1; k <= len(x); k++ {
			if dst = TopKIndicesInto(dst, x, k); !slices.Equal(dst, all[:k]) {
				t.Fatalf("x=%v: top-%d %v is not a prefix of %v", x, k, dst, all)
			}
		}
	}
}

func TestSelectKthLargestMatchesSort(t *testing.T) {
	check := func(seed int64, kRaw uint8, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%300 + 1
		k := int(kRaw)%n + 1
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.Intn(50)) // duplicates on purpose
		}
		got := SelectKthLargest(x, k)
		sorted := make([]float32, n)
		copy(sorted, x)
		for i := 0; i < n; i++ { // insertion sort descending
			for j := i; j > 0 && sorted[j] > sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		return got == sorted[k-1]
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectKthLargestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k out of range")
		}
	}()
	SelectKthLargest([]float32{1}, 2)
}
