package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vecmath"
)

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// naiveMul is the O(n^3) reference implementation.
func naiveMul(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			dst.Set(i, j, float32(s))
		}
	}
	return dst
}

func TestMatMulMatchesNaive(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k, m := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		a, b := randMat(rng, n, k), randMat(rng, k, m)
		dst := New(n, m)
		MatMul(dst, a, b)
		return Equalish(dst, naiveMul(a, b), 1e-3)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulATBMatchesTranspose(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, r, c := 1+rng.Intn(15), 1+rng.Intn(15), 1+rng.Intn(15)
		a, b := randMat(rng, n, r), randMat(rng, n, c)
		dst := New(r, c)
		AddMatMulATB(dst, a, b)
		return Equalish(dst, naiveMul(a.T(), b), 1e-3)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulABTMatchesTranspose(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, c, m := 1+rng.Intn(15), 1+rng.Intn(15), 1+rng.Intn(15)
		a, b := randMat(rng, n, c), randMat(rng, m, c)
		dst := New(n, m)
		MatMulABT(dst, a, b)
		return Equalish(dst, naiveMul(a, b.T()), 1e-3)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randMat(rng, 9, 4)
	if !Equalish(m.T().T(), m, 0) {
		t.Fatal("T().T() != identity")
	}
}

// TestMulRowIntoMatchesMatMulRow requires every row of MatMul — inline, and
// split across workers from 1 024 rows — to carry the bits MulRowInto gives
// that row alone, on random shapes whose inputs and weights include 0, −0,
// NaN and ±Inf.
func TestMulRowIntoMatchesMatMulRow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	sprinkle := func(m *Matrix) {
		for i := range m.Data {
			if rng.Intn(6) == 0 {
				m.Data[i] = special[rng.Intn(len(special))]
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		n, k, m := 1+rng.Intn(20), 1+rng.Intn(40), 1+rng.Intn(40)
		if trial%10 == 0 {
			n = seqRowThreshold + rng.Intn(100)
		}
		a, b := randMat(rng, n, k), randMat(rng, k, m)
		if trial%2 == 1 {
			sprinkle(a)
			sprinkle(b)
		}
		dst := New(n, m)
		MatMul(dst, a, b)
		row := make([]float32, m)
		for i := 0; i < n; i++ {
			MulRowInto(row, a.Row(i), b)
			for j, v := range dst.Row(i) {
				if math.Float32bits(row[j]) != math.Float32bits(v) {
					t.Fatalf("trial %d (%dx%d·%dx%d) row %d col %d: MulRowInto %v, MatMul %v", trial, n, k, k, m, i, j, row[j], v)
				}
			}
		}
	}
}

// TestMulRowIntoSkipsZeroInputs: an input of 0 or −0 contributes nothing,
// so the ±Inf and NaN in its row of weights never reach the output as
// 0·Inf = NaN, while a nonzero input meets them.
func TestMulRowIntoSkipsZeroInputs(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	b := FromSlice(3, 2, []float32{inf, nan, 2, 3, -inf, 5})
	dst := []float32{7, 7}
	MulRowInto(dst, []float32{0, 1, float32(math.Copysign(0, -1))}, b)
	if dst[0] != 2 || dst[1] != 3 {
		t.Fatalf("zero inputs leaked into the row: %v, want [2 3]", dst)
	}
	MulRowInto(dst, []float32{1, 1, 0}, b)
	if !math.IsInf(float64(dst[0]), 1) || !math.IsNaN(float64(dst[1])) {
		t.Fatalf("nonzero input over Inf/NaN weights gave %v, want [+Inf NaN]", dst)
	}
}

// TestMatMulHandComputed pins the three products to results worked out by
// hand, at tolerance 0: every product and partial sum is exact in float32.
func TestMatMulHandComputed(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	dst := New(2, 2)
	MatMul(dst, a, b)
	if want := FromSlice(2, 2, []float32{58, 64, 139, 154}); !Equalish(dst, want, 0) {
		t.Fatalf("MatMul = %v, want %v", dst.Data, want.Data)
	}
	// aᵀ·c with c 2×2: the weight gradient of a 3-input layer.
	c := FromSlice(2, 2, []float32{1, -1, 0, 2})
	dW := New(3, 2)
	AddMatMulATB(dW, a, c)
	if want := FromSlice(3, 2, []float32{1, 7, 2, 8, 3, 9}); !Equalish(dW, want, 0) {
		t.Fatalf("AddMatMulATB = %v, want %v", dW.Data, want.Data)
	}
	// c·bᵀ: the input gradient of a layer whose weights are bᵀ.
	dX := New(2, 3)
	MatMulABT(dX, c, b)
	if want := FromSlice(2, 3, []float32{-1, -1, -1, 16, 20, 24}); !Equalish(dX, want, 0) {
		t.Fatalf("MatMulABT = %v, want %v", dX.Data, want.Data)
	}
}

// atbAXPYLoop is the product AddMatMulATB adds: row r of dst starts at zero
// and takes AXPY(a[n][r], row n of b) for every n in ascending order whose
// a[n][r] is not ±0.
func atbAXPYLoop(dst, a, b *Matrix) {
	for r := 0; r < dst.Rows; r++ {
		drow := dst.Row(r)
		clear(drow)
		for n := 0; n < a.Rows; n++ {
			if av := a.At(n, r); av != 0 {
				vecmath.AXPY(av, b.Row(n), drow)
			}
		}
	}
}

// TestMatMulATBBitEqualsAXPYLoop holds the weight gradient to the AXPY loop
// bit for bit on random shapes — batches of 1 to 400 rows, so some split
// across workers — whose inputs are a ReLU's (about half exactly zero, a
// few −0) and whose upstream gradients include ±Inf and NaN: added into a
// zeroed dst it is the loop's bits, and added into a filled one it is the
// filled value plus them.
func TestMatMulATBBitEqualsAXPYLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	special := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for trial := 0; trial < 40; trial++ {
		n, r, c := 1+rng.Intn(400), 1+rng.Intn(130), 1+rng.Intn(70)
		a, b := randMat(rng, n, r), randMat(rng, n, c)
		for i, v := range a.Data {
			if v < 0 {
				a.Data[i] = 0
			}
			if rng.Intn(50) == 0 {
				a.Data[i] = float32(math.Copysign(0, -1))
			}
		}
		if trial%2 == 1 {
			for i := range b.Data {
				if rng.Intn(40) == 0 {
					b.Data[i] = special[rng.Intn(len(special))]
				}
			}
		}
		got, want := New(r, c), New(r, c)
		AddMatMulATB(got, a, b)
		atbAXPYLoop(want, a, b)
		for i, v := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
				t.Fatalf("trial %d (%dx%d)ᵀ·(%dx%d): element %d = %v, AXPY loop %v", trial, n, r, n, c, i, got.Data[i], v)
			}
		}
		prior := randMat(rng, r, c)
		got = prior.Clone()
		AddMatMulATB(got, a, b)
		for i, v := range want.Data {
			if sum := prior.Data[i] + v; math.Float32bits(got.Data[i]) != math.Float32bits(sum) {
				t.Fatalf("trial %d: element %d added into %v = %v, want %v", trial, i, prior.Data[i], got.Data[i], sum)
			}
		}
	}
}

func TestAddRowVector(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, 2, 3, 4})
	AddRowVector(m, []float32{10, 20})
	want := FromSlice(2, 2, []float32{11, 22, 13, 24})
	if !Equalish(m, want, 0) {
		t.Fatalf("got %v", m.Data)
	}
}

func TestColSums(t *testing.T) {
	m := FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6})
	sums := make([]float32, 2)
	ColSums(sums, m)
	if sums[0] != 9 || sums[1] != 12 {
		t.Fatalf("ColSums = %v", sums)
	}
	ColSums(sums, m)
	if sums[0] != 18 || sums[1] != 24 {
		t.Fatalf("ColSums did not add into dst: %v", sums)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromSlice(1, 2, []float32{1, 2})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestZero(t *testing.T) {
	b := FromSlice(2, 2, []float32{1, 2, 3, 4})
	b.Zero()
	for _, v := range b.Data {
		if v != 0 {
			t.Fatal("Zero left nonzero data")
		}
	}
}

func TestShapePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("FromSlice", func() { FromSlice(2, 2, make([]float32, 3)) })
	mustPanic("MatMul", func() { MatMul(New(2, 2), New(2, 3), New(2, 2)) })
	mustPanic("AddMatMulATB", func() { AddMatMulATB(New(2, 2), New(3, 2), New(4, 2)) })
	mustPanic("MatMulABT", func() { MatMulABT(New(2, 2), New(2, 3), New(2, 4)) })
	mustPanic("MulRowInto input", func() { MulRowInto(make([]float32, 2), make([]float32, 3), New(2, 2)) })
	mustPanic("MulRowInto output", func() { MulRowInto(make([]float32, 3), make([]float32, 2), New(2, 2)) })
	mustPanic("AddRowVector", func() { AddRowVector(New(2, 2), []float32{1}) })
	mustPanic("ColSums", func() { ColSums(make([]float32, 1), New(2, 2)) })
	mustPanic("negative", func() { New(-1, 2) })
}
