package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
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
		MatMulATB(dst, a, b)
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
	mustPanic("MatMulATB", func() { MatMulATB(New(2, 2), New(3, 2), New(4, 2)) })
	mustPanic("MatMulABT", func() { MatMulABT(New(2, 2), New(2, 3), New(2, 4)) })
	mustPanic("AddRowVector", func() { AddRowVector(New(2, 2), []float32{1}) })
	mustPanic("ColSums", func() { ColSums(make([]float32, 1), New(2, 2)) })
	mustPanic("negative", func() { New(-1, 2) })
}
