package vecmath

import (
	"math"
	"math/rand"
	"os"
	"testing"
)

// Cross-implementation equivalence: the SIMD kernels accumulate in a
// different order than the scalar ones and contract multiply-add pairs into
// FMAs, so they are NOT bit-identical to scalar — they agree up to float32
// rounding. These tests bound the divergence with a standard forward error
// model: for a length-n reduction the accumulated rounding error is at most
// ~n·ε times the sum of absolute terms. Within one process only one
// implementation is ever dispatched (dispatch.go), so the bit-identity
// guarantees of the query engine (batch vs single-row inference, cached vs
// query-side norms) are unaffected by the tolerance here.

// equivDims covers the vector-width boundaries of both ports: below one
// lane, exact multiples of the 4/8/16-element block sizes, and every odd
// tail around them.
var equivDims = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33,
	63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025}

// reductionTol returns the allowed absolute divergence between two float32
// reductions of the given per-term absolute mass.
func reductionTol(n int, absMass float64) float64 {
	const eps = 1.1920929e-7 // 2^-23
	return float64(n+16)*eps*absMass + 1e-12
}

func skewedVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		// Mixed signs and magnitudes spanning ~6 decades, so cancellation
		// and absorption both occur.
		v[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
	}
	return v
}

func TestSIMDDotMatchesScalar(t *testing.T) {
	arch, ok := archKernels()
	if !ok {
		t.Skip("no SIMD kernels on this architecture")
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range equivDims {
		for trial := 0; trial < 20; trial++ {
			a, b := skewedVec(rng, n), skewedVec(rng, n)
			var mass float64
			for i := range a {
				mass += math.Abs(float64(a[i]) * float64(b[i]))
			}
			got := float64(arch.dot(a, b))
			want := float64(dotScalar(a, b))
			if d := math.Abs(got - want); d > reductionTol(n, mass) {
				t.Fatalf("n=%d %s dot=%v scalar=%v |diff|=%v > tol=%v",
					n, arch.name, got, want, d, reductionTol(n, mass))
			}
		}
	}
}

func TestSIMDSquaredL2MatchesScalar(t *testing.T) {
	arch, ok := archKernels()
	if !ok {
		t.Skip("no SIMD kernels on this architecture")
	}
	rng := rand.New(rand.NewSource(12))
	for _, n := range equivDims {
		for trial := 0; trial < 20; trial++ {
			a, b := skewedVec(rng, n), skewedVec(rng, n)
			var mass float64
			for i := range a {
				d := float64(a[i]) - float64(b[i])
				mass += d * d
			}
			got := float64(arch.sqL2(a, b))
			want := float64(squaredL2Scalar(a, b))
			if d := math.Abs(got - want); d > reductionTol(n, mass) {
				t.Fatalf("n=%d %s sqL2=%v scalar=%v |diff|=%v > tol=%v",
					n, arch.name, got, want, d, reductionTol(n, mass))
			}
		}
	}
}

// TestSIMDSquaredL2Exactness pins the properties the engine relies on
// exactly, not just within tolerance: d(a,a) == 0 (subtract-then-square is
// exact for equal inputs, FMA or not) and bitwise symmetry ((-x)² == x²).
func TestSIMDSquaredL2Exactness(t *testing.T) {
	arch, ok := archKernels()
	if !ok {
		t.Skip("no SIMD kernels on this architecture")
	}
	rng := rand.New(rand.NewSource(13))
	for _, n := range equivDims {
		a, b := skewedVec(rng, n), skewedVec(rng, n)
		if d := arch.sqL2(a, a); d != 0 {
			t.Fatalf("n=%d %s d(a,a)=%v, want exactly 0", n, arch.name, d)
		}
		if dab, dba := arch.sqL2(a, b), arch.sqL2(b, a); dab != dba {
			t.Fatalf("n=%d %s asymmetric: %v vs %v", n, arch.name, dab, dba)
		}
	}
}

func TestSIMDAXPYMatchesScalar(t *testing.T) {
	arch, ok := archKernels()
	if !ok {
		t.Skip("no SIMD kernels on this architecture")
	}
	rng := rand.New(rand.NewSource(14))
	const eps = 1.1920929e-7
	for _, n := range equivDims {
		for _, alpha := range []float32{0, 1, -1, 0.37, -2.5e3} {
			x := skewedVec(rng, n)
			y1 := skewedVec(rng, n)
			y2 := append([]float32(nil), y1...)
			axpyScalar(alpha, x, y1)
			arch.axpy(alpha, x, y2)
			// AXPY is elementwise: the only divergence is one FMA
			// contraction per element.
			for i := range y1 {
				tol := 4*eps*(math.Abs(float64(y1[i]))+math.Abs(float64(alpha)*float64(x[i]))) + 1e-12
				if d := math.Abs(float64(y1[i]) - float64(y2[i])); d > tol {
					t.Fatalf("n=%d alpha=%v %s y[%d]=%v scalar=%v |diff|=%v > tol=%v",
						n, alpha, arch.name, i, y2[i], y1[i], d, tol)
				}
			}
		}
	}
}

// TestSIMDLUTSumMatchesScalar drives the ADC gather kernel across subspace
// counts covering every vector-block boundary and the full range of table
// widths (k=1 degenerate rows through k=256, the uint8 code ceiling), with
// random in-range codes. The AVX2 port reduces 8 gathered lanes in a
// different order than the scalar 4-way unroll, so the shared forward-error
// tolerance applies (the NEON port matches scalar accumulation exactly, and
// passes trivially).
func TestSIMDLUTSumMatchesScalar(t *testing.T) {
	arch, ok := archKernels()
	if !ok {
		t.Skip("no SIMD kernels on this architecture")
	}
	rng := rand.New(rand.NewSource(17))
	for _, m := range equivDims {
		for _, k := range []int{1, 3, 4, 16, 255, 256} {
			for trial := 0; trial < 5; trial++ {
				lut := skewedVec(rng, m*k)
				code := make([]uint8, m)
				for i := range code {
					code[i] = uint8(rng.Intn(k))
				}
				var mass float64
				for s, c := range code {
					mass += math.Abs(float64(lut[s*k+int(c)]))
				}
				got := float64(arch.lutSum(lut, k, code))
				want := float64(lutSumScalar(lut, k, code))
				if d := math.Abs(got - want); d > reductionTol(m, mass) {
					t.Fatalf("m=%d k=%d %s lutSum=%v scalar=%v |diff|=%v > tol=%v",
						m, k, arch.name, got, want, d, reductionTol(m, mass))
				}
			}
		}
	}
}

// TestSIMDLUTSumUnalignedSlices walks the gather kernel across every
// byte-level misalignment of both the table and the code slice.
func TestSIMDLUTSumUnalignedSlices(t *testing.T) {
	arch, ok := archKernels()
	if !ok {
		t.Skip("no SIMD kernels on this architecture")
	}
	rng := rand.New(rand.NewSource(18))
	const m, k = 33, 16
	lutBacking := skewedVec(rng, m*k+16)
	codeBacking := make([]uint8, m+16)
	for i := range codeBacking {
		codeBacking[i] = uint8(rng.Intn(k))
	}
	for off := 0; off < 16; off++ {
		lut := lutBacking[off : off+m*k]
		code := codeBacking[off : off+m]
		var mass float64
		for s, c := range code {
			mass += math.Abs(float64(lut[s*k+int(c)]))
		}
		got := float64(arch.lutSum(lut, k, code))
		want := float64(lutSumScalar(lut, k, code))
		if d := math.Abs(got - want); d > reductionTol(m, mass) {
			t.Fatalf("offset %d: lutSum=%v scalar=%v", off, got, want)
		}
	}
}

// TestSIMDUnalignedSlices drives the assembly through every possible slice
// misalignment (the kernels must use unaligned loads — Go slices carry no
// alignment guarantee beyond the element size).
func TestSIMDUnalignedSlices(t *testing.T) {
	arch, ok := archKernels()
	if !ok {
		t.Skip("no SIMD kernels on this architecture")
	}
	rng := rand.New(rand.NewSource(15))
	backing := skewedVec(rng, 256)
	for off := 0; off < 16; off++ {
		a := backing[off : off+100]
		b := backing[off+101 : off+201]
		var mass float64
		for i := range a {
			mass += math.Abs(float64(a[i]) * float64(b[i]))
		}
		got := float64(arch.dot(a, b))
		want := float64(dotScalar(a, b))
		if d := math.Abs(got - want); d > reductionTol(100, mass) {
			t.Fatalf("offset %d: dot=%v scalar=%v", off, got, want)
		}
	}
}

// TestDispatchHonorsForceScalar pins the env override contract: when
// USP_FORCE_SCALAR is set the process must be running the scalar kernels
// (this is what the forced-scalar CI leg asserts); when it is not set, a
// SIMD-capable host must have selected its assembly port.
func TestDispatchHonorsForceScalar(t *testing.T) {
	if os.Getenv(ForceScalarEnv) != "" {
		if Impl() != "scalar" {
			t.Fatalf("%s set but Impl() = %q", ForceScalarEnv, Impl())
		}
		return
	}
	if arch, ok := archKernels(); ok && Impl() != arch.name {
		t.Fatalf("SIMD kernels available (%s) but Impl() = %q", arch.name, Impl())
	}
}

// TestPublicKernelsUseActiveImpl asserts the public wrappers and the raw
// active kernel set agree bitwise — i.e. the wrappers add bounds adaptation
// only, no arithmetic.
func TestPublicKernelsUseActiveImpl(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a, b := skewedVec(rng, 129), skewedVec(rng, 129)
	if Dot(a, b) != active.dot(a, b) {
		t.Fatal("Dot does not match active kernel")
	}
	if SquaredL2(a, b) != active.sqL2(a, b) {
		t.Fatal("SquaredL2 does not match active kernel")
	}
	y1 := append([]float32(nil), b...)
	y2 := append([]float32(nil), b...)
	AXPY(0.5, a, y1)
	active.axpy(0.5, a, y2)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("AXPY diverges from active kernel at %d", i)
		}
	}
	const k = 8
	lut := skewedVec(rng, 12*k)
	code := make([]uint8, 12)
	for i := range code {
		code[i] = uint8(rng.Intn(k))
	}
	if LUTSum(lut, k, code) != active.lutSum(lut, k, code) {
		t.Fatal("LUTSum does not match active kernel")
	}
	// The block kernels: the wrappers must run the pair the active set
	// names, and nothing else.
	pair := blockImpls()[0]
	if active.arch {
		pair = blockImpls()[1]
	}
	seg, cbT := a[:5], b[:5*k]
	got, want := make([]float32, k), make([]float32, k)
	SegmentToCentroids(got, seg, cbT)
	pair.seg(want, seg, cbT)
	for c := range want {
		if got[c] != want[c] {
			t.Fatalf("SegmentToCentroids diverges from the %s kernel at %d", pair.name, c)
		}
	}
	ids := []int32{2, 0, 1}
	codes := make([]uint8, 3*12)
	for i := range codes {
		codes[i] = uint8(rng.Intn(k))
	}
	LUTSumRows(got[:3], lut, k, codes, 12, ids)
	pair.rows(want[:3], lut, k, codes, 12, ids)
	for i := range ids {
		if got[i] != want[i] {
			t.Fatalf("LUTSumRows diverges from the %s kernel at %d", pair.name, i)
		}
	}
	DotRows(got[:3], a[:43], b, 43, ids)
	pair.dots(want[:3], a[:43], b, 43, ids)
	for i := range ids {
		if got[i] != want[i] {
			t.Fatalf("DotRows diverges from the %s kernel at %d", pair.name, i)
		}
	}
	SquaredL2Rows(got[:3], a[:43], b, 43, ids)
	pair.sqL2s(want[:3], a[:43], b, 43, ids)
	for i := range ids {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("SquaredL2Rows diverges from the %s kernel at %d", pair.name, i)
		}
	}
	if got, want := ArgMin(a), pair.argMin(a); got != want {
		t.Fatalf("ArgMin = %d, the %s kernel gives %d", got, pair.name, want)
	}
	MulRow(got[:3], a[:43], b)
	pair.mulRow(want[:3], a[:43], b)
	for c := range 3 {
		if math.Float32bits(got[c]) != math.Float32bits(want[c]) {
			t.Fatalf("MulRow diverges from the %s kernel at %d", pair.name, c)
		}
	}
}

// blockKernels is one implementation of the four block kernels, ArgMin
// and MulRow, which are called directly and so are not entries of the
// kernels table, beside the table of the same implementation — the
// single-row kernels the multi-row ones are pinned to.
type blockKernels struct {
	kernels
	seg    func(dst, seg, cbT []float32)
	rows   func(dst, lut []float32, k int, codes []uint8, m int, ids []int32)
	dots   func(dst, q, data []float32, dim int, ids []int32)
	sqL2s  func(dst, q, data []float32, dim int, ids []int32)
	argMin func(x []float32) int
	mulRow func(dst, x, w []float32)
}

// blockImpls lists the portable set and, when this machine can run it,
// the architecture set.
func blockImpls() []blockKernels {
	impls := []blockKernels{{scalarKernels, segToCentroidsScalar, lutSumRowsScalar, dotRowsScalar, sqL2RowsScalar, argMinScalar, mulRowScalar}}
	if arch, ok := archKernels(); ok {
		impls = append(impls, blockKernels{arch, segToCentroidsArch, lutSumRowsArch, dotRowsArch, sqL2RowsArch, argMinArch, mulRowArch})
	}
	return impls
}

// blockKs are the codebook sizes the block-kernel tests sweep: below one
// lane, one short of / exactly one and two lane blocks, and either side of
// the 32-centroid block boundary at the uint8 ceiling.
var blockKs = []int{1, 7, 8, 16, 255, 256}

// TestSegmentToCentroidsMatchesScalar sweeps the segment kernel over the
// codebook sizes above, sub-dimensions 0–9 (0 must zero dst) and
// float-level misalignments of all three slices, against the portable
// kernel under the shared forward-error model.
func TestSegmentToCentroidsMatchesScalar(t *testing.T) {
	arch, ok := archKernels()
	if !ok {
		t.Skip("no SIMD kernels on this architecture")
	}
	rng := rand.New(rand.NewSource(31))
	for _, k := range blockKs {
		for d := 0; d <= 9; d++ {
			for off := 0; off < 8; off += 1 + rng.Intn(3) {
				seg := skewedVec(rng, d+off)[off:]
				cbT := skewedVec(rng, d*k+off)[off:]
				got := skewedVec(rng, k+off)[off:] // stale contents must be overwritten
				want := make([]float32, k)
				segToCentroidsArch(got, seg, cbT)
				segToCentroidsScalar(want, seg, cbT)
				for c := 0; c < k; c++ {
					var mass float64
					for j := 0; j < d; j++ {
						diff := float64(seg[j]) - float64(cbT[j*k+c])
						mass += diff * diff
					}
					if diff := math.Abs(float64(got[c]) - float64(want[c])); diff > reductionTol(d, mass) {
						t.Fatalf("k=%d d=%d offset %d centroid %d: %s=%v scalar=%v |diff|=%v > tol=%v",
							k, d, off, c, arch.name, got[c], want[c], diff, reductionTol(d, mass))
					}
				}
			}
		}
	}
}

// TestSegmentToCentroidsColumnIndependence pins the accumulation-order
// contract under the active dispatch: a centroid's distance is the same
// bits in a codebook cut to its first n centroids, for n putting its column
// under each of the 32-, 8- and 1-centroid blocks — so a short codebook's
// distances, and the codes taken from them, match the full one's.
func TestSegmentToCentroidsColumnIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const k, d = 256, 7
	seg, cbT := skewedVec(rng, d), skewedVec(rng, d*k)
	full := make([]float32, k)
	SegmentToCentroids(full, seg, cbT)
	for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 40, 255} {
		cut := make([]float32, d*n)
		for j := 0; j < d; j++ {
			copy(cut[j*n:(j+1)*n], cbT[j*k:])
		}
		part := make([]float32, n)
		SegmentToCentroids(part, seg, cut)
		for c := range part {
			if math.Float32bits(part[c]) != math.Float32bits(full[c]) {
				t.Fatalf("%d centroids, centroid %d: %v, among all %d: %v", n, c, part[c], k, full[c])
			}
		}
	}
}

// lutRowsFixture builds a random table, code buffer and id run. ids repeat
// and arrive in no order, as a probed bin's do.
func lutRowsFixture(rng *rand.Rand, m, k, rows, n int) (lut []float32, codes []uint8, ids []int32) {
	lut = skewedVec(rng, m*k)
	codes = make([]uint8, rows*m)
	for i := range codes {
		codes[i] = uint8(rng.Intn(k))
	}
	ids = make([]int32, n)
	for i := range ids {
		ids[i] = int32(rng.Intn(rows))
	}
	return lut, codes, ids
}

// TestLUTSumRowsBitEqualsLUTSum pins the multi-row kernel of every
// implementation to the single-row kernel of the same implementation, bit
// for bit: subspace counts across every 8-code block boundary, all table
// widths, id runs of every parity including empty, misaligned buffers.
func TestLUTSumRowsBitEqualsLUTSum(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, impl := range blockImpls() {
		for _, m := range []int{1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65} {
			for _, k := range blockKs {
				for _, n := range []int{0, 1, 2, 3, 6, 7, 64, 257} {
					off := rng.Intn(8)
					lut, codes, ids := lutRowsFixture(rng, m, k, 97, n+off)
					ids = ids[off:]
					dst := make([]float32, n+off)[off:]
					impl.rows(dst, lut, k, codes, m, ids)
					for i, id := range ids {
						want := impl.lutSum(lut, k, codes[int(id)*m:(int(id)+1)*m])
						if math.Float32bits(dst[i]) != math.Float32bits(want) {
							t.Fatalf("%s m=%d k=%d n=%d: dst[%d]=%v, single-row kernel %v", impl.name, m, k, n, i, dst[i], want)
						}
					}
				}
			}
		}
	}
}

// TestLUTSumRowsPublic: the wrapper agrees with LUTSum per row under the
// active dispatch, leaves dst beyond len(ids) alone, and refuses an id
// whose row is outside the code buffer instead of reading past it.
func TestLUTSumRowsPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const m, k, rows = 12, 16, 50
	lut, codes, ids := lutRowsFixture(rng, m, k, rows, 41)
	dst := make([]float32, len(ids)+1)
	dst[len(ids)] = -1
	LUTSumRows(dst, lut, k, codes, m, ids)
	for i, id := range ids {
		if want := LUTSum(lut, k, codes[int(id)*m:(int(id)+1)*m]); math.Float32bits(dst[i]) != math.Float32bits(want) {
			t.Fatalf("dst[%d]=%v, LUTSum %v", i, dst[i], want)
		}
	}
	if dst[len(ids)] != -1 {
		t.Fatal("LUTSumRows wrote past len(ids)")
	}
	for _, bad := range []int32{rows, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("id %d outside the code buffer did not panic", bad)
				}
			}()
			LUTSumRows(dst, lut, k, codes, m, []int32{0, bad})
		}()
	}
}

// TestDotRowsBitEqualsDot pins the multi-row dot product of every
// implementation to the single-row kernel of the same implementation, bit
// for bit: dimensions on both sides of the 8- and 16-element blocks, id
// runs of every remainder mod 4 including empty, repeated ids, and query,
// row buffer and destination all starting off any 32-byte boundary.
func TestDotRowsBitEqualsDot(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const rows = 61
	for _, impl := range blockImpls() {
		for _, dim := range []int{1, 7, 8, 15, 16, 17, 64, 128, 129, 512} {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1003} {
				off := 1 + rng.Intn(7)
				q := skewedVec(rng, dim+off)[off:]
				data := skewedVec(rng, rows*dim+off)[off:]
				ids := make([]int32, n+off)[off:]
				for i := range ids {
					ids[i] = int32(rng.Intn(rows))
				}
				if n >= 2 {
					ids[n-1] = ids[0]
				}
				dst := make([]float32, n+off)[off:]
				impl.dots(dst, q, data, dim, ids)
				for i, id := range ids {
					want := impl.dot(q, data[int(id)*dim:(int(id)+1)*dim])
					if math.Float32bits(dst[i]) != math.Float32bits(want) {
						t.Fatalf("%s dim=%d n=%d: dst[%d]=%v, single-row kernel %v", impl.name, dim, n, i, dst[i], want)
					}
				}
			}
		}
	}
}

// TestDotRowsPublic: the wrapper agrees with Dot per row under the active
// dispatch, leaves dst beyond len(ids) alone, scores zero-length rows as 0
// and refuses an id whose row is outside the buffer instead of reading
// past it.
func TestDotRowsPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	const dim, rows = 19, 50
	q, data := skewedVec(rng, dim), skewedVec(rng, rows*dim)
	ids := make([]int32, 41)
	for i := range ids {
		ids[i] = int32(rng.Intn(rows))
	}
	dst := make([]float32, len(ids)+1)
	dst[len(ids)] = -1
	DotRows(dst, q, data, dim, ids)
	for i, id := range ids {
		if want := Dot(q, data[int(id)*dim:(int(id)+1)*dim]); math.Float32bits(dst[i]) != math.Float32bits(want) {
			t.Fatalf("dst[%d]=%v, Dot %v", i, dst[i], want)
		}
	}
	if dst[len(ids)] != -1 {
		t.Fatal("DotRows wrote past len(ids)")
	}
	DotRows(dst, q, data, 0, ids[:3])
	if dst[0] != 0 || dst[1] != 0 || dst[2] != 0 {
		t.Fatalf("zero-length rows scored %v", dst[:3])
	}
	for _, bad := range []int32{rows, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("id %d outside the row buffer did not panic", bad)
				}
			}()
			DotRows(dst, q, data, dim, []int32{0, bad})
		}()
	}
}

// TestSquaredL2RowsBitEqualsSquaredL2 pins the multi-row squared distance
// of every implementation to the single-row kernel of the same
// implementation, bit for bit, with the operands in either order — the
// symmetry that lets knn.BuildMatrix score a pair once for both of its
// rows: dimensions on both sides of the 8- and 16-element blocks, groups of
// one to three rows and every remainder mod 4 beyond, repeated ids, and
// query, row buffer and destination all starting off any 32-byte boundary.
func TestSquaredL2RowsBitEqualsSquaredL2(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const rows = 61
	for _, impl := range blockImpls() {
		for _, dim := range []int{1, 7, 8, 15, 16, 17, 64, 128, 130, 512} {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1003} {
				off := 1 + rng.Intn(7)
				q := skewedVec(rng, dim+off)[off:]
				data := skewedVec(rng, rows*dim+off)[off:]
				ids := make([]int32, n+off)[off:]
				for i := range ids {
					ids[i] = int32(rng.Intn(rows))
				}
				if n >= 2 {
					ids[n-1] = ids[0]
				}
				dst := make([]float32, n+off)[off:]
				impl.sqL2s(dst, q, data, dim, ids)
				for i, id := range ids {
					row := data[int(id)*dim : (int(id)+1)*dim]
					want, swapped := impl.sqL2(q, row), impl.sqL2(row, q)
					if math.Float32bits(dst[i]) != math.Float32bits(want) {
						t.Fatalf("%s dim=%d n=%d: dst[%d]=%v, single-row kernel %v", impl.name, dim, n, i, dst[i], want)
					}
					if math.Float32bits(swapped) != math.Float32bits(want) {
						t.Fatalf("%s dim=%d: SquaredL2(row, q)=%v, SquaredL2(q, row)=%v", impl.name, dim, swapped, want)
					}
				}
			}
		}
	}
}

// TestSquaredL2RowsPublic: the wrapper agrees with SquaredL2 per row under
// the active dispatch, leaves dst beyond len(ids) alone, scores zero-length
// rows as 0 and refuses an id whose row is outside the buffer instead of
// reading past it.
func TestSquaredL2RowsPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	const dim, rows = 19, 50
	q, data := skewedVec(rng, dim), skewedVec(rng, rows*dim)
	ids := make([]int32, 41)
	for i := range ids {
		ids[i] = int32(rng.Intn(rows))
	}
	dst := make([]float32, len(ids)+1)
	dst[len(ids)] = -1
	SquaredL2Rows(dst, q, data, dim, ids)
	for i, id := range ids {
		if want := SquaredL2(q, data[int(id)*dim:(int(id)+1)*dim]); math.Float32bits(dst[i]) != math.Float32bits(want) {
			t.Fatalf("dst[%d]=%v, SquaredL2 %v", i, dst[i], want)
		}
	}
	if dst[len(ids)] != -1 {
		t.Fatal("SquaredL2Rows wrote past len(ids)")
	}
	SquaredL2Rows(dst, q, data, 0, ids[:3])
	if dst[0] != 0 || dst[1] != 0 || dst[2] != 0 {
		t.Fatalf("zero-length rows scored %v", dst[:3])
	}
	for _, bad := range []int32{rows, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("id %d outside the row buffer did not panic", bad)
				}
			}()
			SquaredL2Rows(dst, q, data, dim, []int32{0, bad})
		}()
	}
}

// argMinSpecials are the values whose ordering the ArgMin kernels must
// reproduce exactly: signed zeros (which tie), infinities, NaN, the extremes
// of the finite range and the smallest subnormal.
var argMinSpecials = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, 1, -1,
}

// checkArgMin fails unless every implementation returns the portable
// kernel's index for x, and the public wrapper the active one's.
func checkArgMin(t *testing.T, x []float32, what string) {
	t.Helper()
	want := argMinScalar(x)
	for _, impl := range blockImpls() {
		if got := impl.argMin(x); got != want {
			t.Fatalf("%s, n=%d: %s ArgMin = %d, scalar = %d (x=%v)", what, len(x), impl.name, got, want, x)
		}
	}
	if got := ArgMin(x); got != want {
		t.Fatalf("%s, n=%d: ArgMin = %d, scalar = %d", what, len(x), got, want)
	}
}

// TestArgMinMatchesScalar holds every ArgMin implementation to the index of
// the portable loop at lengths 0–300, from every float offset of a buffer
// (so the 32- and 8-wide blocks start misaligned): on random values, on
// values drawn from three (ties everywhere), on mixes of the special values,
// and with a NaN, −Inf, +Inf, −0 or a unique minimum planted at every
// position.
func TestArgMinMatchesScalar(t *testing.T) {
	if ArgMin(nil) != -1 {
		t.Fatal("ArgMin of an empty slice must be -1")
	}
	rng := rand.New(rand.NewSource(33))
	nan, negZero := float32(math.NaN()), float32(math.Copysign(0, -1))
	for n := 1; n <= 300; n++ {
		off := n % 8
		buf := make([]float32, n+off)
		x := buf[off:]
		copy(x, skewedVec(rng, n))
		checkArgMin(t, x, "random")
		for i := range x {
			x[i] = float32(rng.Intn(3))
		}
		checkArgMin(t, x, "ties")
		for i := range x {
			x[i] = argMinSpecials[rng.Intn(len(argMinSpecials))]
		}
		checkArgMin(t, x, "specials")
		base := skewedVec(rng, n)
		for p := 0; p < n; p++ {
			for _, v := range []float32{nan, float32(math.Inf(-1)), float32(math.Inf(1)), negZero, -1e30} {
				copy(x, base)
				x[p] = v
				checkArgMin(t, x, "planted")
			}
		}
		for i := range x {
			x[i] = nan
		}
		checkArgMin(t, x, "all NaN")
		for i := range x {
			x[i] = 0
			if rng.Intn(2) == 0 {
				x[i] = negZero
			}
		}
		checkArgMin(t, x, "signed zeros")
	}
}

// axpyLoop is MulRow's definition written with one implementation's AXPY:
// clear dst, then dst += x[k]·(row k of w) for every x[k] that is not ±0.
func axpyLoop(axpy func(alpha float32, x, y []float32), dst, x, w []float32) {
	clear(dst)
	for k, xv := range x {
		if xv != 0 {
			axpy(xv, w[k*len(dst):(k+1)*len(dst)], dst)
		}
	}
}

// TestMulRowBitEqualsAXPYLoop pins every MulRow implementation to the AXPY
// loop over the same implementation's AXPY, bit for bit and NaN payloads
// included: input counts from 0 (dst must come out zero) and column counts
// on both sides of the 8-, 16- and 64-column blocks, with inputs and
// weights salted with argMinSpecials (±0 — a zero input is skipped, −0
// included —, ±Inf, NaN, which is not skipped, and the finite extremes),
// and dst, x and w starting off any 32-byte boundary.
func TestMulRowBitEqualsAXPYLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	salt := func(v []float32, p float64) {
		for i := range v {
			if rng.Float64() < p {
				v[i] = argMinSpecials[rng.Intn(len(argMinSpecials))]
			}
		}
	}
	for _, impl := range blockImpls() {
		for trial := range 1500 {
			k := rng.Intn(200)
			c := 1 + rng.Intn(150)
			if trial < 40 {
				k, c = trial%3, []int{1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 128, 129, 144}[trial%13]
			}
			off := rng.Intn(8)
			x := skewedVec(rng, k+off)[off:]
			w := skewedVec(rng, k*c+off)[off:]
			if trial%2 == 1 {
				salt(x, 0.2)
				salt(w, 0.05)
			}
			got := make([]float32, c+off)[off:]
			for i := range got {
				got[i] = 42 // MulRow must overwrite, not accumulate
			}
			want := make([]float32, c)
			impl.mulRow(got, x, w)
			axpyLoop(impl.axpy, want, x, w)
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("%s k=%d c=%d: dst[%d]=%v (%#x), AXPY loop %v (%#x)", impl.name, k, c, j,
						got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
				}
			}
		}
	}
}

// TestMulRowZeroInputSkipsInfiniteWeights: a ±0 input contributes nothing,
// so the 0·Inf and 0·NaN of its weight row never reach dst, while a NaN
// input is not skipped and makes every column NaN. Checked in every block
// width of every implementation and through the public wrapper.
func TestMulRowZeroInputSkipsInfiniteWeights(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, c := range []int{1, 8, 16, 64, 89} {
		w := make([]float32, 3*c)
		for j := range c {
			w[j], w[c+j], w[2*c+j] = 2, []float32{inf, nan}[j%2], float32(j)
		}
		for _, z := range []float32{0, float32(math.Copysign(0, -1))} {
			x := []float32{1.5, z, 0.5}
			for _, impl := range blockImpls() {
				dst := make([]float32, c)
				impl.mulRow(dst, x, w)
				for j, v := range dst {
					if want := 3 + 0.5*float32(j); v != want {
						t.Fatalf("%s c=%d x[1]=%v: dst[%d]=%v, want %v", impl.name, c, z, j, v, want)
					}
				}
			}
		}
		dst := make([]float32, c)
		MulRow(dst, []float32{1.5, nan, 0.5}, w)
		for j, v := range dst {
			if !math.IsNaN(float64(v)) {
				t.Fatalf("c=%d: a NaN input gave dst[%d]=%v, want NaN", c, j, v)
			}
		}
	}
}

// TestMulRowHandComputed pins MulRow to products worked out by hand, at
// tolerance 0 (every product and partial sum is exact in float32), through
// the public wrapper and every implementation: [1 2 3]·W for a 3×2 W,
// a 2×9 W (one 8-column block and a scalar column), and a 1×70 W (a
// 64-column block, no 16-column block, six scalar columns).
func TestMulRowHandComputed(t *testing.T) {
	cases := []struct {
		x, w, want []float32
	}{
		{[]float32{1, 2, 3}, []float32{1, 2, 3, 4, 5, 6}, []float32{22, 28}},
		{[]float32{2, -1}, []float32{
			1, 2, 3, 4, 5, 6, 7, 8, 9,
			9, 8, 7, 6, 5, 4, 3, 2, 1,
		}, []float32{-7, -4, -1, 2, 5, 8, 11, 14, 17}},
		{[]float32{0.5}, make([]float32, 70), make([]float32, 70)},
		{nil, nil, nil},
	}
	for j := range 70 {
		cases[2].w[j], cases[2].want[j] = float32(2*j), float32(j)
	}
	check := func(name string, got, want []float32) {
		t.Helper()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: dst[%d]=%v, want %v", name, j, got[j], want[j])
			}
		}
	}
	for _, tc := range cases {
		dst := make([]float32, len(tc.want))
		MulRow(dst, tc.x, tc.w)
		check("MulRow", dst, tc.want)
		for _, impl := range blockImpls() {
			impl.mulRow(dst, tc.x, tc.w)
			check(impl.name, dst, tc.want)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a weight buffer shorter than len(x)*len(dst) did not panic")
			}
		}()
		MulRow(make([]float32, 3), []float32{1, 2}, make([]float32, 5))
	}()
}
