package vecmath

// The portable kernel implementations. These are the universal fallback of
// the dispatch layer (see dispatch.go) and the reference implementation the
// SIMD ports are equivalence-tested against. The 4-way manual unrolling
// compiles to reasonably tight scalar loops on every architecture, and the
// fixed accumulator order makes results deterministic run to run.
//
// Contract shared by every implementation (scalar and assembly): the slices
// have equal length (the public wrappers enforce it), results depend only on
// the element values, and a length-0 input yields 0 / no-op.

func dotScalar(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

func squaredL2Scalar(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// axpyScalar is not inlined, so that mulRowScalar's direct calls run the
// machine code the kernel table's AXPY runs: an inlined copy may order an
// add's operands differently, which changes the NaN that NaN + NaN returns.
//
//go:noinline
func axpyScalar(alpha float32, x, y []float32) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// lutSumScalar gathers one float per code byte from a flat row-major M×k
// lookup table (row s spans lut[s*k:(s+1)*k]) and sums them — the ADC
// asymmetric-distance evaluation. Preconditions enforced by the public
// wrapper: len(lut) == len(code)*k and every code[s] < k.
func lutSumScalar(lut []float32, k int, code []uint8) float32 {
	var s0, s1, s2, s3 float32
	m := len(code)
	i, j := 0, 0 // j tracks i*k
	for ; i+4 <= m; i, j = i+4, j+4*k {
		s0 += lut[j+int(code[i])]
		s1 += lut[j+k+int(code[i+1])]
		s2 += lut[j+2*k+int(code[i+2])]
		s3 += lut[j+3*k+int(code[i+3])]
	}
	for ; i < m; i, j = i+1, j+k {
		s0 += lut[j+int(code[i])]
	}
	return s0 + s1 + s2 + s3
}

// segToCentroidsScalar scores one query segment against every centroid of
// one subspace at once. cbT is the subspace's codebook centroid-major:
// row j holds coordinate j of every centroid (cbT[j*len(dst)+c]), so the
// inner loop streams one row while the distances accumulate in dst.
// Accumulation-order contract shared with the assembly port: every dst[c]
// is its own chain Σ_j (seg[j]−cbT[j*len(dst)+c])² taken in ascending j
// from zero, so a centroid's result does not depend on len(dst), on its
// position in the row or on slice alignment. Precondition enforced by the
// public wrapper: len(cbT) == len(seg)*len(dst).
func segToCentroidsScalar(dst, seg, cbT []float32) {
	for c := range dst {
		dst[c] = 0
	}
	for j, x := range seg {
		row := cbT[j*len(dst):][:len(dst)]
		for c, y := range row {
			d := x - y
			dst[c] += d * d
		}
	}
}

// lutSumRowsScalar scores a run of rows: dst[i] is lutSumScalar of row
// ids[i] of the flat code buffer (row r at codes[r*m:(r+1)*m]).
func lutSumRowsScalar(dst, lut []float32, k int, codes []uint8, m int, ids []int32) {
	for i, id := range ids {
		o := int(id) * m
		dst[i] = lutSumScalar(lut, k, codes[o:o+m])
	}
}

// dotRowsScalar scores a run of rows: dst[i] is dotScalar of q against row
// ids[i] of the flat row buffer (row r at data[r*dim:(r+1)*dim]).
func dotRowsScalar(dst, q, data []float32, dim int, ids []int32) {
	for i, id := range ids {
		o := int(id) * dim
		dst[i] = dotScalar(q, data[o:o+dim])
	}
}

// sqL2RowsScalar scores a run of rows: dst[i] is squaredL2Scalar of q
// against row ids[i] of the flat row buffer (row r at data[r*dim:(r+1)*dim]).
func sqL2RowsScalar(dst, q, data []float32, dim int, ids []int32) {
	for i, id := range ids {
		o := int(id) * dim
		dst[i] = squaredL2Scalar(q, data[o:o+dim])
	}
}

// mulRowScalar is MulRow's portable kernel, the AXPY loop itself: dst is
// cleared, then takes axpyScalar(x[k], row k of w, dst) for every k in
// ascending order whose x[k] is not ±0 (a NaN is not skipped), so a zero
// input contributes nothing even where its row of w holds ±Inf or NaN.
// Precondition enforced by the public wrapper: len(w) == len(x)*len(dst).
func mulRowScalar(dst, x, w []float32) {
	clear(dst)
	for k, xv := range x {
		if xv != 0 {
			axpyScalar(xv, w[k*len(dst):(k+1)*len(dst)], dst)
		}
	}
}

// argMinScalar is ArgMin's portable kernel and the definition the assembly
// port reproduces: the first index at which x reaches its minimum under <,
// so a NaN x[0] is index 0, a later NaN is never taken and −0 ties +0.
// Precondition enforced by the public wrapper: len(x) ≥ 1.
func argMinScalar(x []float32) int {
	best, bi := x[0], 0
	for i := 1; i < len(x); i++ {
		if x[i] < best {
			best, bi = x[i], i
		}
	}
	return bi
}
