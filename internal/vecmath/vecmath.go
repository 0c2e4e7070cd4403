// Package vecmath implements the low-level float32 vector kernels the rest of
// the library is built on: distances, dot products, in-place BLAS-1 style
// updates, and small utilities (argmax, top-k selection).
//
// The hot kernels — Dot, SquaredL2, AXPY, LUTSum, ArgMin, MulRow (one row
// of every dense product) and the four block kernels, DotRows of the float
// candidate scan, SquaredL2Rows of the exact k-NN matrix and ground truth,
// and SegmentToCentroids and LUTSumRows of the quantized path — dispatch
// through a kernel set selected once at package init: AVX2+FMA assembly on
// capable amd64 CPUs, NEON assembly on arm64, and the portable
// 4-way-unrolled scalar code everywhere else (see dispatch.go). Setting
// USP_FORCE_SCALAR in the environment pins
// the scalar kernels regardless of CPU features. All other helpers are pure
// Go; float64 accumulation variants are provided where reduction precision
// matters.
package vecmath

import "math"

// Dot returns the inner product of a and b. The slices must have equal
// length; this is a programmer-error invariant on the hot path, enforced by
// bounds checks rather than an explicit panic.
func Dot(a, b []float32) float32 {
	b = b[:len(a)] // single bounds check; kernels assume equal length
	return active.dot(a, b)
}

// SquaredL2 returns the squared Euclidean distance between a and b.
func SquaredL2(a, b []float32) float32 {
	b = b[:len(a)]
	return active.sqL2(a, b)
}

// SquaredL2Fused returns the squared Euclidean distance between q and x via
// the expansion ‖x‖² + ‖q‖² − 2·q·x, given the precomputed squared norms of
// both vectors. With per-row norms cached on the dataset (and ‖q‖² computed
// once per query) a candidate scan costs one dot product per row instead of a
// subtract-square pass, and the dot product reads both operands forward —
// the layout ScaNN-style scoring kernels use. The result is clamped at zero:
// the expansion can go slightly negative under float32 cancellation when q
// and x nearly coincide.
func SquaredL2Fused(q, x []float32, qNorm2, xNorm2 float32) float32 {
	return SquaredL2FromDot(Dot(q, x), qNorm2, xNorm2)
}

// SquaredL2FromDot finishes a fused distance from an inner product already
// in hand: ‖x‖² + ‖q‖² − 2·dot, clamped at zero. It is the one place the
// expansion is written, so the block scan (DotRows, then this per row) and
// SquaredL2Fused produce the same bits.
func SquaredL2FromDot(dot, qNorm2, xNorm2 float32) float32 {
	d := xNorm2 + qNorm2 - 2*dot
	if d < 0 {
		return 0
	}
	return d
}

// DotRows is the multi-row form of Dot, the inner loop of the float
// candidate scan: for every i it stores in dst[i] the inner product of q
// with row ids[i] of the flat row-major buffer data (row r at
// data[r*dim:(r+1)*dim]). Each dst[i] is bit-equal to
// Dot(q, data[ids[i]*dim:(ids[i]+1)*dim]) under the same dispatch; the
// block form only removes the per-row call, loads the query once per group
// of rows and keeps several rows' accumulation chains in flight. len(q)
// must be at least dim and len(dst) at least len(ids); an id whose row does
// not lie inside data panics, as slicing the row would.
func DotRows(dst, q, data []float32, dim int, ids []int32) {
	dst = dst[:len(ids)]
	q = q[:dim]
	for _, id := range ids {
		o := int(id) * dim
		_ = data[o : o+dim : len(data)] // the kernels read rows unchecked
	}
	if active.arch {
		dotRowsArch(dst, q, data, dim, ids)
	} else {
		dotRowsScalar(dst, q, data, dim, ids)
	}
}

// SquaredL2Rows is the multi-row form of SquaredL2, the inner loop of the
// exact k-NN joins (knn.BuildMatrix, knn.GroundTruth): for every i it
// stores in dst[i] the squared Euclidean distance between q and row ids[i]
// of the flat row-major buffer data (row r at data[r*dim:(r+1)*dim]). Each
// dst[i] is bit-equal to SquaredL2(q, data[ids[i]*dim:(ids[i]+1)*dim])
// under the same dispatch, and so to SquaredL2 with the operands swapped:
// every kernel set squares q[j]−x[j], which is exactly −(x[j]−q[j]), in
// the same order either way. len(q) must be at least dim and len(dst) at
// least len(ids); an id whose row does not lie inside data panics, as
// slicing the row would.
func SquaredL2Rows(dst, q, data []float32, dim int, ids []int32) {
	dst = dst[:len(ids)]
	q = q[:dim]
	for _, id := range ids {
		o := int(id) * dim
		_ = data[o : o+dim : len(data)] // the kernels read rows unchecked
	}
	if active.arch {
		sqL2RowsArch(dst, q, data, dim, ids)
	} else {
		sqL2RowsScalar(dst, q, data, dim, ids)
	}
}

// LUTSum evaluates a product-quantization asymmetric distance: it gathers
// one entry per subspace from a flat row-major lookup table and returns
// their sum, Σ_s lut[s*k + code[s]]. lut holds len(code) rows of k floats
// (row s is the query-to-centroid table for subspace s); code holds one
// centroid index per subspace. Callers must guarantee code[s] < k for
// every s — the encoder does by construction — as the kernels gather
// without per-element bounds checks; the slice-length relation
// len(lut) == len(code)*k is enforced here with a single bounds check.
func LUTSum(lut []float32, k int, code []uint8) float32 {
	lut = lut[:len(code)*k] // single bounds check; kernels assume the shape
	return active.lutSum(lut, k, code)
}

// LUTSumRows is the multi-row form of LUTSum, the inner loop of the ADC
// candidate scan: for every i it stores in dst[i] the LUTSum of row ids[i]
// of the flat row-major code buffer codes (row r at codes[r*m:(r+1)*m])
// against the m×k table lut. Each dst[i] is bit-equal to
// LUTSum(lut, k, codes[ids[i]*m:(ids[i]+1)*m]) under the same dispatch; the
// block form only removes the per-row call and keeps several rows' gathers
// in flight. len(dst) must be at least len(ids); an id whose row does not
// lie inside codes panics, as slicing the row would. As for LUTSum, every
// code byte must be below k.
func LUTSumRows(dst, lut []float32, k int, codes []uint8, m int, ids []int32) {
	dst = dst[:len(ids)]
	lut = lut[:m*k]
	for _, id := range ids {
		_ = codes[int(id)*m+m-1] // the kernels read rows unchecked
	}
	if active.arch {
		lutSumRowsArch(dst, lut, k, codes, m, ids)
	} else {
		lutSumRowsScalar(dst, lut, k, codes, m, ids)
	}
}

// SegmentToCentroids stores in dst[c] the squared Euclidean distance between
// seg and centroid c of one product-quantization subspace, for each of the
// codebook's len(dst) centroids. cbT is that codebook laid out
// centroid-major: row j (cbT[j*len(dst):(j+1)*len(dst)]) holds coordinate j
// of every centroid, so one pass over len(seg) contiguous rows scores all
// centroids — an ADC table row, or the distances an encoder takes the
// argmin of — where the row-major layout needs one SquaredL2 call per
// centroid. Every dst[c] is accumulated on its own in ascending coordinate
// order, so it depends only on seg and on column c.
func SegmentToCentroids(dst, seg, cbT []float32) {
	cbT = cbT[:len(seg)*len(dst)] // single bounds check; kernels assume the shape
	if active.arch {
		segToCentroidsArch(dst, seg, cbT)
	} else {
		segToCentroidsScalar(dst, seg, cbT)
	}
}

// MulRow computes one row of a dense product, dst = x·W, where w holds W
// row-major with len(x) rows of len(dst) columns. It is defined as the
// AXPY loop — clear dst, then AXPY(x[k], row k of W, dst) for every k
// whose x[k] is not ±0 — and every dispatch returns that loop's bits: the
// avx2-fma kernel keeps the output columns in registers across all of x
// (64, 16 and 8 columns at a time, then one) and gives each column the
// same fused multiply-adds in the same order; the other sets run the loop.
// Skipping zero inputs keeps ReLU's sparse activations cheap and keeps a
// zero input's row out of dst even where it holds ±Inf or NaN. dst must
// not alias x or w; len(w) must be len(x)*len(dst).
func MulRow(dst, x, w []float32) {
	w = w[:len(x)*len(dst)] // single bounds check; kernels assume the shape
	if active.arch {
		mulRowArch(dst, x, w)
	} else {
		mulRowScalar(dst, x, w)
	}
}

// L2 returns the Euclidean distance between a and b.
func L2(a, b []float32) float32 {
	return float32(math.Sqrt(float64(SquaredL2(a, b))))
}

// Norm returns the Euclidean norm of a.
func Norm(a []float32) float32 {
	return float32(math.Sqrt(float64(Dot(a, a))))
}

// AXPY computes y += alpha*x in place.
func AXPY(alpha float32, x, y []float32) {
	y = y[:len(x)]
	active.axpy(alpha, x, y)
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add computes dst = a + b elementwise. dst may alias a or b.
func Add(dst, a, b []float32) {
	n := len(a)
	b, dst = b[:n], dst[:n]
	for i := 0; i < n; i++ {
		dst[i] = a[i] + b[i]
	}
}

// Sub computes dst = a - b elementwise. dst may alias a or b.
func Sub(dst, a, b []float32) {
	n := len(a)
	b, dst = b[:n], dst[:n]
	for i := 0; i < n; i++ {
		dst[i] = a[i] - b[i]
	}
}

// Normalize scales x to unit Euclidean norm in place and reports whether it
// succeeded (a zero vector is left unchanged and false is returned).
func Normalize(x []float32) bool {
	n := Norm(x)
	if n == 0 {
		return false
	}
	Scale(1/n, x)
	return true
}

// ArgMax returns the index of the largest element of x, breaking ties toward
// the smallest index. It returns -1 for an empty slice. It is the first
// index of the order TopKIndices and TopKIndicesInto select by (see
// ranksAbove): a NaN after x[0] is never taken, and a NaN x[0] is index 0,
// which is how a routing row whose first leaf is NaN ends with a NaN
// confidence and selects no member. ArgMax(x) is
// TopKIndicesInto(dst, x, 1)[0].
func ArgMax(x []float32) int {
	if len(x) == 0 {
		return -1
	}
	bi := 0
	for i := 1; i < len(x); i++ {
		if ranksAbove(x, i, bi) {
			bi = i
		}
	}
	return bi
}

// ArgMin returns the index of the smallest element of x, breaking ties toward
// the smallest index. It returns -1 for an empty slice. Every dispatch
// returns the index of the scalar loop "if x[i] < best": −0 and +0 tie, a NaN
// after the first element is never taken, and a NaN first element is index
// 0. The PQ encoder and k-means take it over a row's centroid distances.
func ArgMin(x []float32) int {
	if len(x) == 0 {
		return -1
	}
	if active.arch {
		return argMinArch(x)
	}
	return argMinScalar(x)
}
