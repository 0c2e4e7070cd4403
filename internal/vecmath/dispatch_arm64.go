package vecmath

// arm64 kernel selection. No feature detection is needed: floating-point
// NEON (AdvSIMD) is an architecturally mandatory part of AArch64, so the
// assembly kernels are always usable. USP_FORCE_SCALAR still pins the
// scalar fallback (dispatch.go).

// The assembly kernels (kernels_arm64.s). Marked noescape so passing slice
// arguments never forces the backing arrays to the heap — the query engine's
// zero-allocation guarantee depends on it.

//go:noescape
func dotNEON(a, b []float32) float32

//go:noescape
func sqL2NEON(a, b []float32) float32

//go:noescape
func axpyNEON(alpha float32, x, y []float32)

//go:noescape
func lutSumNEON(lut []float32, k int, code []uint8) float32

var neonKernels = kernels{
	name:   "neon",
	dot:    dotNEON,
	sqL2:   sqL2NEON,
	axpy:   axpyNEON,
	lutSum: lutSumNEON,
	arch:   true,
}

// The block kernels, ArgMin and MulRow have no NEON port yet. The segment
// kernel and ArgMin run the portable code; the multi-row sum, dot product
// and squared distance loop over the NEON single-row kernels, which keeps
// every row bit-equal to LUTSum, Dot and SquaredL2 under this dispatch, and
// the dense row is the AXPY loop over the NEON AXPY.

func segToCentroidsArch(dst, seg, cbT []float32) {
	segToCentroidsScalar(dst, seg, cbT)
}

func argMinArch(x []float32) int {
	return argMinScalar(x)
}

func lutSumRowsArch(dst, lut []float32, k int, codes []uint8, m int, ids []int32) {
	for i, id := range ids {
		o := int(id) * m
		dst[i] = lutSumNEON(lut, k, codes[o:o+m])
	}
}

func dotRowsArch(dst, q, data []float32, dim int, ids []int32) {
	for i, id := range ids {
		o := int(id) * dim
		dst[i] = dotNEON(q, data[o:o+dim])
	}
}

func sqL2RowsArch(dst, q, data []float32, dim int, ids []int32) {
	for i, id := range ids {
		o := int(id) * dim
		dst[i] = sqL2NEON(q, data[o:o+dim])
	}
}

func mulRowArch(dst, x, w []float32) {
	clear(dst)
	for k, xv := range x {
		if xv != 0 {
			axpyNEON(xv, w[k*len(dst):(k+1)*len(dst)], dst)
		}
	}
}

// archKernels returns the best kernel set this CPU supports.
func archKernels() (kernels, bool) {
	return neonKernels, true
}
