//go:build !amd64 && !arm64

package vecmath

// archKernels on architectures without an assembly port: the portable
// scalar kernels are the only implementation. To add a new architecture,
// provide kernels_<arch>.s + dispatch_<arch>.go exporting archKernels (see
// DESIGN.md, "Kernel layer") and exclude the arch from this build tag.
func archKernels() (kernels, bool) { return kernels{}, false }

// Never called (no kernel set here has arch set); present so the wrappers
// compile.

func segToCentroidsArch(dst, seg, cbT []float32) {
	segToCentroidsScalar(dst, seg, cbT)
}

func lutSumRowsArch(dst, lut []float32, k int, codes []uint8, m int, ids []int32) {
	lutSumRowsScalar(dst, lut, k, codes, m, ids)
}

func dotRowsArch(dst, q, data []float32, dim int, ids []int32) {
	dotRowsScalar(dst, q, data, dim, ids)
}

func sqL2RowsArch(dst, q, data []float32, dim int, ids []int32) {
	sqL2RowsScalar(dst, q, data, dim, ids)
}

func argMinArch(x []float32) int {
	return argMinScalar(x)
}

func mulRowArch(dst, x, w []float32) {
	mulRowScalar(dst, x, w)
}
