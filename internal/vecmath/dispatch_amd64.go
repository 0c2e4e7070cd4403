package vecmath

// amd64 kernel selection. Feature detection is hand-rolled (CPUID + XGETBV,
// cpu_amd64.s) rather than pulled from golang.org/x/sys/cpu to keep the
// module dependency-free; the checks mirror that package's AVX2 logic:
// the CPU must advertise AVX2 and FMA, and the OS must have enabled
// XMM+YMM state saving (OSXSAVE set and XCR0 bits 1-2 on), otherwise
// executing VEX-encoded instructions faults.

// cpuid executes the CPUID instruction for the given leaf/subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register XCR0.
func xgetbv0() (eax, edx uint32)

// The assembly kernels (kernels_amd64.s). Marked noescape so passing slice
// arguments never forces the backing arrays to the heap — the query engine's
// zero-allocation guarantee depends on it.

//go:noescape
func dotAVX2(a, b []float32) float32

//go:noescape
func sqL2AVX2(a, b []float32) float32

//go:noescape
func axpyAVX2(alpha float32, x, y []float32)

//go:noescape
func lutSumAVX2(lut []float32, k int, code []uint8) float32

//go:noescape
func segToCentroidsAVX2(dst, seg, cbT []float32)

//go:noescape
func lutSumRowsAVX2(dst, lut []float32, k int, codes []uint8, m int, ids []int32)

//go:noescape
func dotRowsAVX2(dst, q, data []float32, dim int, ids []int32)

//go:noescape
func sqL2RowsAVX2(dst, q, data []float32, dim int, ids []int32)

//go:noescape
func argMinAVX2(x []float32) int

//go:noescape
func mulRowAVX2(dst, x, w []float32)

var avx2Kernels = kernels{
	name:   "avx2-fma",
	dot:    dotAVX2,
	sqL2:   sqL2AVX2,
	axpy:   axpyAVX2,
	lutSum: lutSumAVX2,
	arch:   true,
}

// The kernels the wrappers call directly when avx2Kernels is active (see
// the kernels type for why they are not table entries).

func segToCentroidsArch(dst, seg, cbT []float32) {
	segToCentroidsAVX2(dst, seg, cbT)
}

func lutSumRowsArch(dst, lut []float32, k int, codes []uint8, m int, ids []int32) {
	lutSumRowsAVX2(dst, lut, k, codes, m, ids)
}

func dotRowsArch(dst, q, data []float32, dim int, ids []int32) {
	dotRowsAVX2(dst, q, data, dim, ids)
}

func sqL2RowsArch(dst, q, data []float32, dim int, ids []int32) {
	sqL2RowsAVX2(dst, q, data, dim, ids)
}

func argMinArch(x []float32) int {
	return argMinAVX2(x)
}

func mulRowArch(dst, x, w []float32) {
	mulRowAVX2(dst, x, w)
}

// archKernels returns the best kernel set this CPU supports.
func archKernels() (kernels, bool) {
	if !hasAVX2FMA() {
		return kernels{}, false
	}
	return avx2Kernels, true
}

func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		bitFMA     = 1 << 12 // leaf 1 ECX
		bitOSXSAVE = 1 << 27 // leaf 1 ECX
		bitAVX     = 1 << 28 // leaf 1 ECX
		bitAVX2    = 1 << 5  // leaf 7 EBX
	)
	_, _, ecx1, _ := cpuid(1, 0)
	want := uint32(bitFMA | bitOSXSAVE | bitAVX)
	if ecx1&want != want {
		return false
	}
	// XCR0 bits 1 (SSE/XMM) and 2 (AVX/YMM) must both be OS-enabled.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&bitAVX2 != 0
}
