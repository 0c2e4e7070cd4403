package vecmath

import "os"

// kernels bundles one implementation of the hot microkernels. Exactly
// one set is selected at package init and used for the life of the process;
// mixing implementations within a process would break the bit-identity
// guarantees the query engine is built on (cached norms vs query-side norms,
// batch vs single-row inference), so the choice is deliberately not mutable
// at runtime.
//
// The four block kernels (SegmentToCentroids and LUTSumRows of the
// quantized path, DotRows of the float scan, SquaredL2Rows of the exact
// k-NN joins), ArgMin and MulRow read or write buffers their callers may
// keep on the stack. An indirect call would force those buffers to the
// heap, so the table holds only a flag for them: arch selects the
// per-architecture set (segToCentroidsArch, lutSumRowsArch, dotRowsArch,
// sqL2RowsArch, argMinArch, mulRowArch in dispatch_<arch>.go) over the
// portable set, and the public wrappers call either one directly.
type kernels struct {
	name   string
	dot    func(a, b []float32) float32
	sqL2   func(a, b []float32) float32
	axpy   func(alpha float32, x, y []float32)
	lutSum func(lut []float32, k int, code []uint8) float32
	arch   bool
}

var scalarKernels = kernels{
	name:   "scalar",
	dot:    dotScalar,
	sqL2:   squaredL2Scalar,
	axpy:   axpyScalar,
	lutSum: lutSumScalar,
}

// ForceScalarEnv names the environment variable that pins dispatch to the
// portable scalar kernels regardless of detected CPU features. Any non-empty
// value counts. It exists so the scalar fallback path stays testable on SIMD
// hardware (CI runs the full suite once per dispatch path) and as an escape
// hatch if an assembly kernel ever misbehaves on exotic hardware.
const ForceScalarEnv = "USP_FORCE_SCALAR"

// active is the kernel set every public entry point dispatches through. It
// is written exactly once, during package init — before any other package
// code can run — and is read-only afterwards, so no synchronization is
// needed on the hot path.
var active = scalarKernels

func init() {
	if os.Getenv(ForceScalarEnv) != "" {
		return
	}
	if ks, ok := archKernels(); ok {
		active = ks
	}
}

// Impl reports the name of the active kernel implementation: "scalar",
// "avx2-fma" or "neon". Benchmark reports record it so perf numbers are
// attributable to a code path.
func Impl() string { return active.name }
