package vecmath

import (
	"fmt"
	"math/rand"
	"testing"
)

// Per-kernel microbenchmarks across the dimensions the serving and training
// paths actually see (128 = SIFT, 512/1024 = modern embedding widths, 7/129
// = odd tails, 8/64 = block-size boundaries), so scalar-vs-SIMD wins are
// measurable in isolation from the engine:
//
//	go test ./internal/vecmath -bench . -benchmem
//
// Each kernel runs once per implementation (scalar + the architecture port
// when present); sub-benchmark names carry impl and dimension. SetBytes
// reports effective bandwidth (both operands).
var benchDims = []int{7, 8, 64, 128, 129, 512, 1024}

func benchImpls(b *testing.B) []kernels {
	impls := []kernels{scalarKernels}
	if arch, ok := archKernels(); ok {
		impls = append(impls, arch)
	} else {
		b.Logf("no SIMD kernels on this architecture; benchmarking scalar only")
	}
	return impls
}

func BenchmarkDot(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	for _, impl := range benchImpls(b) {
		for _, n := range benchDims {
			x, y := randVec(rng, n), randVec(rng, n)
			b.Run(fmt.Sprintf("%s/dim%d", impl.name, n), func(b *testing.B) {
				b.SetBytes(int64(2 * 4 * n))
				var s float32
				for i := 0; i < b.N; i++ {
					s += impl.dot(x, y)
				}
				sinkF32 = s
			})
		}
	}
}

func BenchmarkSquaredL2(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	for _, impl := range benchImpls(b) {
		for _, n := range benchDims {
			x, y := randVec(rng, n), randVec(rng, n)
			b.Run(fmt.Sprintf("%s/dim%d", impl.name, n), func(b *testing.B) {
				b.SetBytes(int64(2 * 4 * n))
				var s float32
				for i := 0; i < b.N; i++ {
					s += impl.sqL2(x, y)
				}
				sinkF32 = s
			})
		}
	}
}

func BenchmarkAXPY(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	for _, impl := range benchImpls(b) {
		for _, n := range benchDims {
			x, y := randVec(rng, n), randVec(rng, n)
			b.Run(fmt.Sprintf("%s/dim%d", impl.name, n), func(b *testing.B) {
				b.SetBytes(int64(3 * 4 * n)) // read x, read+write y
				for i := 0; i < b.N; i++ {
					impl.axpy(0.37, x, y)
				}
			})
		}
	}
}

// BenchmarkLUTSum covers the ADC scan kernel at the subspace counts the
// quantized index uses in practice (m=8..64 at k=16 or 256; bytes/vector
// equals m). SetBytes counts the code bytes plus the gathered floats.
func BenchmarkLUTSum(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	for _, impl := range benchImpls(b) {
		for _, shape := range []struct{ m, k int }{
			{8, 256}, {16, 256}, {16, 16}, {32, 256}, {64, 256},
		} {
			lut := randVec(rng, shape.m*shape.k)
			code := make([]uint8, shape.m)
			for i := range code {
				code[i] = uint8(rng.Intn(shape.k))
			}
			b.Run(fmt.Sprintf("%s/m%dk%d", impl.name, shape.m, shape.k), func(b *testing.B) {
				b.SetBytes(int64(shape.m * 5)) // 1 code byte + 1 gathered float per subspace
				var s float32
				for i := 0; i < b.N; i++ {
					s += impl.lutSum(lut, shape.k, code)
				}
				sinkF32 = s
			})
		}
	}
}

// BenchmarkSegmentToCentroids times one ADC table row (or one subspace of
// an encode): a sub-vector against all k centroids of a centroid-major
// codebook, at the sub-dimensions 128-d vectors give for m = 32, 16 and 8.
func BenchmarkSegmentToCentroids(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	for _, impl := range blockImpls() {
		for _, shape := range []struct{ d, k int }{
			{4, 256}, {8, 256}, {16, 256}, {4, 16}, {8, 16},
		} {
			seg, cbT := randVec(rng, shape.d), randVec(rng, shape.d*shape.k)
			dst := make([]float32, shape.k)
			b.Run(fmt.Sprintf("%s/d%dk%d", impl.name, shape.d, shape.k), func(b *testing.B) {
				b.SetBytes(int64(4 * shape.d * shape.k))
				for i := 0; i < b.N; i++ {
					impl.seg(dst, seg, cbT)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shape.k), "ns/centroid")
			})
		}
	}
}

// BenchmarkLUTSumRows times the block form of the ADC scan kernel: 256
// candidate ids scattered over a 64k-row code buffer per call, as a probed
// bin's ids are. Compare ns/row with BenchmarkLUTSum's ns/op.
func BenchmarkLUTSumRows(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	const rows, block = 1 << 16, 256
	for _, impl := range blockImpls() {
		for _, m := range []int{8, 16, 32, 64} {
			for _, k := range []int{16, 256} {
				lut := randVec(rng, m*k)
				codes := make([]uint8, rows*m)
				for i := range codes {
					codes[i] = uint8(rng.Intn(k))
				}
				ids := make([]int32, block)
				for i := range ids {
					ids[i] = int32(rng.Intn(rows))
				}
				dst := make([]float32, block)
				b.Run(fmt.Sprintf("%s/m%dk%d", impl.name, m, k), func(b *testing.B) {
					b.SetBytes(int64(block * m * 5)) // 1 code byte + 1 gathered float per subspace
					for i := 0; i < b.N; i++ {
						impl.rows(dst, lut, k, codes, m, ids)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*block), "ns/row")
				})
			}
		}
	}
}

// BenchmarkDotRows times the block form of the float scan kernel on the
// float_small shape: 1000 candidate ids gathered from an 8000-row buffer per
// call, as a probed bin's ids are. The looped sub-benchmark scores the same
// ids with one single-row dot call per row, through a function value as the
// kernel table dispatches it — the loop the block kernel replaced.
func BenchmarkDotRows(b *testing.B) {
	rng := rand.New(rand.NewSource(27))
	const rows, n = 8000, 1000
	for _, impl := range blockImpls() {
		for _, dim := range []int{64, 128, 512} {
			q, data := randVec(rng, dim), randVec(rng, rows*dim)
			ids := make([]int32, n)
			for i := range ids {
				ids[i] = int32(rng.Intn(rows))
			}
			dst := make([]float32, n)
			nsPerRow := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
			}
			b.Run(fmt.Sprintf("%s/dim%d/block", impl.name, dim), func(b *testing.B) {
				b.SetBytes(int64(n * dim * 4))
				for i := 0; i < b.N; i++ {
					impl.dots(dst, q, data, dim, ids)
				}
				nsPerRow(b)
			})
			b.Run(fmt.Sprintf("%s/dim%d/looped", impl.name, dim), func(b *testing.B) {
				b.SetBytes(int64(n * dim * 4))
				for i := 0; i < b.N; i++ {
					for j, id := range ids {
						dst[j] = impl.dot(q, data[int(id)*dim:(int(id)+1)*dim])
					}
				}
				nsPerRow(b)
			})
		}
	}
}

// BenchmarkSquaredL2Rows times the block form of the exact k-NN joins'
// kernel on BuildMatrix's shape: one row scored against a 128-row tile of
// consecutive rows of an 8000-row buffer per call. The looped sub-benchmark
// scores the same rows with one single-row SquaredL2 call per row, through a
// function value as the kernel table dispatches it — the loop BuildMatrix
// ran before.
func BenchmarkSquaredL2Rows(b *testing.B) {
	rng := rand.New(rand.NewSource(30))
	const rows, n = 8000, 128
	for _, impl := range blockImpls() {
		for _, dim := range []int{64, 128, 512} {
			q, data := randVec(rng, dim), randVec(rng, rows*dim)
			ids := make([]int32, n)
			for i := range ids {
				ids[i] = int32(rows/2 + i)
			}
			dst := make([]float32, n)
			nsPerRow := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
			}
			b.Run(fmt.Sprintf("%s/dim%d/block", impl.name, dim), func(b *testing.B) {
				b.SetBytes(int64(n * dim * 4))
				for i := 0; i < b.N; i++ {
					impl.sqL2s(dst, q, data, dim, ids)
				}
				nsPerRow(b)
			})
			b.Run(fmt.Sprintf("%s/dim%d/looped", impl.name, dim), func(b *testing.B) {
				b.SetBytes(int64(n * dim * 4))
				for i := 0; i < b.N; i++ {
					for j, id := range ids {
						dst[j] = impl.sqL2(q, data[int(id)*dim:(int(id)+1)*dim])
					}
				}
				nsPerRow(b)
			})
		}
	}
}

// BenchmarkArgMin times the encoder's per-subspace argmin: the index of the
// nearest of k centroid distances, at the codebook sizes PQ uses.
func BenchmarkArgMin(b *testing.B) {
	rng := rand.New(rand.NewSource(28))
	for _, impl := range blockImpls() {
		for _, k := range []int{16, 256} {
			x := randVec(rng, k)
			b.Run(fmt.Sprintf("%s/k%d", impl.name, k), func(b *testing.B) {
				b.SetBytes(int64(4 * k))
				s := 0
				for i := 0; i < b.N; i++ {
					s += impl.argMin(x)
				}
				sinkInt = s
			})
		}
	}
}

// BenchmarkMulRow times one dense row, dst = x·W, at the layer shapes the
// partitioners run (128→64 and 64→64 hidden layers, 64→16 output): the
// register-blocked kernel of each implementation beside the AXPY loop it
// reproduces, through a function value as the kernel table dispatches it.
// Half of x is zero, as after a ReLU.
func BenchmarkMulRow(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	for _, impl := range blockImpls() {
		for _, shape := range []struct{ k, c int }{{128, 64}, {64, 64}, {64, 16}} {
			x, w := randVec(rng, shape.k), randVec(rng, shape.k*shape.c)
			for i := 0; i < len(x); i += 2 {
				x[i] = 0
			}
			dst := make([]float32, shape.c)
			b.Run(fmt.Sprintf("%s/%dx%d/kernel", impl.name, shape.k, shape.c), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					impl.mulRow(dst, x, w)
				}
			})
			b.Run(fmt.Sprintf("%s/%dx%d/axpyloop", impl.name, shape.k, shape.c), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					axpyLoop(impl.axpy, dst, x, w)
				}
			})
		}
	}
}

// sinkF32 and sinkInt defeat dead-code elimination of the benchmarked
// reductions.
var (
	sinkF32 float32
	sinkInt int
)
