package vecmath

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzKernelEquivalence feeds arbitrary byte strings to every SIMD kernel
// and checks agreement with the scalar reference under the same forward
// error bound the deterministic equivalence tests use (ArgMin, on the raw
// bits, must return the same index; the block kernels and MulRow must
// return their own single-row kernels' bits, and the multi-row squared
// distance those bits with the operands in either order). The raw bytes decode
// into two equal-length float32 vectors (so lengths 0, 1 and every odd tail
// arise naturally from the input length); non-finite and extreme values are
// squashed to keep the error bound meaningful — NaN/Inf propagation is
// identical in all implementations but makes tolerances vacuous.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{}, float32(1.5))                                       // empty
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, float32(0))                   // length 1
	f.Add(make([]byte, 8*7), float32(-2))                               // odd tail
	f.Add(make([]byte, 8*8), float32(0.25))                             // one lane block
	f.Add(make([]byte, 8*129), float32(1e3))                            // big + tail
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0x80, 0x7f}, float32(1)) // NaN/Inf bits
	// Block-kernel legs: raw[0]+1 is the table width / codebook size k and
	// raw[1] picks the sub-dimension, so these cover k ∈ {1, 7, 8, 16, 255,
	// 256} at sub-dimensions 1–9 with enough floats for several rows.
	for i, k := range []int{1, 7, 8, 16, 255, 256} {
		raw := make([]byte, 8*(k*5+3))
		for j := range raw {
			raw[j] = byte(j * (i + 3))
		}
		raw[0], raw[1] = byte(k-1), byte(2*i)
		f.Add(raw, float32(1))
	}
	f.Fuzz(func(t *testing.T, raw []byte, alpha float32) {
		arch, ok := archKernels()
		if !ok {
			t.Skip("no SIMD kernels on this architecture")
		}
		// ArgMin leg, on the raw bits: NaN, ±Inf and ±0 included, since an
		// index has no tolerance to make vacuous.
		if len(raw) >= 4 {
			x := make([]float32, len(raw)/4)
			for i := range x {
				x[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
			}
			if got, want := argMinArch(x), argMinScalar(x); got != want {
				t.Fatalf("argMin: %s=%d scalar=%d (n=%d)", arch.name, got, want, len(x))
			}
		}
		n := len(raw) / 8
		a := make([]float32, n)
		b := make([]float32, n)
		for i := 0; i < n; i++ {
			a[i] = sanitize(binary.LittleEndian.Uint32(raw[i*8:]))
			b[i] = sanitize(binary.LittleEndian.Uint32(raw[i*8+4:]))
		}
		if !isFinite32(alpha) || math.Abs(float64(alpha)) > 1e6 {
			alpha = 1
		}

		var dotMass, sqMass float64
		for i := range a {
			dotMass += math.Abs(float64(a[i]) * float64(b[i]))
			d := float64(a[i]) - float64(b[i])
			sqMass += d * d
		}
		if got, want := float64(arch.dot(a, b)), float64(dotScalar(a, b)); math.Abs(got-want) > reductionTol(n, dotMass) {
			t.Fatalf("dot: %s=%v scalar=%v (n=%d)", arch.name, got, want, n)
		}
		if got, want := float64(arch.sqL2(a, b)), float64(squaredL2Scalar(a, b)); math.Abs(got-want) > reductionTol(n, sqMass) {
			t.Fatalf("sqL2: %s=%v scalar=%v (n=%d)", arch.name, got, want, n)
		}

		y1 := append([]float32(nil), b...)
		y2 := append([]float32(nil), b...)
		axpyScalar(alpha, a, y1)
		arch.axpy(alpha, a, y2)
		const eps = 1.1920929e-7
		for i := range y1 {
			tol := 4*eps*(math.Abs(float64(y1[i]))+math.Abs(float64(alpha)*float64(a[i]))) + 1e-12
			if d := math.Abs(float64(y1[i]) - float64(y2[i])); d > tol {
				t.Fatalf("axpy: y[%d] %s=%v scalar=%v alpha=%v", i, arch.name, y2[i], y1[i], alpha)
			}
		}

		// LUT-sum leg: reuse the decoded floats as an ADC table. The table
		// width k is derived from the raw bytes (1..256), the subspace count
		// from what the floats can fill, and codes from the raw bytes
		// reduced into range — so block boundaries, degenerate k=1 rows and
		// the k=256 ceiling all arise from fuzzed inputs.
		if n > 0 {
			k := 1 + int(raw[0])
			m := (2 * n) / k // a and b back-to-back form a 2n-float table
			flat := make([]float32, 0, 2*n)
			flat = append(flat, a...)
			flat = append(flat, b...)
			if m > 0 {
				lut := flat[:m*k]
				code := make([]uint8, m)
				for i := range code {
					code[i] = uint8(int(raw[i%len(raw)]) % k)
				}
				var lutMass float64
				for s, c := range code {
					lutMass += math.Abs(float64(lut[s*k+int(c)]))
				}
				if got, want := float64(arch.lutSum(lut, k, code)), float64(lutSumScalar(lut, k, code)); math.Abs(got-want) > reductionTol(m, lutMass) {
					t.Fatalf("lutSum: %s=%v scalar=%v (m=%d k=%d)", arch.name, got, want, m, k)
				}
			}

			// Multi-row leg: the same table against a code buffer of a few
			// rows of m2 codes, ids (repeats, any order, possibly none)
			// from the raw bytes. Each implementation's block kernel must
			// reproduce its own single-row kernel bit for bit.
			if m2 := min(m, 1+int(raw[1])%40); m2 > 0 {
				lut := flat[:m2*k]
				rows := 1 + len(raw)%5
				codes := make([]uint8, rows*m2)
				for i := range codes {
					codes[i] = uint8(int(raw[(i*7+1)%len(raw)]) % k)
				}
				ids := make([]int32, len(raw)%11)
				for i := range ids {
					ids[i] = int32(int(raw[(i*3+2)%len(raw)]) % rows)
				}
				gotS, gotA := make([]float32, len(ids)), make([]float32, len(ids))
				lutSumRowsScalar(gotS, lut, k, codes, m2, ids)
				lutSumRowsArch(gotA, lut, k, codes, m2, ids)
				for i, id := range ids {
					row := codes[int(id)*m2 : (int(id)+1)*m2]
					if w := lutSumScalar(lut, k, row); math.Float32bits(gotS[i]) != math.Float32bits(w) {
						t.Fatalf("lutSumRows scalar: dst[%d]=%v single-row %v (m=%d k=%d)", i, gotS[i], w, m2, k)
					}
					if w := arch.lutSum(lut, k, row); math.Float32bits(gotA[i]) != math.Float32bits(w) {
						t.Fatalf("lutSumRows %s: dst[%d]=%v single-row %v (m=%d k=%d)", arch.name, i, gotA[i], w, m2, k)
					}
				}
			}

			// Multi-row dot leg: a's head is the query, b a row buffer of
			// dimension dim (1–150, whatever the input length leaves as a
			// tail), ids (repeats, any order, possibly none) from the raw
			// bytes. Each implementation's block kernel must reproduce its
			// own single-row kernel bit for bit, and the two implementations
			// agree per row inside the reduction tolerance.
			if dim := min(n, 1+int(raw[1])%150); dim > 0 {
				q, rows := a[:dim], n/dim
				ids := make([]int32, len(raw)%11)
				for i := range ids {
					ids[i] = int32(int(raw[(i*5+3)%len(raw)]) % rows)
				}
				gotS, gotA := make([]float32, len(ids)), make([]float32, len(ids))
				dotRowsScalar(gotS, q, b, dim, ids)
				dotRowsArch(gotA, q, b, dim, ids)
				for i, id := range ids {
					row := b[int(id)*dim : (int(id)+1)*dim]
					if w := dotScalar(q, row); math.Float32bits(gotS[i]) != math.Float32bits(w) {
						t.Fatalf("dotRows scalar: dst[%d]=%v single-row %v (dim=%d)", i, gotS[i], w, dim)
					}
					if w := arch.dot(q, row); math.Float32bits(gotA[i]) != math.Float32bits(w) {
						t.Fatalf("dotRows %s: dst[%d]=%v single-row %v (dim=%d)", arch.name, i, gotA[i], w, dim)
					}
					var mass float64
					for j := range row {
						mass += math.Abs(float64(q[j]) * float64(row[j]))
					}
					if math.Abs(float64(gotA[i])-float64(gotS[i])) > reductionTol(dim, mass) {
						t.Fatalf("dotRows: row %d %s=%v scalar=%v (dim=%d)", id, arch.name, gotA[i], gotS[i], dim)
					}
				}
			}

			// Multi-row squared-distance leg: the same query, row buffer
			// and shapes as the dot leg, with ids drawn from other raw
			// bytes. Each implementation's block kernel must reproduce its
			// own single-row kernel bit for bit with the operands in either
			// order, and the two implementations agree per row inside the
			// reduction tolerance.
			if dim := min(n, 1+int(raw[1])%150); dim > 0 {
				q, rows := a[:dim], n/dim
				ids := make([]int32, len(raw)%13)
				for i := range ids {
					ids[i] = int32(int(raw[(i*7+5)%len(raw)]) % rows)
				}
				gotS, gotA := make([]float32, len(ids)), make([]float32, len(ids))
				sqL2RowsScalar(gotS, q, b, dim, ids)
				sqL2RowsArch(gotA, q, b, dim, ids)
				for i, id := range ids {
					row := b[int(id)*dim : (int(id)+1)*dim]
					for _, leg := range []struct {
						name string
						got  float32
						sqL2 func(a, b []float32) float32
					}{{"scalar", gotS[i], squaredL2Scalar}, {arch.name, gotA[i], arch.sqL2}} {
						if w := leg.sqL2(q, row); math.Float32bits(leg.got) != math.Float32bits(w) {
							t.Fatalf("sqL2Rows %s: dst[%d]=%v single-row %v (dim=%d)", leg.name, i, leg.got, w, dim)
						}
						if w := leg.sqL2(row, q); math.Float32bits(leg.got) != math.Float32bits(w) {
							t.Fatalf("sqL2Rows %s: dst[%d]=%v swapped single-row %v (dim=%d)", leg.name, i, leg.got, w, dim)
						}
					}
					var mass float64
					for j := range row {
						d := float64(q[j]) - float64(row[j])
						mass += d * d
					}
					if math.Abs(float64(gotA[i])-float64(gotS[i])) > reductionTol(dim, mass) {
						t.Fatalf("sqL2Rows: row %d %s=%v scalar=%v (dim=%d)", id, arch.name, gotA[i], gotS[i], dim)
					}
				}
			}

			// Dense-row leg: a's head is the input row (0–149 inputs, any
			// tail) and b the weights of as many columns (1–150) as it
			// fills. The architecture's register-blocked kernel must
			// reproduce its own AXPY loop bit for bit.
			nx := min(n, int(raw[0])%150)
			cols := max(1, min(1+int(raw[1])%150, n/max(nx, 1)))
			x, w := a[:nx], b[:nx*cols]
			got, want := make([]float32, cols), make([]float32, cols)
			mulRowArch(got, x, w)
			axpyLoop(arch.axpy, want, x, w)
			for c := range want {
				if math.Float32bits(got[c]) != math.Float32bits(want[c]) {
					t.Fatalf("mulRow %s: dst[%d]=%v AXPY loop %v (k=%d c=%d)", arch.name, c, got[c], want[c], nx, cols)
				}
			}

			// Segment leg: the floats as a centroid-major codebook of k
			// centroids and sub-dimension d (1–9, as many as they fill), the
			// last d floats as the query segment.
			if d := min(1+int(raw[1])%9, 2*n/k); d > 0 {
				seg, cbT := flat[2*n-d:], flat[:d*k]
				got, want := make([]float32, k), make([]float32, k)
				segToCentroidsArch(got, seg, cbT)
				segToCentroidsScalar(want, seg, cbT)
				for c := range want {
					var mass float64
					for j := 0; j < d; j++ {
						diff := float64(seg[j]) - float64(cbT[j*k+c])
						mass += diff * diff
					}
					if math.Abs(float64(got[c])-float64(want[c])) > reductionTol(d, mass) {
						t.Fatalf("segToCentroids: centroid %d %s=%v scalar=%v (d=%d k=%d)", c, arch.name, got[c], want[c], d, k)
					}
				}
			}
		}
	})
}

// sanitize maps arbitrary float32 bit patterns into a finite, moderate
// range so tolerance comparisons stay sharp.
func sanitize(bits uint32) float32 {
	v := math.Float32frombits(bits)
	if !isFinite32(v) {
		return 1
	}
	if av := math.Abs(float64(v)); av > 1e12 || (av != 0 && av < 1e-12) {
		return float32(math.Mod(av, 1000)) // fold extreme magnitudes down
	}
	return v
}

func isFinite32(v float32) bool {
	f := float64(v)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}
