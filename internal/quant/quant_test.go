package quant

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/vecmath"
)

func blobs(seed int64, n, dim int) *dataset.Dataset {
	return dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: n, Dim: dim, Clusters: 8, ClusterStd: 0.2, CenterBox: 3,
	}, rand.New(rand.NewSource(seed))).Dataset
}

// encode quantizes every row of ds into one flat code buffer.
func encode(t testing.TB, pq *PQ, ds *dataset.Dataset) []uint8 {
	t.Helper()
	codes, err := pq.EncodeInto(nil, ds)
	if err != nil {
		t.Fatal(err)
	}
	return codes
}

// decode reconstructs the vector a code represents.
func decode(pq *PQ, code []uint8) []float32 {
	out := make([]float32, pq.Dim)
	for s := 0; s < pq.Subspaces; s++ {
		copy(out[pq.Bounds[s]:pq.Bounds[s+1]], pq.Codebooks[s].Row(int(code[s])))
	}
	return out
}

// lutDistance is the ADC distance summed in subspace order over a flat
// table, the reference the kernel's four-accumulator LUTSum is held to.
func lutDistance(lut []float32, k int, code []uint8) float32 {
	var d float32
	for s, c := range code {
		d += lut[s*k+int(c)]
	}
	return d
}

// buildLUT is the per-query ADC table computed row-major, one SquaredL2 per
// (subspace, centroid): row s holds Codebooks[s].N entries.
func buildLUT(pq *PQ, q []float32) [][]float32 {
	lut := make([][]float32, pq.Subspaces)
	for s, cb := range pq.Codebooks {
		lut[s] = make([]float32, cb.N)
		for c := range lut[s] {
			lut[s][c] = vecmath.SquaredL2(q[pq.Bounds[s]:pq.Bounds[s+1]], cb.Row(c))
		}
	}
	return lut
}

// encodeVec is the code of v as the first minimum of each row of v's table.
func encodeVec(pq *PQ, v []float32) []uint8 {
	lut := pq.AppendLUT(nil, v)
	code := make([]uint8, pq.Subspaces)
	for s, cb := range pq.Codebooks {
		row := lut[s*pq.K : s*pq.K+cb.N]
		for c, d := range row {
			if d < row[code[s]] {
				code[s] = uint8(c)
			}
		}
	}
	return code
}

// trainUneven fits a quantizer whose subspaces split ds's dimensions at
// bounds. Train refuses a split that is not even, so this shape reaches
// the scoring code only through FromCodebooks, as a stored quantizer.
func trainUneven(t *testing.T, ds *dataset.Dataset, bounds []int, cfg Config) *PQ {
	t.Helper()
	cfg = cfg.withDefaults()
	cbs := make([]*dataset.Dataset, len(bounds)-1)
	for s := range cbs {
		cb, err := trainSubspace(ds, bounds[s], bounds[s+1], cfg, cfg.Seed+int64(s))
		if err != nil {
			t.Fatal(err)
		}
		cbs[s] = cb
	}
	pq, err := FromCodebooks(ds.Dim, cfg.K, bounds, cbs)
	if err != nil {
		t.Fatal(err)
	}
	return pq
}

func reconstructionMSE(t testing.TB, pq *PQ, ds *dataset.Dataset) float64 {
	codes := encode(t, pq, ds)
	m := pq.Subspaces
	var mse float64
	for i := 0; i < ds.N; i++ {
		rec := decode(pq, codes[i*m:(i+1)*m])
		mse += float64(vecmath.SquaredL2(ds.Row(i), rec))
	}
	return mse / float64(ds.N)
}

func TestTrainEncodeDecodeRoundTrip(t *testing.T) {
	ds := blobs(1, 400, 16)
	pq, err := Train(ds, Config{Subspaces: 4, K: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	codes := encode(t, pq, ds)
	if len(codes) != ds.N*4 {
		t.Fatalf("codes length %d, want %d rows of 4", len(codes), ds.N)
	}
	rec := decode(pq, codes[:4])
	if len(rec) != 16 {
		t.Fatalf("decode dim %d", len(rec))
	}
	// Reconstruction must be far better than quantizing to the global mean.
	mse := reconstructionMSE(t, pq, ds)
	mean := make([]float32, ds.Dim)
	for i := 0; i < ds.N; i++ {
		vecmath.AXPY(1/float32(ds.N), ds.Row(i), mean)
	}
	var meanMSE float64
	for i := 0; i < ds.N; i++ {
		meanMSE += float64(vecmath.SquaredL2(ds.Row(i), mean))
	}
	meanMSE /= float64(ds.N)
	if mse > meanMSE/4 {
		t.Fatalf("PQ MSE %v vs mean-baseline %v", mse, meanMSE)
	}
}

func TestMoreCentroidsLowerError(t *testing.T) {
	ds := blobs(3, 500, 16)
	var prev float64 = -1
	for _, k := range []int{4, 16, 64} {
		pq, err := Train(ds, Config{Subspaces: 4, K: k, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		mse := reconstructionMSE(t, pq, ds)
		if prev >= 0 && mse > prev*1.05 {
			t.Fatalf("MSE rose from %v to %v at K=%d", prev, mse, k)
		}
		prev = mse
	}
}

func TestLUTMatchesDecodedDistance(t *testing.T) {
	ds := blobs(5, 200, 12)
	pq, err := Train(ds, Config{Subspaces: 3, K: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	codes := encode(t, pq, ds)
	rng := rand.New(rand.NewSource(7))
	q := make([]float32, 12)
	for j := range q {
		q[j] = float32(rng.NormFloat64())
	}
	lut := pq.AppendLUT(nil, q)
	for i := 0; i < 50; i++ {
		code := codes[i*3 : (i+1)*3]
		adc := float64(vecmath.LUTSum(lut, pq.K, code))
		exact := float64(vecmath.SquaredL2(q, decode(pq, code)))
		if math.Abs(adc-exact) > 1e-3*(1+exact) {
			t.Fatalf("point %d: ADC %v vs decoded %v", i, adc, exact)
		}
	}
}

func TestUnevenDimensionSplit(t *testing.T) {
	// 10 dims over 3 subspaces do not split evenly: Train must refuse.
	ds := blobs(8, 100, 10)
	if _, err := Train(ds, Config{Subspaces: 3, K: 4, Seed: 9}); err == nil {
		t.Fatal("uneven split should fail")
	}
	// A stored quantizer may still carry bounds 0,3,6,10; it encodes and
	// decodes all 10 dimensions.
	pq := trainUneven(t, ds, []int{0, 3, 6, 10}, Config{K: 4, Seed: 9})
	if got := len(pq.Codebooks[2].Row(0)); got != 4 {
		t.Fatalf("last subspace width %d", got)
	}
	rec := decode(pq, pq.AppendCode(nil, ds.Row(0)))
	if len(rec) != 10 {
		t.Fatalf("decode width %d", len(rec))
	}
}

func TestTrainValidation(t *testing.T) {
	ds := blobs(10, 50, 8)
	if _, err := Train(ds, Config{Subspaces: 0}); err == nil {
		t.Fatal("Subspaces=0 should fail")
	}
	if _, err := Train(ds, Config{Subspaces: 9}); err == nil {
		t.Fatal("Subspaces>dim should fail")
	}
	if _, err := Train(ds, Config{Subspaces: 2, K: 300}); err == nil {
		t.Fatal("K>256 should fail")
	}
	if _, err := Train(ds, Config{Subspaces: 2, K: 64}); err == nil {
		t.Fatal("K>n should fail")
	}
	if _, err := Train(ds, Config{Subspaces: 3, K: 4}); err == nil {
		t.Fatal("dim not divisible by Subspaces should fail")
	}
	if _, err := Train(nil, Config{Subspaces: 2, K: 4}); err == nil {
		t.Fatal("nil dataset should fail")
	}
	if _, err := Train(dataset.New(0, 8), Config{Subspaces: 2, K: 4}); err == nil {
		t.Fatal("empty dataset should fail")
	}
}

func TestEncodeIntoMatchesEncode(t *testing.T) {
	ds := blobs(21, 300, 16)
	pq, err := Train(ds, Config{Subspaces: 4, K: 16, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	flat := encode(t, pq, ds)
	if len(flat) != ds.N*pq.Subspaces {
		t.Fatalf("flat len %d, want %d", len(flat), ds.N*pq.Subspaces)
	}
	for i := 0; i < ds.N; i++ {
		want := pq.AppendCode(nil, ds.Row(i))
		for s := 0; s < pq.Subspaces; s++ {
			if flat[i*pq.Subspaces+s] != want[s] {
				t.Fatalf("row %d subspace %d: flat %d vs per-row %d", i, s, flat[i*pq.Subspaces+s], want[s])
			}
		}
	}
	// Reuse: a large-enough buffer must be written in place, not replaced.
	buf := make([]uint8, 0, ds.N*pq.Subspaces)
	out, err := pq.EncodeInto(buf, ds)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("EncodeInto reallocated despite sufficient capacity")
	}
	// Dim mismatch must fail.
	if _, err := pq.EncodeInto(nil, blobs(23, 10, 8)); err == nil {
		t.Fatal("dim mismatch should fail")
	}
}

func TestAppendCodeMatchesEncodeVec(t *testing.T) {
	ds := blobs(25, 200, 16)
	pq, err := Train(ds, Config{Subspaces: 4, K: 16, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	var codes []uint8
	for i := 0; i < 50; i++ {
		codes = pq.AppendCode(codes, ds.Row(i))
	}
	if len(codes) != 50*pq.Subspaces {
		t.Fatalf("appended len %d", len(codes))
	}
	for i := 0; i < 50; i++ {
		want := encodeVec(pq, ds.Row(i))
		for s, c := range want {
			if codes[i*pq.Subspaces+s] != c {
				t.Fatalf("row %d subspace %d mismatch", i, s)
			}
		}
	}
}

func TestAppendLUTMatchesBuildLUT(t *testing.T) {
	ds := blobs(27, 200, 16)
	pq, err := Train(ds, Config{Subspaces: 4, K: 8, Seed: 28})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	q := make([]float32, 16)
	for j := range q {
		q[j] = float32(rng.NormFloat64())
	}
	nested := buildLUT(pq, q)
	flat := pq.AppendLUT(nil, q)
	if len(flat) != pq.Subspaces*pq.K {
		t.Fatalf("flat LUT len %d, want %d", len(flat), pq.Subspaces*pq.K)
	}
	for s := 0; s < pq.Subspaces; s++ {
		for c, want := range nested[s] {
			if got := flat[s*pq.K+c]; math.Abs(float64(got-want)) > 1e-5*(1+float64(want)) {
				t.Fatalf("LUT[%d][%d]: flat %v vs row-major %v", s, c, got, want)
			}
		}
	}
	// The flat table drives the dispatched kernel; its distances must match
	// the sequential sum over the same entries up to summation order.
	codes := encode(t, pq, ds)
	for i := 0; i < 50; i++ {
		code := codes[i*pq.Subspaces : (i+1)*pq.Subspaces]
		got := float64(vecmath.LUTSum(flat, pq.K, code))
		want := float64(lutDistance(flat, pq.K, code))
		if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("row %d: LUTSum %v vs sequential sum %v", i, got, want)
		}
	}
}

func TestAnisotropicRefineRuns(t *testing.T) {
	ds := blobs(11, 300, 16)
	iso, err := Train(ds, Config{Subspaces: 4, K: 8, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	aniso, err := Train(ds, Config{Subspaces: 4, K: 8, Seed: 12, Anisotropic: true})
	if err != nil {
		t.Fatal(err)
	}
	// Anisotropic codebooks trade reconstruction MSE for score fidelity;
	// they must stay within a reasonable factor of the isotropic MSE.
	mi, ma := reconstructionMSE(t, iso, ds), reconstructionMSE(t, aniso, ds)
	if ma > mi*3 {
		t.Fatalf("anisotropic MSE %v vs isotropic %v", ma, mi)
	}
}

func TestSolveLinear(t *testing.T) {
	// 2x2 system: {{2,1},{1,3}} x = {5,10} → x = {1,3}.
	sol, ok := solveLinear([]float64{2, 1, 1, 3}, []float64{5, 10}, 2)
	if !ok {
		t.Fatal("solver failed")
	}
	if math.Abs(sol[0]-1) > 1e-9 || math.Abs(sol[1]-3) > 1e-9 {
		t.Fatalf("sol = %v", sol)
	}
	// Singular system.
	if _, ok := solveLinear([]float64{1, 1, 1, 1}, []float64{1, 2}, 2); ok {
		t.Fatal("singular system should fail")
	}
}

func TestScaNNSearchRecall(t *testing.T) {
	ds := blobs(13, 800, 16)
	s, err := NewScaNN(ds, Config{Subspaces: 4, K: 16, Seed: 14, Anisotropic: true})
	if err != nil {
		t.Fatal(err)
	}
	gt := knn.GroundTruth(ds, ds, 10)
	var recall float64
	for qi := 0; qi < 60; qi++ {
		ns := s.Search(ds.Row(qi), 10, nil)
		recall += knn.RecallNeighbors(ns, gt[qi])
	}
	recall /= 60
	if recall < 0.9 {
		t.Fatalf("full-scan ScaNN recall %.3f", recall)
	}
}

func TestScaNNSearchSubset(t *testing.T) {
	ds := blobs(15, 300, 12)
	s, err := NewScaNN(ds, Config{Subspaces: 3, K: 8, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	subset := []int{5, 10, 15, 20}
	ns := s.Search(ds.Row(5), 2, subset)
	for _, nb := range ns {
		ok := false
		for _, c := range subset {
			if nb.Index == c {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("result %d outside candidate set", nb.Index)
		}
	}
	if ns[0].Index != 5 {
		t.Fatalf("self query top-1 = %d", ns[0].Index)
	}
}

// shortCodebooks rebuilds pq through FromCodebooks with subspace 0 cut to
// n centroids, the N < K shape only a stored quantizer can have.
func shortCodebooks(t *testing.T, pq *PQ, n int) *PQ {
	t.Helper()
	cbs := append([]*dataset.Dataset(nil), pq.Codebooks...)
	cbs[0] = &dataset.Dataset{N: n, Dim: cbs[0].Dim, Data: cbs[0].Data[:n*cbs[0].Dim]}
	short, err := FromCodebooks(pq.Dim, pq.K, pq.Bounds, cbs)
	if err != nil {
		t.Fatal(err)
	}
	return short
}

// TestLUTAndCodeBitIdentity pins what the shared segment kernel makes
// identical: AppendLUT ≡ AppendLUTBatch entry for entry, zero padding
// behind a short codebook, and EncodeInto ≡ AppendCode ≡ the first minimum
// of the matching LUT row — over even, uneven and 9-wide subspaces, K from
// one short of a lane block to the uint8 ceiling, and N < K. Every
// entry is also held to the row-major SquaredL2 the table used to be built
// from, within rounding, so a transposition slip in the mirror shows.
func TestLUTAndCodeBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		name              string
		n, dim, m, k, cut int
		uneven            bool
	}{
		{name: "even", n: 200, dim: 16, m: 4, k: 16},
		{name: "uneven", n: 100, dim: 10, m: 3, k: 4, uneven: true},
		{name: "subdim9-k7", n: 100, dim: 27, m: 3, k: 7},
		{name: "k255", n: 400, dim: 8, m: 4, k: 255},
		{name: "k256-subdim1", n: 400, dim: 4, m: 4, k: 256},
		{name: "short-codebook", n: 200, dim: 16, m: 4, k: 16, cut: 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := blobs(61, tc.n, tc.dim)
			var pq *PQ
			if tc.uneven {
				pq = trainUneven(t, ds, []int{0, 3, 6, 10}, Config{K: tc.k, Seed: 62, Iters: 4})
			} else {
				var err error
				if pq, err = Train(ds, Config{Subspaces: tc.m, K: tc.k, Seed: 62, Iters: 4}); err != nil {
					t.Fatal(err)
				}
			}
			if tc.cut > 0 {
				pq = shortCodebooks(t, pq, tc.cut)
			}
			queries := make([][]float32, 9)
			for i := range queries {
				queries[i] = ds.Row(i * 7)
			}
			stride := pq.Subspaces * pq.K
			batch := pq.AppendLUTBatch([]float32{-1}, queries)[1:] // appends after existing content
			for qi, q := range queries {
				flat := pq.AppendLUT(nil, q)
				code := pq.AppendCode(nil, q)
				for s := 0; s < pq.Subspaces; s++ {
					cb := pq.Codebooks[s]
					row := flat[s*pq.K : (s+1)*pq.K]
					for c, v := range row {
						if b := batch[qi*stride+s*pq.K+c]; math.Float32bits(b) != math.Float32bits(v) {
							t.Fatalf("query %d LUT[%d][%d]: batch %v, single %v", qi, s, c, b, v)
						}
						if c >= cb.N {
							if v != 0 {
								t.Fatalf("query %d LUT[%d][%d]=%v: padding behind %d centroids must stay zero", qi, s, c, v, cb.N)
							}
							continue
						}
						ref := float64(vecmath.SquaredL2(q[pq.Bounds[s]:pq.Bounds[s+1]], cb.Row(c)))
						if math.Abs(float64(v)-ref) > 1e-5*(1+ref) {
							t.Fatalf("query %d LUT[%d][%d]=%v, row-major distance %v", qi, s, c, v, ref)
						}
					}
					if want := vecmath.ArgMin(row[:cb.N]); int(code[s]) != want {
						t.Fatalf("query %d subspace %d: code %d, first minimum of the LUT row %d", qi, s, code[s], want)
					}
				}
			}
			flatCodes, err := pq.EncodeInto(nil, ds)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < ds.N; i++ {
				if got, want := flatCodes[i*pq.Subspaces:(i+1)*pq.Subspaces], pq.AppendCode(nil, ds.Row(i)); !slices.Equal(got, want) {
					t.Fatalf("row %d: EncodeInto %v, AppendCode %v", i, got, want)
				}
			}
		})
	}
}

// TestEncodeTiesTakeFirstCentroid: with a centroid stored twice, a vector
// sitting on it is at distance 0 from both copies and must take the lower
// index, whichever lane of the kernel each copy lands in.
func TestEncodeTiesTakeFirstCentroid(t *testing.T) {
	const k, dim = 40, 3
	cb := blobs(63, k, dim)
	for _, pair := range [][2]int{{1, 2}, {3, 35}, {9, 39}, {33, 38}} {
		copy(cb.Row(pair[1]), cb.Row(pair[0]))
		pq, err := FromCodebooks(dim, k, []int{0, dim}, []*dataset.Dataset{cb})
		if err != nil {
			t.Fatal(err)
		}
		if code := pq.AppendCode(nil, cb.Row(pair[1])); int(code[0]) != pair[0] {
			t.Fatalf("centroids %v identical: code %d, want the first", pair, code[0])
		}
	}
}

func TestFromCodebooksValidation(t *testing.T) {
	cb := func(n, dim int) *dataset.Dataset { return dataset.New(n, dim) }
	for name, tc := range map[string]struct {
		dim, k int
		bounds []int
		cbs    []*dataset.Dataset
	}{
		"no codebooks":      {4, 4, []int{0}, nil},
		"bounds short":      {4, 4, []int{0, 4}, []*dataset.Dataset{cb(4, 2), cb(4, 2)}},
		"bounds miss dim":   {4, 4, []int{0, 2, 3}, []*dataset.Dataset{cb(4, 2), cb(4, 1)}},
		"K over uint8":      {4, 257, []int{0, 4}, []*dataset.Dataset{cb(4, 4)}},
		"more than K":       {4, 4, []int{0, 4}, []*dataset.Dataset{cb(5, 4)}},
		"empty codebook":    {4, 4, []int{0, 4}, []*dataset.Dataset{cb(0, 4)}},
		"wrong sub-dim":     {4, 4, []int{0, 2, 4}, []*dataset.Dataset{cb(4, 2), cb(4, 3)}},
		"nil codebook":      {4, 4, []int{0, 4}, []*dataset.Dataset{nil}},
		"data length wrong": {4, 4, []int{0, 4}, []*dataset.Dataset{{N: 4, Dim: 4, Data: make([]float32, 15)}}},
	} {
		if _, err := FromCodebooks(tc.dim, tc.k, tc.bounds, tc.cbs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Per-op benchmarks of the two quantizer operations the serving path pays
// for, at the codebook shapes the engine uses (128-d; M subspaces × K
// centroids):
//
//	go test ./internal/quant -run '^$' -bench 'AppendLUT|EncodeVec'
func benchPQ(b *testing.B, m, k int) (*PQ, *dataset.Dataset) {
	ds := blobs(71, 1024, 128)
	pq, err := Train(ds, Config{Subspaces: m, K: k, Seed: 72, Iters: 2})
	if err != nil {
		b.Fatal(err)
	}
	return pq, ds
}

var benchShapes = []struct{ m, k int }{{32, 256}, {16, 256}, {8, 256}, {32, 16}}

func BenchmarkAppendLUT(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(fmt.Sprintf("m%dk%d", sh.m, sh.k), func(b *testing.B) {
			pq, ds := benchPQ(b, sh.m, sh.k)
			lut := pq.AppendLUT(nil, ds.Row(0))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lut = pq.AppendLUT(lut[:0], ds.Row(i%ds.N))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.m*sh.k), "ns/centroid")
		})
	}
}

func BenchmarkEncodeVec(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(fmt.Sprintf("m%dk%d", sh.m, sh.k), func(b *testing.B) {
			pq, ds := benchPQ(b, sh.m, sh.k)
			code := make([]uint8, 0, sh.m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				code = pq.AppendCode(code[:0], ds.Row(i%ds.N))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.m*sh.k), "ns/centroid")
		})
	}
}
