package core

import (
	"testing"

	"repro/internal/vecmath"
)

// referenceBins rebuilds the old [][]int32 lookup-table form straight from
// Assign — the layout the seed implementation stored — so CSR probing can be
// checked against it exactly.
func referenceBins(assign []int32, m int) [][]int32 {
	bins := make([][]int32, m)
	for i, b := range assign {
		bins[b] = append(bins[b], int32(i))
	}
	return bins
}

func TestCSRMatchesReferenceLayout(t *testing.T) {
	ds, mat := testData(t, 500, 8, 4, 30)
	p, _, err := Train(ds, mat, smallCfg(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceBins(p.Assign, p.M)
	for b := 0; b < p.M; b++ {
		got := p.BinList(b)
		if len(got) != len(ref[b]) {
			t.Fatalf("bin %d: %d ids, want %d", b, len(got), len(ref[b]))
		}
		for i := range got {
			if got[i] != ref[b][i] {
				t.Fatalf("bin %d[%d]: id %d, want %d", b, i, got[i], ref[b][i])
			}
		}
		if p.BinLen(b) != len(ref[b]) {
			t.Fatalf("BinLen(%d) = %d, want %d", b, p.BinLen(b), len(ref[b]))
		}
	}
}

func TestCSRSurvivesInserts(t *testing.T) {
	ds, mat := testData(t, 400, 8, 4, 31)
	p, _, err := Train(ds, mat, smallCfg(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Route a few new points in; the reference built from the extended
	// Assign must still match (CSR range followed by spill).
	ens := single(p)
	var qs QueryScratch
	for j := 0; j < 10; j++ {
		vec := ds.Row(j % ds.N)
		ens.InsertRouted(ds.N+j, ens.RouteBinsWith(&qs, vec, nil))
	}
	ref := referenceBins(p.Assign, p.M)
	total := 0
	for b := 0; b < p.M; b++ {
		got := p.BinList(b)
		if len(got) != len(ref[b]) {
			t.Fatalf("bin %d after inserts: %d ids, want %d", b, len(got), len(ref[b]))
		}
		for i := range got {
			if got[i] != ref[b][i] {
				t.Fatalf("bin %d[%d] after inserts: id %d, want %d", b, i, got[i], ref[b][i])
			}
		}
		total += p.BinLen(b)
	}
	if total != ds.N+10 {
		t.Fatalf("bins hold %d ids, want %d", total, ds.N+10)
	}
	// BinLists (serialization form) must also include spill ids.
	lists := p.BinLists()
	count := 0
	for _, l := range lists {
		count += len(l)
	}
	if count != ds.N+10 {
		t.Fatalf("BinLists holds %d ids, want %d", count, ds.N+10)
	}
}

// appendCandidates is the single-query form of the candidate path: route q
// through the single-row kernel, then gather row 0.
func appendCandidates(r Router, dst []int32, q []float32, mPrime int, mode ProbeMode, qs *QueryScratch, n int, extra ExtraBins) []int32 {
	r.Route(qs, q, mode)
	return r.AppendCandidatesRow(dst, 0, mPrime, mode, qs, n, extra)
}

// TestAppendCandidatesMatchesLegacyPipeline recomputes the seed's candidate
// pipeline — PredictVec probabilities, TopKIndices bin selection, per-bin id
// copy — and requires the scratch-based Route + AppendCandidatesRow path to
// reproduce it id for id (the model inference fast path is bit-identical, so
// candidate sets must be too).
func TestAppendCandidatesMatchesLegacyPipeline(t *testing.T) {
	ds, mat := testData(t, 500, 8, 4, 32)
	ens, _, err := TrainEnsemble(ds, mat, smallCfg(4), 3)
	if err != nil {
		t.Fatal(err)
	}
	var qs QueryScratch
	var dst []int32
	for qi := 0; qi < 40; qi++ {
		q := ds.Row(qi)
		for _, mPrime := range []int{1, 2, 4} {
			// Legacy best-confidence reference.
			bestConf := float32(-1)
			var bestProbs []float32
			var bestPart *Partitioner
			for _, p := range ens.Parts {
				probs := p.Probabilities(q)
				if c := probs[vecmath.ArgMax(probs)]; c > bestConf {
					bestConf, bestProbs, bestPart = c, probs, p
				}
			}
			ref := referenceBins(bestPart.Assign, bestPart.M)
			var want []int32
			for _, b := range vecmath.TopKIndices(bestProbs, mPrime) {
				want = append(want, ref[b]...)
			}

			dst = appendCandidates(ens, dst[:0], q, mPrime, BestConfidence, &qs, ds.N, nil)
			if len(dst) != len(want) {
				t.Fatalf("q%d m'=%d: %d candidates, want %d", qi, mPrime, len(dst), len(want))
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("q%d m'=%d: candidate[%d] = %d, want %d", qi, mPrime, i, dst[i], want[i])
				}
			}

			// Union mode must agree with the allocating wrapper.
			union := ens.CandidatesWith(new(QueryScratch), q, mPrime, UnionProbe)
			dst = appendCandidates(ens, dst[:0], q, mPrime, UnionProbe, &qs, ds.N, nil)
			if len(dst) != len(union) {
				t.Fatalf("q%d m'=%d union: %d vs %d", qi, mPrime, len(dst), len(union))
			}
			for i := range union {
				if int(dst[i]) != union[i] {
					t.Fatalf("q%d m'=%d union[%d]: %d vs %d", qi, mPrime, i, dst[i], union[i])
				}
			}
		}
	}
}

func TestHierarchyAppendCandidatesMatchesCandidates(t *testing.T) {
	ds, _ := testData(t, 400, 8, 4, 34)
	cfg := Config{KPrime: 5, Eta: 5, Epochs: 10, BatchSize: 128, Hidden: []int{8}, Seed: 3}
	h, _, err := TrainHierarchy(ds, []int{2, 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var qs QueryScratch
	var dst []int32
	for qi := 0; qi < 30; qi++ {
		q := ds.Row(qi)
		for _, mPrime := range []int{1, 2, 4} {
			want := h.CandidatesWith(new(QueryScratch), q, mPrime)
			dst = appendCandidates(h, dst[:0], q, mPrime, BestConfidence, &qs, ds.N, nil)
			if len(dst) != len(want) {
				t.Fatalf("q%d m'=%d: %d vs %d candidates", qi, mPrime, len(dst), len(want))
			}
			for i := range want {
				if int(dst[i]) != want[i] {
					t.Fatalf("q%d m'=%d: candidate[%d] = %d, want %d", qi, mPrime, i, dst[i], want[i])
				}
			}
		}
	}
}

// TestAppendCandidatesNaNQueryDegradesGracefully: a query whose forward
// pass overflows produces all-NaN probabilities; every confidence
// comparison fails, so the engine must return an empty candidate set (the
// legacy behavior) rather than panic or reuse a stale distribution from a
// previous query on the same warm scratch.
func TestAppendCandidatesNaNQueryDegradesGracefully(t *testing.T) {
	ds, mat := testData(t, 300, 8, 4, 36)
	ens, _, err := TrainEnsemble(ds, mat, smallCfg(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	var qs QueryScratch
	// Warm the scratch with a normal query first so it holds a real
	// distribution and member selection the NaN query must not inherit.
	warm := appendCandidates(ens, nil, ds.Row(0), 2, BestConfidence, &qs, ds.N, nil)
	if len(warm) == 0 {
		t.Fatal("warm query returned no candidates")
	}
	huge := make([]float32, ds.Dim)
	for i := range huge {
		huge[i] = 3e38
	}
	got := appendCandidates(ens, nil, huge, 2, BestConfidence, &qs, ds.N, nil)
	if len(got) != 0 {
		t.Fatalf("NaN-probability query returned %d candidates, want 0", len(got))
	}
	// The []int adapter must agree.
	if c := ens.CandidatesWith(new(QueryScratch), huge, 2, BestConfidence); len(c) != 0 {
		t.Fatalf("adapter returned %d candidates, want 0", len(c))
	}
	// And the scratch must still work for normal queries afterwards.
	after := appendCandidates(ens, nil, ds.Row(0), 2, BestConfidence, &qs, ds.N, nil)
	if len(after) != len(warm) {
		t.Fatalf("scratch damaged by NaN query: %d vs %d candidates", len(after), len(warm))
	}
}

func TestQueryScratchSeenGenerationWrap(t *testing.T) {
	var qs QueryScratch
	qs.seen = make([]uint32, 4)
	qs.gen = ^uint32(0) - 1
	g1 := qs.beginSeen(4)
	qs.seen[2] = g1
	g2 := qs.beginSeen(4) // wraps to 0 → must reset stamps and restart at 1
	if g2 == 0 {
		t.Fatal("generation 0 must never be handed out")
	}
	if qs.seen[2] == g2 {
		t.Fatal("stale stamp survived generation wrap")
	}
}

// slotExtra is a test ExtraBins: post-epoch inserts keyed by (member, bin).
type slotExtra map[[2]int][]int32

func (x slotExtra) AppendExtra(dst []int32, member, bin int) []int32 {
	return append(dst, x[[2]int{member, bin}]...)
}

// referenceLeafProbs recomputes a hierarchy's leaf distribution with the
// allocating Probabilities, multiplying down the tree in the walk's order.
func referenceLeafProbs(h *Hierarchy, q []float32) []float32 {
	out := make([]float32, h.NumBins)
	var walk func(n *hnode, prob float32)
	walk = func(n *hnode, prob float32) {
		probs := n.part.Probabilities(q)
		for b, pb := range probs {
			if n.children == nil {
				out[n.leafBase+b] = prob * pb
			} else {
				walk(n.children[b], prob*pb)
			}
		}
	}
	walk(h.root, 1)
	return out
}

// TestRouteFormsAgreeWithReference pins the one select-and-gather body where
// the single and batched copies used to be: for every family and mode, with
// and without post-epoch inserts, on finite and all-NaN queries,
// Route + AppendCandidatesRow(0) ≡ RouteBatch + AppendCandidatesRow(i) ≡ an
// allocating reference built from Probabilities, TopKIndices and
// referenceBins. (An all-NaN row compares false everywhere; with these small
// bin counts TopKIndices' sort leaves it in index order, as
// TopKIndicesInto's scan does.)
func TestRouteFormsAgreeWithReference(t *testing.T) {
	ds, mat := testData(t, 500, 8, 4, 37)
	ens, _, err := TrainEnsemble(ds, mat, smallCfg(4), 3)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := TrainHierarchy(ds, []int{2, 2}, Config{KPrime: 5, Eta: 5, Epochs: 10, BatchSize: 128, Hidden: []int{8}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Ten post-epoch inserts, routed the way Add routes them.
	const inserts = 10
	n := ds.N + inserts
	var qs QueryScratch
	ensExtra, hierExtra := slotExtra{}, slotExtra{}
	for j := 0; j < inserts; j++ {
		id := int32(ds.N + j)
		for m, b := range ens.RouteBinsWith(&qs, ds.Row(j), nil) {
			ensExtra[[2]int{m, b}] = append(ensExtra[[2]int{m, b}], id)
		}
		leaf := h.RouteLeafWith(&qs, ds.Row(j))
		hierExtra[[2]int{0, leaf}] = append(hierExtra[[2]int{0, leaf}], id)
	}

	// Finite queries with one all-NaN row (an overflowing forward pass) in
	// the middle of the batch.
	huge := make([]float32, ds.Dim)
	for i := range huge {
		huge[i] = 3e38
	}
	var queries [][]float32
	for qi := 0; qi < 12; qi++ {
		queries = append(queries, ds.Row(qi))
	}
	queries[5] = huge

	ensRefs := make([][][]int32, len(ens.Parts))
	for m, p := range ens.Parts {
		ensRefs[m] = referenceBins(p.Assign, p.M)
	}
	hierRef := referenceBins(h.Assignments(ds.N), h.NumBins)

	referenceBest := func(q []float32, mPrime int, extra slotExtra) []int32 {
		best, bestConf := -1, float32(-1)
		var bestProbs []float32
		for m, p := range ens.Parts {
			probs := p.Probabilities(q)
			if c := probs[vecmath.ArgMax(probs)]; c > bestConf {
				best, bestConf, bestProbs = m, c, probs
			}
		}
		var want []int32
		for _, b := range vecmath.TopKIndices(bestProbs, mPrime) {
			want = append(want, ensRefs[best][b]...)
			want = append(want, extra[[2]int{best, b}]...)
		}
		return want
	}
	referenceUnion := func(q []float32, mPrime int, extra slotExtra) []int32 {
		seen := map[int32]bool{}
		var want []int32
		for m, p := range ens.Parts {
			for _, b := range vecmath.TopKIndices(p.Probabilities(q), mPrime) {
				for _, ids := range [][]int32{ensRefs[m][b], extra[[2]int{m, b}]} {
					for _, id := range ids {
						if !seen[id] {
							seen[id] = true
							want = append(want, id)
						}
					}
				}
			}
		}
		return want
	}
	referenceHier := func(q []float32, mPrime int, extra slotExtra) []int32 {
		var want []int32
		for _, b := range vecmath.TopKIndices(referenceLeafProbs(h, q), mPrime) {
			want = append(want, hierRef[b]...)
			want = append(want, extra[[2]int{0, b}]...)
		}
		return want
	}

	cases := []struct {
		name      string
		router    Router
		mode      ProbeMode
		extra     slotExtra
		reference func(q []float32, mPrime int, extra slotExtra) []int32
	}{
		{"best-confidence", ens, BestConfidence, ensExtra, referenceBest},
		{"union", ens, UnionProbe, ensExtra, referenceUnion},
		{"hierarchy", h, BestConfidence, hierExtra, referenceHier},
	}
	for _, tc := range cases {
		for _, spill := range []bool{false, true} {
			name, universe := tc.name, ds.N
			var extra ExtraBins // a nil interface when nothing is pending
			var refExtra slotExtra
			if spill {
				name, universe, extra, refExtra = name+"/spill", n, tc.extra, tc.extra
			}
			t.Run(name, func(t *testing.T) {
				var qsSingle, qsBatch QueryScratch
				dim := ds.Dim
				buf := qsBatch.Stage(len(queries), dim)
				for i, q := range queries {
					copy(buf[i*dim:(i+1)*dim], q)
				}
				tc.router.RouteBatch(&qsBatch, tc.mode)
				for _, mPrime := range []int{1, 2, 4} {
					for i, q := range queries {
						want := tc.reference(q, mPrime, refExtra)
						one := appendCandidates(tc.router, nil, q, mPrime, tc.mode, &qsSingle, universe, extra)
						row := tc.router.AppendCandidatesRow(nil, i, mPrime, tc.mode, &qsBatch, universe, extra)
						for form, got := range map[string][]int32{"Route": one, "RouteBatch": row} {
							if len(got) != len(want) {
								t.Fatalf("q%d m'=%d %s: %d candidates, want %d", i, mPrime, form, len(got), len(want))
							}
							for j := range want {
								if got[j] != want[j] {
									t.Fatalf("q%d m'=%d %s: candidate[%d] = %d, want %d", i, mPrime, form, j, got[j], want[j])
								}
							}
						}
					}
				}
			})
		}
	}
}
