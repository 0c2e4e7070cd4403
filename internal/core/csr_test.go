package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/vecmath"
)

// scatter maps each of n ids to the bin of t holding it (−1: in none) — the
// point → bin map the seed implementation stored beside its tables.
func scatter(t [][]int32, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = -1
	}
	for b, ids := range t {
		for _, id := range ids {
			out[id] = int32(b)
		}
	}
	return out
}

// referenceBins rebuilds the old [][]int32 lookup-table form straight from a
// point → bin map, each bin in ascending id order — the layout the seed
// implementation stored — so table probing can be checked against it
// exactly.
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
	ref := referenceBins(scatter(p.Bins, ds.N), p.M)
	sizes := p.BinSizes()
	for b := 0; b < p.M; b++ {
		got := p.Bins[b]
		if len(got) != len(ref[b]) {
			t.Fatalf("bin %d: %d ids, want %d", b, len(got), len(ref[b]))
		}
		for i := range got {
			if got[i] != ref[b][i] {
				t.Fatalf("bin %d[%d]: id %d, want %d", b, i, got[i], ref[b][i])
			}
		}
		if sizes[b] != len(ref[b]) {
			t.Fatalf("BinSizes()[%d] = %d, want %d", b, sizes[b], len(ref[b]))
		}
	}
}

func TestCSRSurvivesInserts(t *testing.T) {
	ds, mat := testData(t, 400, 8, 4, 31)
	p, _, err := Train(ds, mat, smallCfg(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Route a few new points in, in place (InsertRouted, on a private copy)
	// and copy-on-write (With, from p); both must match the reference: the
	// trained ids, then the inserts.
	owned := OneTree(&Partitioner{node: p.node, M: p.M, Bins: mergeTable(p.Bins, nil)})
	shared := OneTree(p)
	ref := referenceBins(scatter(p.Bins, ds.N), p.M)
	var qs QueryScratch
	for j := 0; j < 10; j++ {
		bins := owned.RouteBinsWith(&qs, ds.Row(j%ds.N), nil)
		owned.InsertRouted(ds.N+j, bins)
		shared = shared.With(ds.N+j, bins)
		ref[bins[0]] = append(ref[bins[0]], int32(ds.N+j))
	}
	for name, part := range map[string]*Partitioner{"InsertRouted": owned.Parts[0], "With": shared.Parts[0]} {
		total := 0
		for b := 0; b < p.M; b++ {
			got := part.AppendBin(nil, b)
			if len(got) != len(ref[b]) {
				t.Fatalf("%s: bin %d after inserts: %d ids, want %d", name, b, len(got), len(ref[b]))
			}
			for i := range got {
				if got[i] != ref[b][i] {
					t.Fatalf("%s: bin %d[%d] after inserts: id %d, want %d", name, b, i, got[i], ref[b][i])
				}
			}
			total += part.BinSizes()[b]
		}
		if total != ds.N+10 {
			t.Fatalf("%s: bins hold %d ids, want %d", name, total, ds.N+10)
		}
	}
	// The partitioner With started from still holds the trained ids alone.
	total := 0
	for _, n := range p.BinSizes() {
		total += n
	}
	if total != ds.N {
		t.Fatalf("With changed its receiver: %d ids, want %d", total, ds.N)
	}
}

// TestTablesArePacked pins what makes in-place appends safe for readers of
// older tables: after train, merge, filter and load, every bin is a view
// with no spare capacity, so its first append reallocates instead of
// writing into a neighbouring bin or into ids an older table can see.
func TestTablesArePacked(t *testing.T) {
	ds, mat := testData(t, 400, 8, 4, 38)
	ens, _, err := TrainEnsemble(ds, mat, smallCfg(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := TrainHierarchy(ds, []int{2, 2}, Config{KPrime: 5, Eta: 5, Epochs: 5, Hidden: []int{8}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveEnsemble(&buf, ens); err != nil {
		t.Fatal(err)
	}
	loadedEns, err := LoadEnsemble(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveHierarchy(&buf, h); err != nil {
		t.Fatal(err)
	}
	loadedHier, err := LoadHierarchy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tree := OneTree(h)
	drop := bitset.FromWords([]uint64{0x5555})
	for name, r := range map[string]*Ensemble{
		"ensemble/train":   ens,
		"ensemble/merge":   ens.With(ds.N, []int{0, 1}).Rebuild(drop),
		"ensemble/filter":  ens.FilterRemap(100, 300),
		"ensemble/load":    loadedEns,
		"hierarchy/train":  tree,
		"hierarchy/merge":  tree.With(ds.N, []int{2}).Rebuild(drop),
		"hierarchy/filter": tree.FilterRemap(100, 300),
		"hierarchy/load":   OneTree(loadedHier),
	} {
		for m, p := range r.Parts {
			for b, ids := range p.Bins {
				if cap(ids) != len(ids) {
					t.Fatalf("%s: member %d bin %d has len %d cap %d", name, m, b, len(ids), cap(ids))
				}
			}
		}
	}
}

// TestValidateRejectsMismatchedTables: a decoded router whose table
// addresses rows the dataset lacks, or whose shape disagrees with its
// models, is an error rather than a query-time panic.
func TestValidateRejectsMismatchedTables(t *testing.T) {
	ds, mat := testData(t, 300, 8, 4, 39)
	ens, _, err := TrainEnsemble(ds, mat, smallCfg(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := TrainHierarchy(ds, []int{2, 2}, Config{KPrime: 5, Eta: 5, Epochs: 5, Hidden: []int{8}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Ensemble{ens, OneTree(h)} {
		if err := r.Validate(ds.N, ds.Dim); err != nil {
			t.Fatalf("trained router rejected: %v", err)
		}
		if err := r.Validate(ds.N-1, ds.Dim); err == nil {
			t.Fatal("table addressing a missing row accepted")
		}
		if err := r.Validate(ds.N, ds.Dim+1); err == nil {
			t.Fatal("model of the wrong input width accepted")
		}
	}
	narrow := *ens.Parts[1]
	narrow.Bins = narrow.Bins[:narrow.M-1]
	if err := (&Ensemble{Parts: []*Partitioner{ens.Parts[0], &narrow}}).Validate(ds.N, ds.Dim); err == nil {
		t.Fatal("table narrower than its model accepted")
	}
	shifted := *h
	shifted.children = []node{h.children[1], h.children[0]}
	if err := OneTree(&shifted).Validate(ds.N, ds.Dim); err == nil {
		t.Fatal("hierarchy with out-of-order leaf bases accepted")
	}
	shifted = *h
	shifted.M++
	shifted.Bins = append(h.Bins[:len(h.Bins):len(h.Bins)], nil)
	if err := OneTree(&shifted).Validate(ds.N, ds.Dim); err == nil {
		t.Fatal("hierarchy whose leaves do not cover M accepted")
	}
	flat := *ens.Parts[0]
	flat.M++
	flat.Bins = append(flat.Bins[:len(flat.Bins):len(flat.Bins)], nil)
	if err := OneTree(&flat).Validate(ds.N, ds.Dim); err == nil {
		t.Fatal("flat member whose model does not cover M accepted")
	}
}

// appendCandidates is the single-query form of the candidate path: route q
// through the single-row kernel, then gather row 0.
func appendCandidates(r *Ensemble, dst []int32, q []float32, mPrime int, mode ProbeMode, qs *QueryScratch) []int32 {
	r.Route(qs, q, mode)
	return r.AppendCandidatesRow(dst, 0, mPrime, mode, qs)
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
				probs := p.Model.PredictVec(q)
				if c := probs[vecmath.ArgMax(probs)]; c > bestConf {
					bestConf, bestProbs, bestPart = c, probs, p
				}
			}
			ref := referenceBins(scatter(bestPart.Bins, ds.N), bestPart.M)
			var want []int32
			for _, b := range vecmath.TopKIndices(bestProbs, mPrime) {
				want = append(want, ref[b]...)
			}

			dst = appendCandidates(ens, dst[:0], q, mPrime, BestConfidence, &qs)
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
			dst = appendCandidates(ens, dst[:0], q, mPrime, UnionProbe, &qs)
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

// TestHierarchyAppendCandidatesMatchesCandidates: a hierarchy served as an
// ensemble of one tree gives, in both probe modes, the candidates of its m′
// most probable leaves straight from the allocating reference walk — the
// leaves are disjoint, so union mode's dedup drops nothing and keeps the
// order.
func TestHierarchyAppendCandidatesMatchesCandidates(t *testing.T) {
	ds, _ := testData(t, 400, 8, 4, 34)
	cfg := Config{KPrime: 5, Eta: 5, Epochs: 10, BatchSize: 128, Hidden: []int{8}, Seed: 3}
	h, _, err := TrainHierarchy(ds, []int{2, 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree := OneTree(h)
	var qs QueryScratch
	var dst []int32
	for qi := 0; qi < 30; qi++ {
		q := ds.Row(qi)
		for _, mPrime := range []int{1, 2, 4} {
			var want []int32
			for _, b := range vecmath.TopKIndices(referenceLeafProbs(h, q), mPrime) {
				want = append(want, h.Bins[b]...)
			}
			for _, mode := range []ProbeMode{BestConfidence, UnionProbe} {
				dst = appendCandidates(tree, dst[:0], q, mPrime, mode, &qs)
				if !slices.Equal(dst, want) {
					t.Fatalf("q%d m'=%d mode %d: candidates %v, want %v", qi, mPrime, mode, dst, want)
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
	warm := appendCandidates(ens, nil, ds.Row(0), 2, BestConfidence, &qs)
	if len(warm) == 0 {
		t.Fatal("warm query returned no candidates")
	}
	huge := make([]float32, ds.Dim)
	for i := range huge {
		huge[i] = 3e38
	}
	got := appendCandidates(ens, nil, huge, 2, BestConfidence, &qs)
	if len(got) != 0 {
		t.Fatalf("NaN-probability query returned %d candidates, want 0", len(got))
	}
	// The []int adapter must agree.
	if c := ens.CandidatesWith(new(QueryScratch), huge, 2, BestConfidence); len(c) != 0 {
		t.Fatalf("adapter returned %d candidates, want 0", len(c))
	}
	// And the scratch must still work for normal queries afterwards.
	after := appendCandidates(ens, nil, ds.Row(0), 2, BestConfidence, &qs)
	if len(after) != len(warm) {
		t.Fatalf("scratch damaged by NaN query: %d vs %d candidates", len(after), len(warm))
	}
}

func TestQueryScratchSeenGenerationWrap(t *testing.T) {
	var qs QueryScratch
	qs.seen = make([]uint32, 4)
	qs.gen = ^uint32(0) - 1
	g1 := qs.beginSeen()
	qs.seen[2] = g1
	g2 := qs.beginSeen() // wraps to 0 → must reset stamps and restart at 1
	if g2 == 0 {
		t.Fatal("generation 0 must never be handed out")
	}
	if qs.seen[2] == g2 {
		t.Fatal("stale stamp survived generation wrap")
	}
}

// slotExtra records inserts routed in after training, keyed by (member,
// bin) — the reference's view of what With appended.
type slotExtra map[[2]int][]int32

// referenceLeafProbs recomputes a tree's leaf distribution with the
// allocating PredictVec, multiplying down the tree in the walk's order.
func referenceLeafProbs(h *Partitioner, q []float32) []float32 {
	out := make([]float32, h.M)
	var walk func(n *node, prob float32)
	walk = func(n *node, prob float32) {
		probs := n.Model.PredictVec(q)
		for b, pb := range probs {
			if n.children == nil {
				out[n.leafBase+b] = prob * pb
			} else {
				walk(&n.children[b], prob*pb)
			}
		}
	}
	walk(&h.node, 1)
	return out
}

// TestRouteFormsAgreeWithReference pins the one select-and-gather body where
// the single and batched copies used to be: for flat members and a tree, in
// both modes, with and without post-epoch inserts, on finite and all-NaN
// queries, Route + AppendCandidatesRow(0) ≡ RouteBatch +
// AppendCandidatesRow(i) ≡ an allocating reference built from PredictVec,
// TopKIndices and referenceBins. (An all-NaN row compares false everywhere:
// best-confidence selects no member and probes nothing; in union mode, with
// these small bin counts, TopKIndices' sort leaves it in index order, as
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

	// Ten inserts after training, routed and appended the way Add does it.
	const inserts = 10
	var qs QueryScratch
	ensExtra, hierExtra := slotExtra{}, slotExtra{}
	tree := OneTree(h)
	ensWith, hierWith := ens, tree
	for j := 0; j < inserts; j++ {
		id := ds.N + j
		bins := ens.RouteBinsWith(&qs, ds.Row(j), nil)
		for m, b := range bins {
			ensExtra[[2]int{m, b}] = append(ensExtra[[2]int{m, b}], int32(id))
		}
		ensWith = ensWith.With(id, bins)
		leaf := h.RouteLeafWith(&qs, ds.Row(j))
		hierExtra[[2]int{0, leaf}] = append(hierExtra[[2]int{0, leaf}], int32(id))
		hierWith = hierWith.With(id, []int{leaf})
		if got := tree.RouteBinsWith(&qs, ds.Row(j), nil); got[0] != leaf {
			t.Fatalf("insert %d: RouteBinsWith leaf %d, RouteLeafWith %d", j, got[0], leaf)
		}
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
		ensRefs[m] = referenceBins(scatter(p.Bins, ds.N), p.M)
	}
	hierRef := referenceBins(scatter(h.Bins, ds.N), h.M)

	referenceBest := func(q []float32, mPrime int, extra slotExtra) []int32 {
		best, bestConf := -1, float32(-1)
		var bestProbs []float32
		for m, p := range ens.Parts {
			probs := p.Model.PredictVec(q)
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
			for _, b := range vecmath.TopKIndices(p.Model.PredictVec(q), mPrime) {
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
		probs := referenceLeafProbs(h, q)
		if c := probs[vecmath.ArgMax(probs)]; c != c {
			return nil // a NaN confidence selects no member
		}
		var want []int32
		for _, b := range vecmath.TopKIndices(probs, mPrime) {
			want = append(want, hierRef[b]...)
			want = append(want, extra[[2]int{0, b}]...)
		}
		return want
	}

	cases := []struct {
		name      string
		router    *Ensemble
		inserted  *Ensemble // router after the inserts
		mode      ProbeMode
		extra     slotExtra
		reference func(q []float32, mPrime int, extra slotExtra) []int32
	}{
		{"best-confidence", ens, ensWith, BestConfidence, ensExtra, referenceBest},
		{"union", ens, ensWith, UnionProbe, ensExtra, referenceUnion},
		{"hierarchy", tree, hierWith, BestConfidence, hierExtra, referenceHier},
	}
	for _, tc := range cases {
		for _, spill := range []bool{false, true} {
			name, router := tc.name, tc.router
			var refExtra slotExtra // nil: no inserts
			if spill {
				name, router, refExtra = name+"/spill", tc.inserted, tc.extra
			}
			t.Run(name, func(t *testing.T) {
				var qsSingle, qsBatch QueryScratch
				dim := ds.Dim
				buf := qsBatch.Stage(len(queries), dim)
				for i, q := range queries {
					copy(buf[i*dim:(i+1)*dim], q)
				}
				router.RouteBatch(&qsBatch, tc.mode)
				for _, mPrime := range []int{1, 2, 4} {
					for i, q := range queries {
						want := tc.reference(q, mPrime, refExtra)
						one := appendCandidates(router, nil, q, mPrime, tc.mode, &qsSingle)
						row := router.AppendCandidatesRow(nil, i, mPrime, tc.mode, &qsBatch)
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

// routeRows routes queries[0] through the single-row form or, batched, all
// of queries through one RouteBatch, leaving every member's rows in qs.
func routeRows(r *Ensemble, queries [][]float32, mode ProbeMode, batched bool, qs *QueryScratch) {
	if !batched {
		r.Route(qs, queries[0], mode)
		return
	}
	dim := len(queries[0])
	buf := qs.Stage(len(queries), dim)
	for i, q := range queries {
		copy(buf[i*dim:(i+1)*dim], q)
	}
	r.RouteBatch(qs, mode)
}

// TestNaNConfidenceSelectsNoMember pins the one rule a hierarchy changed by
// becoming an ensemble of one tree: when a row's chosen confidence — its
// most probable leaf's probability, as ArgMax picks it — is NaN,
// best-confidence selects no member and the candidate set is empty, in the
// single-row and the batched form. Union mode does not select and still
// probes the leaves TopKIndicesInto picks. A tree whose NaN leaves are not
// the chosen one is served as usual.
func TestNaNConfidenceSelectsNoMember(t *testing.T) {
	ds, _ := testData(t, 300, 8, 4, 40)
	train := func() *Partitioner {
		h, _, err := TrainHierarchy(ds, []int{2, 2}, Config{KPrime: 5, Eta: 5, Epochs: 5, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	poison := func(nd *node) {
		for _, p := range nd.Model.Params() {
			for i := range p.Value.Data {
				p.Value.Data[i] = float32(math.NaN())
			}
		}
	}
	first, second := train(), train()
	poison(&first.children[0])  // leaves 0 and 1: ArgMax keeps leaf 0, NaN
	poison(&second.children[1]) // leaves 2 and 3: ArgMax skips them
	queries := [][]float32{ds.Row(0), ds.Row(1), ds.Row(2)}
	for _, batched := range []bool{false, true} {
		var qs QueryScratch
		n := 1
		if batched {
			n = len(queries)
		}
		routeRows(OneTree(first), queries, BestConfidence, batched, &qs)
		for i := 0; i < n; i++ {
			row := qs.probs[0][i*4 : (i+1)*4]
			if c := row[vecmath.ArgMax(row)]; c == c {
				t.Fatalf("batched=%t row %d: chosen confidence %v, want NaN", batched, i, c)
			}
			if got := OneTree(first).AppendCandidatesRow(nil, i, 2, BestConfidence, &qs); len(got) != 0 {
				t.Fatalf("batched=%t row %d: NaN confidence gave %d candidates, want none", batched, i, len(got))
			}
		}
		routeRows(OneTree(first), queries, UnionProbe, batched, &qs)
		if got := OneTree(first).AppendCandidatesRow(nil, 0, 2, UnionProbe, &qs); len(got) == 0 {
			t.Fatalf("batched=%t: union mode probed nothing", batched)
		}
		routeRows(OneTree(second), queries, BestConfidence, batched, &qs)
		for i := 0; i < n; i++ {
			row := qs.probs[0][i*4 : (i+1)*4]
			var want []int32
			for _, b := range vecmath.TopKIndices(row, 1) {
				want = append(want, second.Bins[b]...)
			}
			if b := vecmath.ArgMax(row); b > 1 || row[b] != row[b] {
				t.Fatalf("batched=%t row %d: chose leaf %d (%v), want a finite one of 0, 1", batched, i, b, row[b])
			}
			if got := OneTree(second).AppendCandidatesRow(nil, i, 1, BestConfidence, &qs); !slices.Equal(got, want) {
				t.Fatalf("batched=%t row %d: %d candidates, want leaf %v's %d", batched, i, len(got), vecmath.TopKIndices(row, 1), len(want))
			}
		}
	}
}

// TestRouterRowsSumToOne: every member row the ensemble writes — a flat
// member's model output or a tree's products down its paths — is a
// distribution over the member's leaves, summing to 1 within 1e-5, in the
// single-row and the batched form.
func TestRouterRowsSumToOne(t *testing.T) {
	ds, mat := testData(t, 400, 8, 4, 41)
	ens, _, err := TrainEnsemble(ds, mat, smallCfg(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	tree, _, err := TrainHierarchy(ds, []int{2, 3, 2}, Config{KPrime: 5, Eta: 5, Epochs: 5, Hidden: []int{8}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var queries [][]float32
	for i := 0; i < 20; i++ {
		queries = append(queries, ds.Row(i*7))
	}
	for name, r := range map[string]*Ensemble{"ensemble": ens, "tree": OneTree(tree)} {
		for _, batched := range []bool{false, true} {
			var qs QueryScratch
			routeRows(r, queries, UnionProbe, batched, &qs)
			n := 1
			if batched {
				n = len(queries)
			}
			for m, p := range r.Parts {
				if len(qs.probs[m]) != n*p.M {
					t.Fatalf("%s batched=%t member %d: %d probabilities, want %d", name, batched, m, len(qs.probs[m]), n*p.M)
				}
				for i := 0; i < n; i++ {
					var sum float64
					for _, v := range qs.probs[m][i*p.M : (i+1)*p.M] {
						sum += float64(v)
					}
					if math.Abs(sum-1) > 1e-5 {
						t.Fatalf("%s batched=%t member %d row %d sums to %v", name, batched, m, i, sum)
					}
				}
			}
		}
	}
}
