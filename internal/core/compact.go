package core

import (
	"repro/internal/bitset"
	"repro/internal/par"
)

// ExtraBins supplies, per (member, bin), the ids routed into a bin after its
// CSR epoch was built — the usp layer's per-shard spill state. Implementations
// must append ids in a deterministic order (the candidate order, the
// compaction merge order, and the snapshot serialization order all consume
// the same callback, which is what keeps live, compacted, and reloaded
// indexes bit-identical). A hierarchy addresses it with member 0 and
// bin = global leaf id.
type ExtraBins interface {
	AppendExtra(dst []int32, member, bin int) []int32
}

// Rebuild returns a partitioner that shares p's trained model but owns a
// freshly merged lookup table: per bin, p's CSR ids with drop-marked ids
// removed, followed by the bin's extra ids (minus drops) in callback order.
// Assign is extended to n entries — extra ids take their routed bin, dropped
// ids are marked -1 — so serialization snapshots of compacted partitioners
// stay id-aligned with the dataset. p itself is left untouched; it may be
// serving readers in an older epoch.
func (p *Partitioner) Rebuild(n, member int, extra ExtraBins, drop *bitset.Set) *Partitioner {
	np := &Partitioner{Model: p.Model, M: p.M}
	np.Assign = make([]int32, n)
	copy(np.Assign, p.Assign)
	for i := len(p.Assign); i < n; i++ {
		np.Assign[i] = -1
	}

	lists := make([][]int32, p.M)
	var scratch []int32
	for b := 0; b < p.M; b++ {
		scratch = p.AppendBin(scratch[:0], b)
		if extra != nil {
			scratch = extra.AppendExtra(scratch, member, b)
		}
		list := make([]int32, 0, len(scratch))
		for _, id := range scratch {
			if drop.Has(int(id)) {
				np.Assign[id] = -1
				continue
			}
			np.Assign[id] = int32(b)
			list = append(list, id)
		}
		lists[b] = list
	}
	np.setBinLists(lists)
	return np
}

// Rebuild returns an ensemble whose members share e's models but carry
// merged lookup tables (see Partitioner.Rebuild). Members are rebuilt in
// parallel — compaction is pure id-list surgery, so it scales with cores and
// never touches vector data.
func (e *Ensemble) Rebuild(n int, extra ExtraBins, drop *bitset.Set) Router {
	ne := &Ensemble{Parts: make([]*Partitioner, len(e.Parts))}
	par.For(len(e.Parts), func(m int) {
		ne.Parts[m] = e.Parts[m].Rebuild(n, m, extra, drop)
	})
	return ne
}

// Rebuild returns a hierarchy sharing h's trained tree but owning a freshly
// merged global leaf table: per leaf, h's frozen list with drop-marked ids
// removed, followed by the leaf's extra ids (minus drops). The leaf table
// carries no per-point array, so the id universe n goes unused.
func (h *Hierarchy) Rebuild(_ int, extra ExtraBins, drop *bitset.Set) Router {
	nh := &Hierarchy{
		Levels: h.Levels, NumBins: h.NumBins, ProbeTemp: h.ProbeTemp, root: h.root,
	}
	nh.Bins = make([][]int32, h.NumBins)
	par.ForChunksMin(h.NumBins, 16, func(lo, hi int) {
		var scratch []int32
		for g := lo; g < hi; g++ {
			scratch = append(scratch[:0], h.Bins[g]...)
			if extra != nil {
				scratch = extra.AppendExtra(scratch, 0, g)
			}
			list := make([]int32, 0, len(scratch))
			for _, id := range scratch {
				if !drop.Has(int(id)) {
					list = append(list, id)
				}
			}
			nh.Bins[g] = list
		}
	})
	return nh
}
