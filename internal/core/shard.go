package core

import (
	"repro/internal/par"
)

// FilterRemap returns a partitioner that shares p's trained model but owns a
// lookup table restricted to the ids in [lo, hi), renumbered to id−lo — the
// per-shard table of a contiguous dataset split. Because the model is shared,
// every shard routes a query to the same bins as the parent, so the union of
// the shards' candidate sets at equal probe settings reproduces the parent's
// candidate set exactly (each parent candidate lands in precisely the shard
// that owns its row). Within each bin the parent's id order is preserved.
//
// p must carry no pending spill (callers Rebuild first, which also folds
// tombstones into Assign as −1); p itself is left untouched.
func (p *Partitioner) FilterRemap(lo, hi int) *Partitioner {
	np := &Partitioner{Model: p.Model, M: p.M}
	np.Assign = make([]int32, hi-lo)
	copy(np.Assign, p.Assign[lo:hi])

	lists := make([][]int32, p.M)
	for b := 0; b < p.M; b++ {
		src := p.binIDs[p.binOff[b]:p.binOff[b+1]]
		var list []int32
		for _, id := range src {
			if int(id) >= lo && int(id) < hi {
				list = append(list, id-int32(lo))
			}
		}
		lists[b] = list
	}
	np.setBinLists(lists)
	return np
}

// FilterRemap returns an ensemble whose members share e's models but carry
// per-shard lookup tables (see Partitioner.FilterRemap). Members are
// filtered in parallel — like Rebuild, this is pure id-list surgery.
func (e *Ensemble) FilterRemap(lo, hi int) Router {
	ne := &Ensemble{Parts: make([]*Partitioner, len(e.Parts))}
	par.For(len(e.Parts), func(m int) {
		ne.Parts[m] = e.Parts[m].FilterRemap(lo, hi)
	})
	return ne
}

// FilterRemap returns a hierarchy sharing h's trained tree but owning a
// global leaf table restricted to the ids in [lo, hi), renumbered to id−lo.
// h must carry no pending spill (callers Rebuild first).
func (h *Hierarchy) FilterRemap(lo, hi int) Router {
	nh := &Hierarchy{
		Levels: h.Levels, NumBins: h.NumBins, ProbeTemp: h.ProbeTemp, root: h.root,
	}
	nh.Bins = make([][]int32, h.NumBins)
	par.ForChunksMin(h.NumBins, 16, func(glo, ghi int) {
		for g := glo; g < ghi; g++ {
			var list []int32
			for _, id := range h.Bins[g] {
				if int(id) >= lo && int(id) < hi {
					list = append(list, id-int32(lo))
				}
			}
			nh.Bins[g] = list
		}
	})
	return nh
}
