package core

import (
	"fmt"

	"repro/internal/bitset"
)

// The lookup table of Algorithm 1 step 3 has one form for both router
// families: a [][]int32 whose entry b lists the ids in bin b in insertion
// order — a partitioner's Bins, or a hierarchy's global leaf Bins.
//
// Whenever a table is built, merged, filtered or loaded it is packed: every
// bin is a capacity-capped view into one flat backing array, so the table
// lives in two allocations and probing a bin is one contiguous copy. An
// insert appends to its bin (With, InsertRouted); the first append after a
// pack reallocates that bin alone, and later ones grow it in place. Appending
// in place past a shared array's length is safe for readers of older copies
// of the table: each holds its own, shorter length and never reads past it.

// mergeTable returns t's bins minus the ids in drop (nil drops nothing),
// packed, each bin keeping its order.
func mergeTable(t [][]int32, drop *bitset.Set) [][]int32 {
	total := 0
	for _, ids := range t {
		total += len(ids)
	}
	flat := make([]int32, 0, total)
	out := make([][]int32, len(t))
	for b, ids := range t {
		lo := len(flat)
		for _, id := range ids {
			if !drop.Has(int(id)) {
				flat = append(flat, id)
			}
		}
		out[b] = flat[lo:len(flat):len(flat)]
	}
	return out
}

// filterTable returns t restricted to the ids in [lo, hi), renumbered to
// id−lo, packed, each bin keeping its order — the table of one contiguous
// shard of the dataset.
func filterTable(t [][]int32, lo, hi int) [][]int32 {
	total := 0 // counted first, so the shard's table is sized exactly
	for _, ids := range t {
		for _, id := range ids {
			if int(id) >= lo && int(id) < hi {
				total++
			}
		}
	}
	flat := make([]int32, 0, total)
	out := make([][]int32, len(t))
	for b, ids := range t {
		start := len(flat)
		for _, id := range ids {
			if int(id) >= lo && int(id) < hi {
				flat = append(flat, id-int32(lo))
			}
		}
		out[b] = flat[start:len(flat):len(flat)]
	}
	return out
}

// withID copies t's bin headers into nt, which has len(t) entries, and
// appends id to bin b of the copy; the id lists themselves stay shared with
// t.
func withID(nt, t [][]int32, b, id int) [][]int32 {
	copy(nt, t)
	nt[b] = append(nt[b], int32(id))
	return nt
}

// validateTable checks that t has width bins and that every id in it
// addresses one of rows dataset rows.
func validateTable(t [][]int32, width, rows int) error {
	if len(t) != width {
		return fmt.Errorf("table has %d bins, want %d", len(t), width)
	}
	for b, ids := range t {
		for _, id := range ids {
			if id < 0 || int(id) >= rows {
				return fmt.Errorf("bin %d holds id %d outside [0, %d)", b, id, rows)
			}
		}
	}
	return nil
}

// withTables returns an ensemble sharing e's models whose member tables are
// table(member), built one member after another: this is pure id-list
// surgery and never touches vectors.
func (e *Ensemble) withTables(table func(p *Partitioner) [][]int32) *Ensemble {
	ne := &Ensemble{Parts: make([]*Partitioner, len(e.Parts))}
	for m, p := range e.Parts {
		ne.Parts[m] = &Partitioner{Model: p.Model, M: p.M, Bins: table(p)}
	}
	return ne
}

// Rebuild implements Router.
func (e *Ensemble) Rebuild(drop *bitset.Set) Router {
	return e.withTables(func(p *Partitioner) [][]int32 { return mergeTable(p.Bins, drop) })
}

// FilterRemap implements Router. Because the models are shared, every shard
// routes a query to the same bins as the parent, so the union of the shards'
// candidate sets at equal probe settings is exactly the parent's.
func (e *Ensemble) FilterRemap(lo, hi int) Router {
	return e.withTables(func(p *Partitioner) [][]int32 { return filterTable(p.Bins, lo, hi) })
}

// Rebuild implements Router.
func (h *Hierarchy) Rebuild(drop *bitset.Set) Router {
	nh := *h
	nh.Bins = mergeTable(h.Bins, drop)
	return &nh
}

// FilterRemap implements Router.
func (h *Hierarchy) FilterRemap(lo, hi int) Router {
	nh := *h
	nh.Bins = filterTable(h.Bins, lo, hi)
	return &nh
}

// With implements Router: every member's header array is copied, since an
// ensemble routes each insert into one bin of every member. The copies are
// consecutive ranges of one array.
func (e *Ensemble) With(id int, bins []int) Router {
	ne := &Ensemble{Parts: make([]*Partitioner, len(e.Parts))}
	parts := make([]Partitioner, len(e.Parts))
	total := 0
	for _, p := range e.Parts {
		total += len(p.Bins)
	}
	headers := make([][]int32, total)
	for m, p := range e.Parts {
		w := len(p.Bins)
		parts[m] = *p
		parts[m].Bins = withID(headers[:w:w], p.Bins, bins[m], id)
		headers = headers[w:]
		ne.Parts[m] = &parts[m]
	}
	return ne
}

// With implements Router.
func (h *Hierarchy) With(id int, bins []int) Router {
	nh := *h
	nh.Bins = withID(make([][]int32, len(h.Bins)), h.Bins, bins[0], id)
	return &nh
}

// Tables implements Router.
func (e *Ensemble) Tables() [][][]int32 {
	out := make([][][]int32, len(e.Parts))
	for m, p := range e.Parts {
		out[m] = p.Bins
	}
	return out
}

// Tables implements Router.
func (h *Hierarchy) Tables() [][][]int32 { return [][][]int32{h.Bins} }

// Validate implements Router.
func (e *Ensemble) Validate(rows, dim int) error {
	for m, p := range e.Parts {
		if in := p.Model.InDim; in != dim {
			return fmt.Errorf("core: model %d takes %d-dim input, rows are %d-dim", m, in, dim)
		}
		if out := p.Model.OutDim(); out != p.M {
			return fmt.Errorf("core: model %d outputs %d bins, table declares %d", m, out, p.M)
		}
		if err := validateTable(p.Bins, p.M, rows); err != nil {
			return fmt.Errorf("core: model %d: %w", m, err)
		}
	}
	return nil
}

// Validate implements Router: every node model reads dim-wide rows, an
// inner node has one child per output, leaves cover the global bins in
// depth-first order with no gap or overlap, and the leaf table addresses
// rows rows.
func (h *Hierarchy) Validate(rows, dim int) error {
	next := 0
	var walk func(n *hnode) error
	walk = func(n *hnode) error {
		if in := n.model.InDim; in != dim {
			return fmt.Errorf("core: hierarchy node takes %d-dim input, rows are %d-dim", in, dim)
		}
		w := n.model.OutDim()
		if n.children == nil {
			if n.leafBase != next {
				return fmt.Errorf("core: hierarchy leaf node starts at bin %d, want %d", n.leafBase, next)
			}
			next += w
			return nil
		}
		if len(n.children) != w {
			return fmt.Errorf("core: hierarchy node outputs %d bins but has %d children", w, len(n.children))
		}
		for _, c := range n.children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(h.root); err != nil {
		return err
	}
	if next != h.NumBins {
		return fmt.Errorf("core: hierarchy leaves cover %d bins, NumBins is %d", next, h.NumBins)
	}
	if err := validateTable(h.Bins, h.NumBins, rows); err != nil {
		return fmt.Errorf("core: hierarchy: %w", err)
	}
	return nil
}
