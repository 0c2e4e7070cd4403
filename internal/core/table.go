package core

import (
	"fmt"

	"repro/internal/bitset"
)

// The lookup table of Algorithm 1 step 3 is a partitioner's Bins: a
// [][]int32 whose entry b lists the ids in leaf bin b in insertion order.
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
		ne.Parts[m] = &Partitioner{node: p.node, M: p.M, Bins: table(p)}
	}
	return ne
}

// Rebuild returns an ensemble whose tables are e's minus the ids in drop,
// packed.
func (e *Ensemble) Rebuild(drop *bitset.Set) *Ensemble {
	return e.withTables(func(p *Partitioner) [][]int32 { return mergeTable(p.Bins, drop) })
}

// FilterRemap returns an ensemble whose tables are restricted to the ids in
// [lo, hi), renumbered to id−lo, packed. Because the models are shared,
// every shard routes a query to the same bins as the parent, so the union of
// the shards' candidate sets at equal probe settings is exactly the
// parent's.
func (e *Ensemble) FilterRemap(lo, hi int) *Ensemble {
	return e.withTables(func(p *Partitioner) [][]int32 { return filterTable(p.Bins, lo, hi) })
}

// With returns an ensemble whose member m's bin bins[m] also holds id,
// appended last. Every member's header array is copied, since each insert
// lands in one bin of every member; the copies are consecutive ranges of one
// array. The id lists stay shared, which is safe because readers of the
// receiver never read past their own lengths.
func (e *Ensemble) With(id int, bins []int) *Ensemble {
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

// Validate checks a decoded ensemble against the dataset it will serve: rows
// of width dim. In every member, each model reads dim-wide rows, an inner
// node has one child per output, the leaves cover [0, M) in depth-first
// order with no gap or overlap, and the leaf table addresses rows rows. An
// ensemble that passes cannot make a query index out of range.
func (e *Ensemble) Validate(rows, dim int) error {
	for m, p := range e.Parts {
		if err := p.validate(rows, dim); err != nil {
			return fmt.Errorf("core: member %d: %w", m, err)
		}
	}
	return nil
}

func (p *Partitioner) validate(rows, dim int) error {
	next := 0
	var walk func(nd *node) error
	walk = func(nd *node) error {
		if in := nd.Model.InDim; in != dim {
			return fmt.Errorf("model takes %d-dim input, rows are %d-dim", in, dim)
		}
		w := nd.Model.OutDim()
		if nd.children == nil {
			if nd.leafBase != next {
				return fmt.Errorf("leaf model starts at bin %d, want %d", nd.leafBase, next)
			}
			next += w
			return nil
		}
		if len(nd.children) != w {
			return fmt.Errorf("model outputs %d bins but has %d children", w, len(nd.children))
		}
		for i := range nd.children {
			if err := walk(&nd.children[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(&p.node); err != nil {
		return err
	}
	if next != p.M {
		return fmt.Errorf("leaves cover %d bins, table declares %d", next, p.M)
	}
	return validateTable(p.Bins, p.M, rows)
}
