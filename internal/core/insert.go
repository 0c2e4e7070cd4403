package core

import "repro/internal/vecmath"

// Incremental insertion: new points are routed by the trained model to
// their most probable bin, exactly as queries are (Algorithm 2 step 2), and
// appended to the lookup table. The paper trains offline on a static
// dataset; insertion-by-routing is the natural online extension — the
// model's decision boundaries are fixed, so an inserted point lands in the
// bin whose candidates it will later be returned with.

// Routing (the model forward pass) and table mutation are split so callers
// serializing inserts against concurrent queries can compute the routing
// decision outside their critical section: the trained models are immutable,
// only the append needs exclusivity. A router shared with concurrent readers
// takes inserts through Router.With; InsertRouted appends in place, for a
// router its caller owns alone.

// RouteBinsWith appends each member partition's routing decision for vec to
// dst, running the forward passes through the caller's scratch
// (allocation-free when warm).
func (e *Ensemble) RouteBinsWith(qs *QueryScratch, vec []float32, dst []int) []int {
	e.Route(qs, vec, UnionProbe) // every member's row, no member selection
	for m := range e.Parts {
		dst = append(dst, vecmath.ArgMax(qs.memberProbs[m]))
	}
	return dst
}

// InsertRouted appends a point to every member partition at the bins
// RouteBinsWith chose for it.
func (e *Ensemble) InsertRouted(id int, bins []int) {
	for j, p := range e.Parts {
		p.Bins[bins[j]] = append(p.Bins[bins[j]], int32(id))
	}
}

// RouteLeafWith returns the global leaf bin the tree routes vec to, running
// the tree walk through the caller's scratch.
func (h *Hierarchy) RouteLeafWith(qs *QueryScratch, vec []float32) int {
	h.Route(qs, vec, BestConfidence)
	return vecmath.ArgMax(qs.leaf)
}

// RouteBinsWith implements Router: the hierarchy is one member whose bin is
// the global leaf.
func (h *Hierarchy) RouteBinsWith(qs *QueryScratch, vec []float32, dst []int) []int {
	return append(dst, h.RouteLeafWith(qs, vec))
}

// InsertRouted appends a point to the given global leaf bin.
func (h *Hierarchy) InsertRouted(id, g int) {
	h.Bins[g] = append(h.Bins[g], int32(id))
}
