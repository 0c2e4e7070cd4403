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
// only the append needs exclusivity. An ensemble shared with concurrent
// readers takes inserts through With; InsertRouted appends in place, for an
// ensemble its caller owns alone.

// RouteBinsWith appends each member's routing decision for vec — its most
// probable leaf bin, the rule queries use — to dst, running the routing
// passes through the caller's scratch (allocation-free when warm). A tree
// member expands only the nodes its top leaf needs.
func (e *Ensemble) RouteBinsWith(qs *QueryScratch, vec []float32, dst []int) []int {
	e.Route(qs, vec, 1)
	for m := range e.Parts {
		dst = append(dst, vecmath.ArgMax(qs.probs[m]))
	}
	return dst
}

// InsertRouted appends a point to every member at the bins RouteBinsWith
// chose for it. Only the stage rig (bench/rig.go) and tests call it; it goes
// with the rig (ROADMAP 1(b)).
func (e *Ensemble) InsertRouted(id int, bins []int) {
	for m, p := range e.Parts {
		p.InsertRouted(id, bins[m])
	}
}

// RouteLeafWith returns the leaf bin p routes vec to, running the routing
// pass at m′ = M through the caller's scratch. Only the stage rig
// (bench/rig.go) and tests call it; it goes with the rig (ROADMAP 1(b)).
func (p *Partitioner) RouteLeafWith(qs *QueryScratch, vec []float32) int {
	buf := slot(&qs.probs, 0)
	*buf = p.LeafProbabilitiesInto(*buf, vec, qs)
	return vecmath.ArgMax(*buf)
}

// InsertRouted appends a point to leaf bin g, in place. Only the stage rig
// (bench/rig.go) calls it directly; it goes with the rig (ROADMAP 1(b)).
func (p *Partitioner) InsertRouted(id, g int) {
	p.Bins[g] = append(p.Bins[g], int32(id))
}
