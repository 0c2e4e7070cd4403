package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/nn"
)

// ensembleSpec is the gob-encodable snapshot of an Ensemble: each member's
// serialized network plus its lookup table.
type ensembleSpec struct {
	Parts []partSpec
}

// partSpec is one member. Files written before the point → bin map left the
// partitioner also carry each member's Assign; gob skips it.
type partSpec struct {
	Model []byte
	M     int
	Bins  [][]int32
}

// SaveEnsemble writes an ensemble (models and lookup tables) to w. Each bin
// is written in its own order — the order the read path scans it in — so a
// reloaded index serves results bit-identical to the live one.
func SaveEnsemble(w io.Writer, e *Ensemble) error {
	var spec ensembleSpec
	for _, p := range e.Parts {
		var buf bytes.Buffer
		if err := p.Model.Save(&buf); err != nil {
			return fmt.Errorf("core: serializing model: %w", err)
		}
		spec.Parts = append(spec.Parts, partSpec{Model: buf.Bytes(), M: p.M, Bins: p.Bins})
	}
	return gob.NewEncoder(w).Encode(spec)
}

// hierSpec snapshots a Hierarchy: the node tree with serialized models plus
// the global leaf table. Older snapshots also carry the branching factors
// (Levels), a probe temperature no writer set (ProbeTemp), and, before
// nodes held models only, a per-node Assign and Bins; gob skips them all.
type hierSpec struct {
	NumBins int
	Bins    [][]int32
	Root    hnodeSpec
}

type hnodeSpec struct {
	Model    []byte
	LeafBase int
	Children []hnodeSpec
}

// SaveHierarchy writes a hierarchy to w, each global leaf in its own order,
// so a reloaded index serves results bit-identical to the live one.
func SaveHierarchy(w io.Writer, h *Hierarchy) error {
	var snap func(n *hnode) (hnodeSpec, error)
	snap = func(n *hnode) (hnodeSpec, error) {
		var buf bytes.Buffer
		if err := n.model.Save(&buf); err != nil {
			return hnodeSpec{}, fmt.Errorf("core: serializing hierarchy model: %w", err)
		}
		ns := hnodeSpec{Model: buf.Bytes(), LeafBase: n.leafBase}
		for _, c := range n.children {
			cs, err := snap(c)
			if err != nil {
				return hnodeSpec{}, err
			}
			ns.Children = append(ns.Children, cs)
		}
		return ns, nil
	}
	root, err := snap(h.root)
	if err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(hierSpec{NumBins: h.NumBins, Bins: h.Bins, Root: root})
}

// LoadHierarchy reads a hierarchy previously written by SaveHierarchy. The
// result is not checked against any dataset; see Router.Validate.
func LoadHierarchy(r io.Reader) (*Hierarchy, error) {
	var spec hierSpec
	if err := gob.NewDecoder(r).Decode(&spec); err != nil {
		return nil, fmt.Errorf("core: decoding hierarchy: %w", err)
	}
	if spec.NumBins == 0 {
		return nil, fmt.Errorf("core: hierarchy snapshot is empty")
	}
	var restore func(ns hnodeSpec) (*hnode, error)
	restore = func(ns hnodeSpec) (*hnode, error) {
		model, err := nn.Load(bytes.NewReader(ns.Model), rand.New(rand.NewSource(int64(ns.LeafBase))))
		if err != nil {
			return nil, fmt.Errorf("core: decoding hierarchy model: %w", err)
		}
		n := &hnode{model: model, leafBase: ns.LeafBase}
		for _, cs := range ns.Children {
			c, err := restore(cs)
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, c)
		}
		return n, nil
	}
	root, err := restore(spec.Root)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{NumBins: spec.NumBins, Bins: mergeTable(spec.Bins, nil), root: root}, nil
}

// LoadEnsemble reads an ensemble previously written by SaveEnsemble. The
// result is not checked against any dataset; see Router.Validate.
func LoadEnsemble(r io.Reader) (*Ensemble, error) {
	var spec ensembleSpec
	if err := gob.NewDecoder(r).Decode(&spec); err != nil {
		return nil, fmt.Errorf("core: decoding ensemble: %w", err)
	}
	if len(spec.Parts) == 0 {
		return nil, fmt.Errorf("core: ensemble snapshot holds no models")
	}
	e := &Ensemble{}
	for i, ps := range spec.Parts {
		model, err := nn.Load(bytes.NewReader(ps.Model), rand.New(rand.NewSource(int64(i))))
		if err != nil {
			return nil, fmt.Errorf("core: decoding model %d: %w", i, err)
		}
		e.Parts = append(e.Parts, &Partitioner{Model: model, M: ps.M, Bins: mergeTable(ps.Bins, nil)})
	}
	return e, nil
}
