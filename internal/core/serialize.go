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

// SaveEnsemble writes an ensemble of flat members (models and lookup
// tables) to w. Each bin is written in its own order — the order the read
// path scans it in — so a reloaded index serves results bit-identical to the
// live one. A member with children has no place in the format; see
// SaveHierarchy.
func SaveEnsemble(w io.Writer, e *Ensemble) error {
	var spec ensembleSpec
	for m, p := range e.Parts {
		if p.children != nil {
			return fmt.Errorf("core: ensemble member %d is a tree; save it with SaveHierarchy", m)
		}
		var buf bytes.Buffer
		if err := p.Model.Save(&buf); err != nil {
			return fmt.Errorf("core: serializing model: %w", err)
		}
		spec.Parts = append(spec.Parts, partSpec{Model: buf.Bytes(), M: p.M, Bins: p.Bins})
	}
	return gob.NewEncoder(w).Encode(spec)
}

// hierSpec snapshots one tree: the node tree with serialized models plus
// the leaf table. Older snapshots also carry the branching factors
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

// SaveHierarchy writes one tree — the model of every node and the leaf
// table, each leaf in its own order — to w, so a reloaded index serves
// results bit-identical to the live one. A flat partitioner is written as a
// tree of one node.
func SaveHierarchy(w io.Writer, p *Partitioner) error {
	var snap func(nd *node) (hnodeSpec, error)
	snap = func(nd *node) (hnodeSpec, error) {
		var buf bytes.Buffer
		if err := nd.Model.Save(&buf); err != nil {
			return hnodeSpec{}, fmt.Errorf("core: serializing hierarchy model: %w", err)
		}
		ns := hnodeSpec{Model: buf.Bytes(), LeafBase: nd.leafBase}
		for i := range nd.children {
			cs, err := snap(&nd.children[i])
			if err != nil {
				return hnodeSpec{}, err
			}
			ns.Children = append(ns.Children, cs)
		}
		return ns, nil
	}
	root, err := snap(&p.node)
	if err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(hierSpec{NumBins: p.M, Bins: p.Bins, Root: root})
}

// LoadHierarchy reads a tree previously written by SaveHierarchy. The result
// is not checked against any dataset; see Ensemble.Validate.
func LoadHierarchy(r io.Reader) (*Partitioner, error) {
	var spec hierSpec
	if err := gob.NewDecoder(r).Decode(&spec); err != nil {
		return nil, fmt.Errorf("core: decoding hierarchy: %w", err)
	}
	if spec.NumBins == 0 {
		return nil, fmt.Errorf("core: hierarchy snapshot is empty")
	}
	var restore func(nd *node, ns hnodeSpec) error
	restore = func(nd *node, ns hnodeSpec) error {
		model, err := nn.Load(bytes.NewReader(ns.Model), rand.New(rand.NewSource(int64(ns.LeafBase))))
		if err != nil {
			return fmt.Errorf("core: decoding hierarchy model: %w", err)
		}
		nd.Model, nd.leafBase = model, ns.LeafBase
		if len(ns.Children) > 0 {
			nd.children = make([]node, len(ns.Children))
		}
		for i, cs := range ns.Children {
			if err := restore(&nd.children[i], cs); err != nil {
				return err
			}
		}
		return nil
	}
	p := &Partitioner{M: spec.NumBins, Bins: mergeTable(spec.Bins, nil)}
	if err := restore(&p.node, spec.Root); err != nil {
		return nil, err
	}
	return p, nil
}

// LoadEnsemble reads an ensemble previously written by SaveEnsemble. The
// result is not checked against any dataset; see Ensemble.Validate.
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
		e.Parts = append(e.Parts, &Partitioner{node: node{Model: model}, M: ps.M, Bins: mergeTable(ps.Bins, nil)})
	}
	return e, nil
}
