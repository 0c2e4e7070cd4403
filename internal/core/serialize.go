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

type partSpec struct {
	Model  []byte
	M      int
	Assign []int32
	Bins   [][]int32
}

// SaveEnsembleWith writes an ensemble (models and lookup tables) to w. Each
// bin list is written as its CSR range followed by the bin's post-epoch
// inserts from extra (nil when none are pending) — the same merge order the
// live read path and the compactor use — and Assign is extended to n entries
// with the extra ids' routed bins, so a reloaded index serves results
// bit-identical to the live one without a compaction first.
func SaveEnsembleWith(w io.Writer, e *Ensemble, n int, extra ExtraBins) error {
	var spec ensembleSpec
	for m, p := range e.Parts {
		var buf bytes.Buffer
		if err := p.Model.Save(&buf); err != nil {
			return fmt.Errorf("core: serializing model: %w", err)
		}
		spec.Parts = append(spec.Parts, partSpec{
			Model: buf.Bytes(), M: p.M,
			Assign: mergedAssign(p.Assign, n, m, p.M, extra),
			Bins:   mergedBinLists(p, n, m, extra),
		})
	}
	return gob.NewEncoder(w).Encode(spec)
}

// mergedBinLists materializes per-bin id lists as CSR range + extra inserts.
func mergedBinLists(p *Partitioner, n, member int, extra ExtraBins) [][]int32 {
	out := make([][]int32, p.M)
	for b := 0; b < p.M; b++ {
		list := p.AppendBin(make([]int32, 0, p.BinLen(b)), b)
		if extra != nil {
			list = extra.AppendExtra(list, member, b)
		}
		out[b] = list
	}
	return out
}

// mergedAssign extends assign to n entries, scattering the extra ids' routed
// bins; ids with no assignment (possible only transiently) are marked -1.
func mergedAssign(assign []int32, n, member, m int, extra ExtraBins) []int32 {
	if extra == nil && len(assign) == n {
		return assign
	}
	out := make([]int32, n)
	copy(out, assign)
	for i := len(assign); i < n; i++ {
		out[i] = -1
	}
	if extra != nil {
		var scratch []int32
		for b := 0; b < m; b++ {
			scratch = extra.AppendExtra(scratch[:0], member, b)
			for _, id := range scratch {
				out[id] = int32(b)
			}
		}
	}
	return out
}

// hierSpec snapshots a Hierarchy: the node tree with serialized models plus
// the global leaf table.
type hierSpec struct {
	Levels    []int
	NumBins   int
	Bins      [][]int32
	ProbeTemp float64
	Root      hnodeSpec
}

type hnodeSpec struct {
	Model    []byte
	M        int
	Assign   []int32
	Bins     [][]int32
	LeafBase int
	Children []hnodeSpec
}

// SaveHierarchyWith writes a hierarchy to w. Each global leaf list is
// written as its frozen range followed by the leaf's post-epoch inserts from
// extra (nil when none are pending), matching the live read order so
// reloaded indexes serve bit-identical results.
func SaveHierarchyWith(w io.Writer, h *Hierarchy, extra ExtraBins) error {
	bins := h.Bins
	if extra != nil {
		bins = make([][]int32, h.NumBins)
		for g := range bins {
			bins[g] = extra.AppendExtra(append([]int32(nil), h.Bins[g]...), 0, g)
		}
	}
	spec := hierSpec{
		Levels: h.Levels, NumBins: h.NumBins, Bins: bins, ProbeTemp: h.ProbeTemp,
	}
	var snap func(n *hnode) (hnodeSpec, error)
	snap = func(n *hnode) (hnodeSpec, error) {
		var buf bytes.Buffer
		if err := n.part.Model.Save(&buf); err != nil {
			return hnodeSpec{}, fmt.Errorf("core: serializing hierarchy model: %w", err)
		}
		ns := hnodeSpec{
			Model: buf.Bytes(), M: n.part.M,
			Assign: n.part.Assign, Bins: n.part.BinLists(), LeafBase: n.leafBase,
		}
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
	spec.Root = root
	return gob.NewEncoder(w).Encode(spec)
}

// LoadHierarchy reads a hierarchy previously written by SaveHierarchyWith.
func LoadHierarchy(r io.Reader) (*Hierarchy, error) {
	var spec hierSpec
	if err := gob.NewDecoder(r).Decode(&spec); err != nil {
		return nil, fmt.Errorf("core: decoding hierarchy: %w", err)
	}
	if spec.NumBins == 0 {
		return nil, fmt.Errorf("core: hierarchy snapshot is empty")
	}
	var restore func(ns hnodeSpec, depth int) (*hnode, error)
	restore = func(ns hnodeSpec, depth int) (*hnode, error) {
		model, err := nn.Load(bytes.NewReader(ns.Model), rand.New(rand.NewSource(int64(ns.LeafBase))))
		if err != nil {
			return nil, fmt.Errorf("core: decoding hierarchy model: %w", err)
		}
		part := &Partitioner{Model: model, M: ns.M, Assign: ns.Assign}
		part.setBinLists(ns.Bins)
		n := &hnode{part: part, leafBase: ns.LeafBase}
		for _, cs := range ns.Children {
			c, err := restore(cs, depth+1)
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, c)
		}
		return n, nil
	}
	root, err := restore(spec.Root, 0)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{
		Levels: spec.Levels, NumBins: spec.NumBins, Bins: spec.Bins,
		ProbeTemp: spec.ProbeTemp, root: root,
	}, nil
}

// LoadEnsemble reads an ensemble previously written by SaveEnsembleWith.
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
		p := &Partitioner{Model: model, M: ps.M, Assign: ps.Assign}
		p.setBinLists(ps.Bins)
		e.Parts = append(e.Parts, p)
	}
	return e, nil
}
