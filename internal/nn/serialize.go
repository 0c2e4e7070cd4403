package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// layerSpec is the gob-encodable snapshot of one layer. Only the fields
// relevant to the layer's Kind are populated.
type layerSpec struct {
	Kind string // "dense", "relu", "batchnorm", "dropout"

	// dense
	In, Out int
	W, B    []float32

	// batchnorm
	Dim                          int
	Gamma, Beta, RunMean, RunVar []float32
	Momentum, Eps                float64

	// dropout
	P float64
}

type modelSpec struct {
	InDim  int
	Layers []layerSpec
}

// Save serializes the model's architecture and weights to w in a stable
// binary format (encoding/gob over explicit snapshots).
func (s *Sequential) Save(w io.Writer) error {
	spec := modelSpec{InDim: s.InDim}
	for _, l := range s.Layers {
		switch t := l.(type) {
		case *Dense:
			spec.Layers = append(spec.Layers, layerSpec{
				Kind: "dense",
				In:   t.W.Value.Rows, Out: t.W.Value.Cols,
				W: t.W.Value.Data, B: t.B.Value.Data,
			})
		case *ReLU:
			spec.Layers = append(spec.Layers, layerSpec{Kind: "relu"})
		case *BatchNorm:
			spec.Layers = append(spec.Layers, layerSpec{
				Kind:  "batchnorm",
				Dim:   t.Gamma.Value.Cols,
				Gamma: t.Gamma.Value.Data, Beta: t.Beta.Value.Data,
				RunMean: t.RunningMean.Data, RunVar: t.RunningVar.Data,
				Momentum: t.Momentum, Eps: t.Eps,
			})
		case *Dropout:
			spec.Layers = append(spec.Layers, layerSpec{Kind: "dropout", P: t.P})
		default:
			return fmt.Errorf("nn: cannot serialize layer type %T", l)
		}
	}
	return gob.NewEncoder(w).Encode(spec)
}

// Load reconstructs a model previously written by Save. rng seeds any
// stochastic layers (dropout); it may be nil if the model will only be used
// for inference. Every layer's shape must chain from InDim and match the
// weights stored for it, so a model that loads cannot index out of range
// on an InDim-wide input. Every stored parameter and running statistic must
// be finite, and every running variance plus ε positive, so a model that
// loads turns a finite input into finite logits unless they overflow.
func Load(r io.Reader, rng *rand.Rand) (*Sequential, error) {
	var spec modelSpec
	if err := gob.NewDecoder(r).Decode(&spec); err != nil {
		return nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	if spec.InDim < 1 {
		return nil, fmt.Errorf("nn: model input width %d", spec.InDim)
	}
	model := &Sequential{InDim: spec.InDim}
	width := spec.InDim
	for i, ls := range spec.Layers {
		switch {
		case ls.Kind == "dense" && (ls.In != width || ls.Out < 1 || len(ls.W)/ls.Out != ls.In ||
			len(ls.W)%ls.Out != 0 || len(ls.B) != ls.Out),
			ls.Kind == "batchnorm" && (ls.Dim != width || len(ls.Gamma) != width || len(ls.Beta) != width ||
				len(ls.RunMean) != width || len(ls.RunVar) != width),
			ls.Kind == "dropout" && !(ls.P >= 0 && ls.P < 1):
			return nil, fmt.Errorf("nn: layer %d (%s) does not fit a %d-wide input", i, ls.Kind, width)
		case ls.Kind == "dense" && !finite(ls.W, ls.B),
			ls.Kind == "batchnorm" && !(finite(ls.Gamma, ls.Beta, ls.RunMean, ls.RunVar) && positiveVariance(ls.RunVar, ls.Eps)):
			return nil, fmt.Errorf("nn: layer %d (%s) holds a non-finite parameter or a variance + ε that is not positive", i, ls.Kind)
		case ls.Kind == "dense":
			width = ls.Out
		}
		switch ls.Kind {
		case "dense":
			d := &Dense{W: newParam("W", ls.In, ls.Out), B: newParam("b", 1, ls.Out)}
			copy(d.W.Value.Data, ls.W)
			copy(d.B.Value.Data, ls.B)
			model.Layers = append(model.Layers, d)
		case "relu":
			model.Layers = append(model.Layers, NewReLU())
		case "batchnorm":
			bn := NewBatchNorm(ls.Dim)
			copy(bn.Gamma.Value.Data, ls.Gamma)
			copy(bn.Beta.Value.Data, ls.Beta)
			bn.RunningMean = tensor.FromSlice(1, ls.Dim, append([]float32(nil), ls.RunMean...))
			bn.RunningVar = tensor.FromSlice(1, ls.Dim, append([]float32(nil), ls.RunVar...))
			bn.Momentum, bn.Eps = ls.Momentum, ls.Eps
			model.Layers = append(model.Layers, bn)
		case "dropout":
			if rng == nil {
				rng = rand.New(rand.NewSource(1))
			}
			model.Layers = append(model.Layers, NewDropout(ls.P, rng))
		default:
			return nil, fmt.Errorf("nn: unknown layer kind %q", ls.Kind)
		}
	}
	return model, nil
}

// finite reports whether every value of every slice is finite.
func finite(vals ...[]float32) bool {
	for _, s := range vals {
		for _, v := range s {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return false
			}
		}
	}
	return true
}

// positiveVariance reports whether every running variance plus eps, the
// radicand batch-norm inference takes the square root of, is positive and
// finite.
func positiveVariance(vars []float32, eps float64) bool {
	for _, v := range vars {
		if s := float64(v) + eps; !(s > 0) || math.IsInf(s, 1) {
			return false
		}
	}
	return true
}
