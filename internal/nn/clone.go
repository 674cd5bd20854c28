package nn

import (
	"adrias/internal/mathx"
	"adrias/internal/randutil"
)

// This file implements Layer.Clone for every layer: deep copies used by the
// data-parallel Trainer (one replica per worker goroutine) and by callers
// that want concurrent inference. A clone carries the source's weights
// (including frozen state tensors such as batch-norm running statistics)
// but starts with zeroed gradients, no optimizer moments, and empty
// activation caches, so training a clone never mutates its source.

// cloneParam deep-copies the weight tensor and allocates a fresh gradient
// accumulator. Adam moments are per-optimizer state and stay nil: replicas
// only accumulate gradients, the master's optimizer owns the moments.
func cloneParam(p *Param) *Param {
	return &Param{
		Name:   p.Name,
		W:      p.W.Clone(),
		G:      mathx.NewMatrix(p.W.Rows, p.W.Cols),
		Frozen: p.Frozen,
	}
}

// Clone implements Layer.
func (d *Dense) Clone(_ *randutil.Source) Layer {
	return &Dense{In: d.In, Out: d.Out, w: cloneParam(d.w), b: cloneParam(d.b)}
}

// Clone implements Layer.
func (r *ReLU) Clone(_ *randutil.Source) Layer { return &ReLU{} }

// Clone implements Layer. The clone draws its training masks from rng, so
// replicas regularize with decorrelated streams; at inference Dropout is
// identity and rng is never consulted.
func (d *Dropout) Clone(rng *randutil.Source) Layer {
	return &Dropout{Rate: d.Rate, rng: rng}
}

// Clone implements Layer.
func (b *BatchNorm) Clone(_ *randutil.Source) Layer {
	return &BatchNorm{
		Dim:      b.Dim,
		Momentum: b.Momentum,
		Eps:      b.Eps,
		gamma:    cloneParam(b.gamma),
		beta:     cloneParam(b.beta),
		stats:    cloneParam(b.stats),
	}
}

// Clone implements Layer.
func (l *LayerNorm) Clone(_ *randutil.Source) Layer {
	return &LayerNorm{Dim: l.Dim, Eps: l.Eps, gamma: cloneParam(l.gamma), beta: cloneParam(l.beta)}
}

// Clone implements Layer. Every layer draws from its own Split of rng, so
// no two Dropout layers share a stream: their draws then depend only on
// each layer's own sample order, never on how the layers' calls
// interleave, and a batched replica draws the masks a per-sample one would.
func (s *Sequential) Clone(rng *randutil.Source) Layer {
	c := &Sequential{Layers: make([]Layer, len(s.Layers))}
	for i, l := range s.Layers {
		c.Layers[i] = l.Clone(rng.Split(int64(i)))
	}
	return c
}

// CloneSeq is Clone with the concrete return type (Go interfaces cannot
// covariantly narrow), for callers composing Sequentials directly.
func (s *Sequential) CloneSeq(rng *randutil.Source) *Sequential {
	return s.Clone(rng).(*Sequential)
}

// Clone returns a deep, independent copy of the LSTM layer.
func (l *LSTM) Clone(_ *randutil.Source) *LSTM {
	return &LSTM{In: l.In, Hidden: l.Hidden, w: cloneParam(l.w), b: cloneParam(l.b), noInputGrad: l.noInputGrad}
}

// Clone returns a deep, independent copy of the encoder stack.
func (e *SeqEncoder) Clone(rng *randutil.Source) *SeqEncoder {
	c := &SeqEncoder{Layers: make([]*LSTM, len(e.Layers))}
	for i, l := range e.Layers {
		c.Layers[i] = l.Clone(rng)
	}
	return c
}
