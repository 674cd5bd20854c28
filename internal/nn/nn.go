// Package nn is a small, dependency-free neural-network library built for
// the Adrias predictor models: dense layers, ReLU, dropout, batch
// normalization, LSTM layers with full backpropagation-through-time, MSE
// loss, SGD and Adam optimizers, and gob serialization.
//
// The library trades generality for clarity: there is no autodiff graph.
// Each layer implements an explicit Forward/Backward pair and caches the
// activations of the most recent forward pass. Feedforward layers have two
// execution modes over the same parameters: the vector path processes one
// sample per call, and the batched path (ForwardBatch/BackwardBatch)
// processes a whole minibatch as the rows of a matrix — one GEMM per layer
// instead of one GEMV per sample, with scratch arenas keyed by batch size so
// steady-state inference is allocation-free and per-sample results
// bit-identical to the vector path (batch.go). LSTMs run only batched
// (ForwardSeqBatch/BackwardSeqBatch: one GEMM per timestep), with outputs
// and gradients bit-identical to per-sample BPTT (lstm_batch.go).
// Layers are still not safe for concurrent use; every layer supports
// Clone, and the Trainer uses per-goroutine clones to shard minibatches
// across a worker pool with a deterministic, ordered gradient reduction
// (see trainer.go).
package nn

import (
	"fmt"
	"math"

	"adrias/internal/mathx"
	"adrias/internal/randutil"
)

// Param is one trainable tensor with its gradient accumulator and Adam
// moment estimates. Frozen params carry layer state (e.g. batch-norm
// running statistics) through serialization but are skipped by optimizers.
type Param struct {
	Name   string
	W      *mathx.Matrix
	G      *mathx.Matrix
	M, V   *mathx.Matrix // Adam first/second moments, allocated lazily
	Frozen bool
}

func newParam(name string, rows, cols int) *Param {
	return &Param{
		Name: name,
		W:    mathx.NewMatrix(rows, cols),
		G:    mathx.NewMatrix(rows, cols),
	}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.G.Zero() }

// glorotInit fills W with Glorot/Xavier uniform draws for the given fan-in
// and fan-out.
func glorotInit(w *mathx.Matrix, fanIn, fanOut int, rng *randutil.Source) {
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range w.Data {
		w.Data[i] = rng.Uniform(-limit, limit)
	}
}

// Layer is a vector-to-vector layer with a minibatch-matrix fast path.
type Layer interface {
	// Forward maps x to the layer output. train enables training-time
	// behavior (dropout masks, batch-norm statistics updates).
	Forward(x mathx.Vector, train bool) mathx.Vector
	// Backward maps the loss gradient at the output to the gradient at the
	// input, accumulating parameter gradients. Must follow a Forward call.
	Backward(dy mathx.Vector) mathx.Vector
	// ForwardBatch is the minibatch counterpart of Forward: row b of X is
	// sample b, and row b of the output is bit-identical to Forward on that
	// sample (see batch.go for the exact contract, including how Dropout
	// orders its mask stream). The returned matrix is owned by the layer's
	// scratch arena: it stays valid until the next batched call on this
	// layer and must not be mutated. Steady-state calls at a fixed batch
	// size do not allocate.
	ForwardBatch(X *mathx.Matrix, train bool) *mathx.Matrix
	// BackwardBatch maps batched output gradients (rows = samples) to
	// batched input gradients, accumulating parameter gradients in sample
	// order — bit-identical to per-sample Backward calls in row order. Must
	// follow a ForwardBatch call with the same batch size. The returned
	// matrix is arena-owned like ForwardBatch's.
	BackwardBatch(dY *mathx.Matrix) *mathx.Matrix
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// Clone returns a deep, independent copy: equal weights, zeroed
	// gradients, fresh activation caches — safe to drive from another
	// goroutine. Layers that draw randomness during training (Dropout)
	// draw from rng; deterministic layers ignore it.
	Clone(rng *randutil.Source) Layer
}

// Dense is a fully-connected layer: y = W·x + b.
type Dense struct {
	In, Out int
	w, b    *Param
	x       mathx.Vector // cached input
	bat     denseBatch   // batched-path scratch arena (batch.go)
}

// NewDense builds a Dense layer with Glorot-initialized weights.
func NewDense(in, out int, rng *randutil.Source) *Dense {
	d := &Dense{
		In: in, Out: out,
		w: newParam("dense.w", out, in),
		b: newParam("dense.b", 1, out),
	}
	glorotInit(d.w.W, in, out, rng)
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x mathx.Vector, _ bool) mathx.Vector {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: Dense expects %d inputs, got %d", d.In, len(x)))
	}
	d.x = x.Clone()
	y := mathx.NewVector(d.Out)
	d.w.W.MulVec(y, x)
	y.Add(d.b.W.Row(0))
	return y
}

// Backward implements Layer.
func (d *Dense) Backward(dy mathx.Vector) mathx.Vector {
	if d.x == nil {
		panic("nn: Dense.Backward before Forward")
	}
	d.w.G.AddOuter(1, dy, d.x)
	d.b.G.Row(0).Add(dy)
	dx := mathx.NewVector(d.In)
	d.w.W.MulVecT(dx, dy)
	return dx
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool
	bat  reluBatch
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x mathx.Vector, _ bool) mathx.Vector {
	y := x.Clone()
	if cap(r.mask) < len(x) {
		r.mask = make([]bool, len(x))
	}
	r.mask = r.mask[:len(x)]
	for i, v := range y {
		if v > 0 {
			r.mask[i] = true
		} else {
			r.mask[i] = false
			y[i] = 0
		}
	}
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(dy mathx.Vector) mathx.Vector {
	dx := dy.Clone()
	for i := range dx {
		if !r.mask[i] {
			dx[i] = 0
		}
	}
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Dropout zeroes a random fraction of activations during training and
// rescales the survivors (inverted dropout). At inference it is identity.
type Dropout struct {
	Rate float64
	rng  *randutil.Source
	mask mathx.Vector
	bat  dropoutBatch
}

// NewDropout builds a Dropout layer with drop probability rate in [0, 1).
func NewDropout(rate float64, rng *randutil.Source) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %g out of [0,1)", rate))
	}
	return &Dropout{Rate: rate, rng: rng}
}

// Forward implements Layer.
func (d *Dropout) Forward(x mathx.Vector, train bool) mathx.Vector {
	y := x.Clone()
	if !train || d.Rate == 0 {
		d.mask = nil
		return y
	}
	keep := 1 - d.Rate
	d.mask = mathx.NewVector(len(x))
	for i := range y {
		if d.rng.Float64() < keep {
			d.mask[i] = 1 / keep
		}
		y[i] *= d.mask[i]
	}
	return y
}

// Backward implements Layer.
func (d *Dropout) Backward(dy mathx.Vector) mathx.Vector {
	dx := dy.Clone()
	if d.mask != nil {
		dx.MulElem(d.mask)
	}
	return dx
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// BatchNorm normalizes activations feature-wise with running statistics and
// applies a learned scale and shift. Because the trainer processes one
// sample at a time, statistics are maintained as exponential moving
// averages updated during training forward passes (an online variant of
// batch normalization); normalization always uses the running statistics,
// so gradients flow only through the affine parameters and the normalized
// input.
type BatchNorm struct {
	Dim      int
	Momentum float64
	Eps      float64
	gamma    *Param
	beta     *Param
	// stats is a frozen 3×dim param: row 0 running mean, row 1 running
	// variance, row 2 col 0 warm flag — so serialization captures it.
	stats    *Param
	xhat     mathx.Vector
	stdCache mathx.Vector
	bat      normBatch
}

// NewBatchNorm builds a BatchNorm layer for dim features.
func NewBatchNorm(dim int) *BatchNorm {
	bn := &BatchNorm{
		Dim:      dim,
		Momentum: 0.99,
		Eps:      1e-5,
		gamma:    newParam("bn.gamma", 1, dim),
		beta:     newParam("bn.beta", 1, dim),
		stats:    newParam("bn.stats", 3, dim),
	}
	bn.stats.Frozen = true
	bn.gamma.W.Row(0).Fill(1)
	bn.stats.W.Row(1).Fill(1) // unit variance prior
	return bn
}

func (b *BatchNorm) runMean() mathx.Vector { return b.stats.W.Row(0) }
func (b *BatchNorm) runVar() mathx.Vector  { return b.stats.W.Row(1) }

// Forward implements Layer.
func (b *BatchNorm) Forward(x mathx.Vector, train bool) mathx.Vector {
	if len(x) != b.Dim {
		panic(fmt.Sprintf("nn: BatchNorm expects %d features, got %d", b.Dim, len(x)))
	}
	mean, vr := b.runMean(), b.runVar()
	if train {
		m := b.Momentum
		if b.stats.W.At(2, 0) == 0 {
			// Seed the running statistics with the first sample.
			copy(mean, x)
			b.stats.W.Set(2, 0, 1)
		}
		for j := range x {
			mean[j] = m*mean[j] + (1-m)*x[j]
			d := x[j] - mean[j]
			vr[j] = m*vr[j] + (1-m)*d*d
		}
	}
	y := mathx.NewVector(b.Dim)
	b.xhat = mathx.NewVector(b.Dim)
	b.stdCache = mathx.NewVector(b.Dim)
	g, be := b.gamma.W.Row(0), b.beta.W.Row(0)
	for j := range x {
		std := math.Sqrt(vr[j] + b.Eps)
		b.stdCache[j] = std
		b.xhat[j] = (x[j] - mean[j]) / std
		y[j] = g[j]*b.xhat[j] + be[j]
	}
	return y
}

// Backward implements Layer.
func (b *BatchNorm) Backward(dy mathx.Vector) mathx.Vector {
	if b.xhat == nil {
		panic("nn: BatchNorm.Backward before Forward")
	}
	g := b.gamma.W.Row(0)
	gg, gb := b.gamma.G.Row(0), b.beta.G.Row(0)
	dx := mathx.NewVector(b.Dim)
	for j := range dy {
		gg[j] += dy[j] * b.xhat[j]
		gb[j] += dy[j]
		dx[j] = dy[j] * g[j] / b.stdCache[j]
	}
	return dx
}

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.gamma, b.beta, b.stats} }

// LayerNorm normalizes each sample across its features and applies a
// learned scale and shift, with gradients flowing through the statistics.
// The Adrias blocks use it in place of batch normalization: training here
// is per-sample (no minibatch tensor), and the running-statistics variant
// of batch norm couples the forward pass to state the gradients cannot see,
// which destabilizes training. LayerNorm fills the same role —
// activation-scale control between dense layers — with strictly local
// computation.
type LayerNorm struct {
	Dim   int
	Eps   float64
	gamma *Param
	beta  *Param

	x    mathx.Vector
	xhat mathx.Vector
	std  float64
	bat  normBatch
}

// NewLayerNorm builds a LayerNorm for dim features.
func NewLayerNorm(dim int) *LayerNorm {
	ln := &LayerNorm{
		Dim:   dim,
		Eps:   1e-5,
		gamma: newParam("ln.gamma", 1, dim),
		beta:  newParam("ln.beta", 1, dim),
	}
	ln.gamma.W.Row(0).Fill(1)
	return ln
}

// Forward implements Layer.
func (l *LayerNorm) Forward(x mathx.Vector, _ bool) mathx.Vector {
	if len(x) != l.Dim {
		panic(fmt.Sprintf("nn: LayerNorm expects %d features, got %d", l.Dim, len(x)))
	}
	l.x = x.Clone()
	mu := mathx.Mean(x)
	var v float64
	for _, xi := range x {
		d := xi - mu
		v += d * d
	}
	v /= float64(l.Dim)
	l.std = math.Sqrt(v + l.Eps)
	l.xhat = mathx.NewVector(l.Dim)
	y := mathx.NewVector(l.Dim)
	g, b := l.gamma.W.Row(0), l.beta.W.Row(0)
	for j, xi := range x {
		l.xhat[j] = (xi - mu) / l.std
		y[j] = g[j]*l.xhat[j] + b[j]
	}
	return y
}

// Backward implements Layer.
func (l *LayerNorm) Backward(dy mathx.Vector) mathx.Vector {
	if l.xhat == nil {
		panic("nn: LayerNorm.Backward before Forward")
	}
	n := float64(l.Dim)
	g := l.gamma.W.Row(0)
	gg, gb := l.gamma.G.Row(0), l.beta.G.Row(0)
	dxhat := mathx.NewVector(l.Dim)
	var sumDx, sumDxX float64
	for j := range dy {
		gg[j] += dy[j] * l.xhat[j]
		gb[j] += dy[j]
		dxhat[j] = dy[j] * g[j]
		sumDx += dxhat[j]
		sumDxX += dxhat[j] * l.xhat[j]
	}
	dx := mathx.NewVector(l.Dim)
	for j := range dx {
		dx[j] = (dxhat[j] - sumDx/n - l.xhat[j]*sumDxX/n) / l.std
	}
	return dx
}

// Params implements Layer.
func (l *LayerNorm) Params() []*Param { return []*Param{l.gamma, l.beta} }

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward implements Layer.
func (s *Sequential) Forward(x mathx.Vector, train bool) mathx.Vector {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(dy mathx.Vector) mathx.Vector {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// NonLinearBlock builds the paper's Fig. 11 block: Dense → ReLU →
// normalization → Dropout. LayerNorm stands in for the paper's batch
// normalization (see the LayerNorm doc comment for why).
func NonLinearBlock(in, out int, dropRate float64, rng *randutil.Source) *Sequential {
	return NewSequential(
		NewDense(in, out, rng),
		NewReLU(),
		NewLayerNorm(out),
		NewDropout(dropRate, rng),
	)
}
