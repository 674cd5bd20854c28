package nn

import (
	"fmt"
	"math"

	"adrias/internal/mathx"
)

// This file implements the batched Layer path: ForwardBatch/BackwardBatch
// process B samples as the rows of a row-major matrix, replacing B GEMV
// calls (plus B allocations) with one GEMM over preallocated scratch.
//
// The bit-identity contract. Row b of every batched result is bit-identical
// to running the vector path on sample b alone, because the mathx batch
// kernels accumulate in exactly the per-sample order of MulVec/MulVecT/
// AddOuter and the element-wise code below is a verbatim port of the vector
// code. Parameter gradients are accumulated in sample (row) order, so even
// multi-sample batched backward matches a sequential sample loop bit for
// bit — the lockstep LSTM included (lstm_batch.go stages its per-step terms
// to keep that order).
//
// Dropout draws its training masks as one stream in row order: sample b
// consumes exactly the draws Forward would consume for it, provided each
// Dropout layer owns a private rng (NonLinearBlock and Sequential.Clone
// arrange this), so batched and sequential training coincide bit for bit
// there too.
//
// Scratch arenas. Every layer keeps its batched activations in matrices
// resized with mathx.EnsureMatrix, keyed by the batch size: after the first
// call at a given size, steady-state forward/backward is allocation-free.
// Returned matrices are arena-owned — valid until the next batched call on
// the layer, never to be mutated by the caller. The batched caches are
// disjoint from the vector-path caches, so interleaving the two modes on
// one layer instance is safe as long as each Forward/Backward pair stays in
// one mode. Clones and gob serialization never carry scratch: Clone builds
// fresh zero-valued arenas and only Param tensors reach the wire format.

// denseBatch is Dense's batched scratch: input copy, output, input grad.
type denseBatch struct {
	x, y, dx *mathx.Matrix
}

// ForwardBatch implements Layer.
func (d *Dense) ForwardBatch(X *mathx.Matrix, _ bool) *mathx.Matrix {
	if X.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense expects %d inputs, got %d", d.In, X.Cols))
	}
	d.bat.x = mathx.EnsureMatrix(d.bat.x, X.Rows, d.In)
	d.bat.x.CopyFrom(X)
	d.bat.y = mathx.EnsureMatrix(d.bat.y, X.Rows, d.Out)
	mathx.MulNT(d.bat.y, X, d.w.W) // Y = X·Wᵀ: MulVec per row
	d.bat.y.AddRowBias(d.b.W.Row(0))
	return d.bat.y
}

// BackwardBatch implements Layer.
func (d *Dense) BackwardBatch(dY *mathx.Matrix) *mathx.Matrix {
	if d.bat.x == nil || dY.Rows != d.bat.x.Rows {
		panic("nn: Dense.BackwardBatch before matching ForwardBatch")
	}
	mathx.AddMulTN(d.w.G, 1, dY, d.bat.x) // sample-ordered AddOuter sequence
	mathx.AccumRows(d.b.G.Row(0), dY)
	d.bat.dx = mathx.EnsureMatrix(d.bat.dx, dY.Rows, d.In)
	mathx.MulNN(d.bat.dx, dY, d.w.W) // dX = dY·W: MulVecT per row
	return d.bat.dx
}

// reluBatch is ReLU's batched scratch.
type reluBatch struct {
	y, dx *mathx.Matrix
	mask  []bool
}

// ForwardBatch implements Layer.
func (r *ReLU) ForwardBatch(X *mathx.Matrix, _ bool) *mathx.Matrix {
	r.bat.y = mathx.EnsureMatrix(r.bat.y, X.Rows, X.Cols)
	n := len(X.Data)
	if cap(r.bat.mask) < n {
		r.bat.mask = make([]bool, n)
	}
	r.bat.mask = r.bat.mask[:n]
	for i, v := range X.Data {
		if v > 0 {
			r.bat.mask[i] = true
			r.bat.y.Data[i] = v
		} else {
			r.bat.mask[i] = false
			r.bat.y.Data[i] = 0
		}
	}
	return r.bat.y
}

// BackwardBatch implements Layer.
func (r *ReLU) BackwardBatch(dY *mathx.Matrix) *mathx.Matrix {
	if len(dY.Data) != len(r.bat.mask) {
		panic("nn: ReLU.BackwardBatch before matching ForwardBatch")
	}
	r.bat.dx = mathx.EnsureMatrix(r.bat.dx, dY.Rows, dY.Cols)
	for i, v := range dY.Data {
		if r.bat.mask[i] {
			r.bat.dx.Data[i] = v
		} else {
			r.bat.dx.Data[i] = 0
		}
	}
	return r.bat.dx
}

// dropoutBatch is Dropout's batched scratch. active records whether the
// last ForwardBatch applied a mask.
type dropoutBatch struct {
	y, dx, mask *mathx.Matrix
	active      bool
}

// ForwardBatch implements Layer. In training mode the mask stream is drawn
// row by row, so sample b consumes exactly the rng draws a sequential
// Forward call on sample b would.
func (d *Dropout) ForwardBatch(X *mathx.Matrix, train bool) *mathx.Matrix {
	d.bat.y = mathx.EnsureMatrix(d.bat.y, X.Rows, X.Cols)
	d.bat.y.CopyFrom(X)
	if !train || d.Rate == 0 {
		d.bat.active = false
		return d.bat.y
	}
	keep := 1 - d.Rate
	d.bat.mask = mathx.EnsureMatrix(d.bat.mask, X.Rows, X.Cols)
	d.bat.active = true
	for i := range d.bat.mask.Data {
		m := 0.0
		if d.rng.Float64() < keep {
			m = 1 / keep
		}
		d.bat.mask.Data[i] = m
		d.bat.y.Data[i] *= m
	}
	return d.bat.y
}

// BackwardBatch implements Layer.
func (d *Dropout) BackwardBatch(dY *mathx.Matrix) *mathx.Matrix {
	d.bat.dx = mathx.EnsureMatrix(d.bat.dx, dY.Rows, dY.Cols)
	d.bat.dx.CopyFrom(dY)
	if d.bat.active {
		for i, m := range d.bat.mask.Data {
			d.bat.dx.Data[i] *= m
		}
	}
	return d.bat.dx
}

// normBatch is the batched scratch shared by BatchNorm and LayerNorm:
// per-row normalized activations, per-row (or per-feature) std, output,
// input grad.
type normBatch struct {
	xhat, y, dx *mathx.Matrix
	std         *mathx.Matrix
}

// ForwardBatch implements Layer. Rows are processed in order, so the
// running-statistics updates in training mode fold each sample in exactly
// as sequential Forward calls would.
func (b *BatchNorm) ForwardBatch(X *mathx.Matrix, train bool) *mathx.Matrix {
	if X.Cols != b.Dim {
		panic(fmt.Sprintf("nn: BatchNorm expects %d features, got %d", b.Dim, X.Cols))
	}
	B := X.Rows
	b.bat.xhat = mathx.EnsureMatrix(b.bat.xhat, B, b.Dim)
	b.bat.std = mathx.EnsureMatrix(b.bat.std, B, b.Dim)
	b.bat.y = mathx.EnsureMatrix(b.bat.y, B, b.Dim)
	mean, vr := b.runMean(), b.runVar()
	g, be := b.gamma.W.Row(0), b.beta.W.Row(0)
	for r := 0; r < B; r++ {
		x := X.Row(r)
		if train {
			m := b.Momentum
			if b.stats.W.At(2, 0) == 0 {
				copy(mean, x)
				b.stats.W.Set(2, 0, 1)
			}
			for j := range x {
				mean[j] = m*mean[j] + (1-m)*x[j]
				d := x[j] - mean[j]
				vr[j] = m*vr[j] + (1-m)*d*d
			}
		}
		xhat, stdRow, y := b.bat.xhat.Row(r), b.bat.std.Row(r), b.bat.y.Row(r)
		for j := range x {
			std := math.Sqrt(vr[j] + b.Eps)
			stdRow[j] = std
			xhat[j] = (x[j] - mean[j]) / std
			y[j] = g[j]*xhat[j] + be[j]
		}
	}
	return b.bat.y
}

// BackwardBatch implements Layer.
func (b *BatchNorm) BackwardBatch(dY *mathx.Matrix) *mathx.Matrix {
	if b.bat.xhat == nil || dY.Rows != b.bat.xhat.Rows {
		panic("nn: BatchNorm.BackwardBatch before matching ForwardBatch")
	}
	b.bat.dx = mathx.EnsureMatrix(b.bat.dx, dY.Rows, b.Dim)
	g := b.gamma.W.Row(0)
	gg, gb := b.gamma.G.Row(0), b.beta.G.Row(0)
	for r := 0; r < dY.Rows; r++ {
		dy, xhat, stdRow, dx := dY.Row(r), b.bat.xhat.Row(r), b.bat.std.Row(r), b.bat.dx.Row(r)
		for j := range dy {
			gg[j] += dy[j] * xhat[j]
			gb[j] += dy[j]
			dx[j] = dy[j] * g[j] / stdRow[j]
		}
	}
	return b.bat.dx
}

// ForwardBatch implements Layer: LayerNorm's strictly per-row statistics
// make the batched port a verbatim copy of the vector code per row.
func (l *LayerNorm) ForwardBatch(X *mathx.Matrix, _ bool) *mathx.Matrix {
	if X.Cols != l.Dim {
		panic(fmt.Sprintf("nn: LayerNorm expects %d features, got %d", l.Dim, X.Cols))
	}
	B := X.Rows
	l.bat.xhat = mathx.EnsureMatrix(l.bat.xhat, B, l.Dim)
	l.bat.std = mathx.EnsureMatrix(l.bat.std, B, 1)
	l.bat.y = mathx.EnsureMatrix(l.bat.y, B, l.Dim)
	g, b := l.gamma.W.Row(0), l.beta.W.Row(0)
	for r := 0; r < B; r++ {
		x := X.Row(r)
		mu := mathx.Mean(x)
		var v float64
		for _, xi := range x {
			d := xi - mu
			v += d * d
		}
		v /= float64(l.Dim)
		std := math.Sqrt(v + l.Eps)
		l.bat.std.Data[r] = std
		xhat, y := l.bat.xhat.Row(r), l.bat.y.Row(r)
		for j, xi := range x {
			xhat[j] = (xi - mu) / std
			y[j] = g[j]*xhat[j] + b[j]
		}
	}
	return l.bat.y
}

// BackwardBatch implements Layer.
func (l *LayerNorm) BackwardBatch(dY *mathx.Matrix) *mathx.Matrix {
	if l.bat.xhat == nil || dY.Rows != l.bat.xhat.Rows {
		panic("nn: LayerNorm.BackwardBatch before matching ForwardBatch")
	}
	l.bat.dx = mathx.EnsureMatrix(l.bat.dx, dY.Rows, l.Dim)
	n := float64(l.Dim)
	g := l.gamma.W.Row(0)
	gg, gb := l.gamma.G.Row(0), l.beta.G.Row(0)
	for r := 0; r < dY.Rows; r++ {
		dy, xhat, dx := dY.Row(r), l.bat.xhat.Row(r), l.bat.dx.Row(r)
		std := l.bat.std.Data[r]
		var sumDx, sumDxX float64
		for j := range dy {
			gg[j] += dy[j] * xhat[j]
			gb[j] += dy[j]
			dx[j] = dy[j] * g[j] // reuse dx as the dxhat buffer
			sumDx += dx[j]
			sumDxX += dx[j] * xhat[j]
		}
		for j := range dx {
			dx[j] = (dx[j] - sumDx/n - xhat[j]*sumDxX/n) / std
		}
	}
	return l.bat.dx
}

// ForwardBatch implements Layer.
func (s *Sequential) ForwardBatch(X *mathx.Matrix, train bool) *mathx.Matrix {
	for _, l := range s.Layers {
		X = l.ForwardBatch(X, train)
	}
	return X
}

// BackwardBatch implements Layer.
func (s *Sequential) BackwardBatch(dY *mathx.Matrix) *mathx.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dY = s.Layers[i].BackwardBatch(dY)
	}
	return dY
}
