package nn

import (
	"fmt"
	"math"

	"adrias/internal/mathx"
)

// Lockstep-batched LSTM: B sequences advance together, so each timestep
// costs one [B×(I+H)]·[4H×(I+H)]ᵀ GEMM instead of B GEMVs, and the whole
// sequence reuses one preallocated arena keyed by (B, T).
//
// Bit-identity: every per-sample quantity — hidden states, cell states,
// gate activations, input gradients — is computed by a verbatim port of
// per-sample BPTT over row b only, so row b of every batched result equals
// running sequence b alone, bit for bit. The weight and bias gradients are
// too: per-sample BPTT folds its terms in as (sample 0: t=T-1..0),
// (sample 1: t=T-1..0), …, so BackwardSeqBatch does not fold them in per
// timestep (that order, t-major, would reassociate the sum). It stages each
// step's gate gradients and [x;h] inputs at row b·T+(T−1−t) of two arena
// matrices and accumulates them after the time loop with one AddMulTN and
// one AccumRows, which walk rows in exactly that sample-major order. A
// batch of B sequences therefore leaves the gradients B per-sample backward
// passes in row order would.

// lstmBatch is the LSTM's lockstep scratch arena.
type lstmBatch struct {
	B, T int
	// inference records that the last forward ran with train=false and so
	// left xs and the gate caches untouched; a backward pass over it would
	// read another batch's activations.
	inference bool

	xs   []*mathx.Matrix // per-step input copies [B×I]
	hs   []*mathx.Matrix // hidden states [B×H], hs[0] initial zeros
	cs   []*mathx.Matrix // cell states [B×H]
	gi   []*mathx.Matrix // gate activations per step [B×H]
	gf   []*mathx.Matrix
	gg   []*mathx.Matrix
	go_  []*mathx.Matrix
	tanc []*mathx.Matrix // tanh(c_t)

	concat *mathx.Matrix // [B×(I+H)]
	z      *mathx.Matrix // [B×4H]

	dh, dc, dhNext, dcNext *mathx.Matrix   // [B×H]
	da                     *mathx.Matrix   // [B×4H]
	dconcat                *mathx.Matrix   // [B×(I+H)]
	dxs                    []*mathx.Matrix // [B×I]
	// Weight-gradient staging, row b·T+(T−1−t) = sample b at step t.
	daAll  *mathx.Matrix // [B·T×4H] gate gradients
	catAll *mathx.Matrix // [B·T×(I+H)] step inputs [x;h]
}

// ForwardSeqBatch runs B sequences in lockstep: xs[t] holds the step-t
// input of every sequence, one per row. It returns the hidden state at
// every step ([B×H] per step, rows aligned with the input rows). The
// returned matrices are arena-owned: valid until the next batched call on
// this layer, not to be mutated. Row b of every step is bit-identical to
// running sequence b alone. With train=false the input copies and the
// gate activations only BackwardSeqBatch reads are not kept, and a backward
// pass panics until the next training forward.
func (l *LSTM) ForwardSeqBatch(xs []*mathx.Matrix, train bool) []*mathx.Matrix {
	T := len(xs)
	if T == 0 {
		panic("nn: LSTM.ForwardSeqBatch on empty sequence")
	}
	B := xs[0].Rows
	H := l.Hidden
	s := &l.bat
	s.B, s.T, s.inference = B, T, !train
	s.hs = mathx.EnsureMatrices(s.hs, T+1, B, H)
	s.cs = mathx.EnsureMatrices(s.cs, T+1, B, H)
	if train {
		s.xs = mathx.EnsureMatrices(s.xs, T, B, l.In)
		s.gi = mathx.EnsureMatrices(s.gi, T, B, H)
		s.gf = mathx.EnsureMatrices(s.gf, T, B, H)
		s.gg = mathx.EnsureMatrices(s.gg, T, B, H)
		s.go_ = mathx.EnsureMatrices(s.go_, T, B, H)
		s.tanc = mathx.EnsureMatrices(s.tanc, T, B, H)
	}
	s.concat = mathx.EnsureMatrix(s.concat, B, l.In+H)
	s.z = mathx.EnsureMatrix(s.z, B, 4*H)
	s.hs[0].Zero()
	s.cs[0].Zero()

	bias := l.b.W.Row(0)
	for t := 0; t < T; t++ {
		X := xs[t]
		if X.Rows != B || X.Cols != l.In {
			panic(fmt.Sprintf("nn: LSTM expects [%d×%d] inputs, got [%d×%d] at step %d",
				B, l.In, X.Rows, X.Cols, t))
		}
		if train {
			s.xs[t].CopyFrom(X)
		}
		for b := 0; b < B; b++ {
			crow := s.concat.Row(b)
			copy(crow[:l.In], X.Row(b))
			copy(crow[l.In:], s.hs[t].Row(b))
		}
		mathx.MulNT(s.z, s.concat, l.w.W) // Z = concat·Wᵀ: MulVec per row
		s.z.AddRowBias(bias)
		for b := 0; b < B; b++ {
			z := s.z.Row(b)
			cPrev, c, h := s.cs[t].Row(b), s.cs[t+1].Row(b), s.hs[t+1].Row(b)
			for j := 0; j < H; j++ {
				i, f := sigmoid(z[j]), sigmoid(z[H+j])
				g, o := math.Tanh(z[2*H+j]), sigmoid(z[3*H+j])
				c[j] = f*cPrev[j] + i*g
				tc := math.Tanh(c[j])
				h[j] = o * tc
				if train {
					k := b*H + j
					s.gi[t].Data[k], s.gf[t].Data[k], s.gg[t].Data[k] = i, f, g
					s.go_[t].Data[k], s.tanc[t].Data[k] = o, tc
				}
			}
		}
	}
	return s.hs[1:]
}

// BackwardSeqBatch backpropagates per-step batched hidden-state gradients
// (index-aligned with the ForwardSeqBatch output; entries may be nil for
// steps with no gradient) and returns the gradient with respect to each
// step's input, arena-owned. Input gradients are bit-identical per sample,
// and weight gradients accumulate in per-sample BPTT order (see the file
// comment), so the call equals B per-sample backward passes in row order.
// A layer marked noInputGrad skips the input gradient and returns nil; its
// weight gradients are unchanged.
func (l *LSTM) BackwardSeqBatch(dhs []*mathx.Matrix) []*mathx.Matrix {
	s := &l.bat
	if s.T == 0 {
		panic("nn: LSTM.BackwardSeqBatch before ForwardSeqBatch")
	}
	if s.inference {
		panic("nn: LSTM.BackwardSeqBatch: backward after inference forward")
	}
	B, T, H := s.B, s.T, l.Hidden
	if len(dhs) != T {
		panic(fmt.Sprintf("nn: LSTM gradient length %d, want %d", len(dhs), T))
	}
	s.dh = mathx.EnsureMatrix(s.dh, B, H)
	s.dc = mathx.EnsureMatrix(s.dc, B, H)
	s.dhNext = mathx.EnsureMatrix(s.dhNext, B, H)
	s.dcNext = mathx.EnsureMatrix(s.dcNext, B, H)
	s.da = mathx.EnsureMatrix(s.da, B, 4*H)
	s.dconcat = mathx.EnsureMatrix(s.dconcat, B, l.In+H)
	// dconcat is computed from column from on: all of it, or only the
	// recurrent part when nobody reads the input gradient.
	from := l.In
	if !l.noInputGrad {
		from = 0
		s.dxs = mathx.EnsureMatrices(s.dxs, T, B, l.In)
	}
	s.daAll = mathx.EnsureMatrix(s.daAll, B*T, 4*H)
	s.catAll = mathx.EnsureMatrix(s.catAll, B*T, l.In+H)
	s.dhNext.Zero()
	s.dcNext.Zero()

	for t := T - 1; t >= 0; t-- {
		s.dh.CopyFrom(s.dhNext)
		if dhs[t] != nil {
			s.dh.Add(dhs[t])
		}
		s.dc.CopyFrom(s.dcNext)
		for b := 0; b < B; b++ {
			dh, dc, da := s.dh.Row(b), s.dc.Row(b), s.da.Row(b)
			i, f, g, o := s.gi[t].Row(b), s.gf[t].Row(b), s.gg[t].Row(b), s.go_[t].Row(b)
			tc, cPrev := s.tanc[t].Row(b), s.cs[t].Row(b)
			for j := 0; j < H; j++ {
				dc[j] += dh[j] * o[j] * (1 - tc[j]*tc[j])
				do := dh[j] * tc[j]
				di := dc[j] * g[j]
				df := dc[j] * cPrev[j]
				dg := dc[j] * i[j]
				da[j] = di * i[j] * (1 - i[j])
				da[H+j] = df * f[j] * (1 - f[j])
				da[2*H+j] = dg * (1 - g[j]*g[j])
				da[3*H+j] = do * o[j] * (1 - o[j])
			}
			r := b*T + T - 1 - t
			copy(s.daAll.Row(r), da)
			crow := s.catAll.Row(r)
			copy(crow[:l.In], s.xs[t].Row(b))
			copy(crow[l.In:], s.hs[t].Row(b))
		}
		mathx.MulNNFrom(s.dconcat, s.da, l.w.W, from) // MulVecT per row
		for b := 0; b < B; b++ {
			crow := s.dconcat.Row(b)
			if from == 0 {
				copy(s.dxs[t].Row(b), crow[:l.In])
			}
			copy(s.dhNext.Row(b), crow[l.In:])
			dcN, dc, f := s.dcNext.Row(b), s.dc.Row(b), s.gf[t].Row(b)
			for j := 0; j < H; j++ {
				dcN[j] = dc[j] * f[j]
			}
		}
	}
	mathx.AddMulTN(l.w.G, 1, s.daAll, s.catAll) // AddOuter per row, in row order
	mathx.AccumRows(l.b.G.Row(0), s.daAll)
	if from != 0 {
		return nil
	}
	return s.dxs
}

// EncodeBatch runs the stack over a lockstep batch (xs[t] is the [B×In]
// step-t input of every sequence) and returns the top layer's final hidden
// state, one row per sequence. The result is arena-owned by the top LSTM:
// valid until its next batched call. Row b is bit-identical to encoding
// sequence b alone.
func (e *SeqEncoder) EncodeBatch(xs []*mathx.Matrix, train bool) *mathx.Matrix {
	e.lastT = len(xs)
	for _, l := range e.Layers {
		xs = l.ForwardSeqBatch(xs, train)
	}
	return xs[len(xs)-1]
}

// BackwardFromLastBatch backpropagates a batched gradient on the final
// hidden state (rows = sequences) through the stack, accumulating weight
// gradients in per-sample order. The gradient with respect to the inputs is
// not computed: the sequence inputs are data, not parameters, so
// NewSeqEncoder marks the bottom layer noInputGrad.
func (e *SeqEncoder) BackwardFromLastBatch(dLast *mathx.Matrix) {
	if e.Layers[len(e.Layers)-1].bat.inference {
		panic("nn: SeqEncoder.BackwardFromLastBatch: backward after inference forward")
	}
	if cap(e.bdhs) < e.lastT {
		e.bdhs = make([]*mathx.Matrix, e.lastT)
	}
	e.bdhs = e.bdhs[:e.lastT]
	for i := range e.bdhs {
		e.bdhs[i] = nil
	}
	e.bdhs[e.lastT-1] = dLast
	dhs := e.bdhs
	for i := len(e.Layers) - 1; i >= 0; i-- {
		dhs = e.Layers[i].BackwardSeqBatch(dhs)
	}
}
