package nn

import (
	"adrias/internal/mathx"
	"adrias/internal/randutil"
)

// LSTM is a single Long Short-Term Memory layer run over lockstep batches of
// whole sequences (lstm_batch.go), with full backpropagation through time.
// Gates use the standard
// formulation:
//
//	i = σ(W_i·[x;h] + b_i)   f = σ(W_f·[x;h] + b_f)
//	g = tanh(W_g·[x;h]+b_g)  o = σ(W_o·[x;h] + b_o)
//	c = f⊙c' + i⊙g           h = o⊙tanh(c)
//
// The four gate weight matrices are packed into one [4H × (I+H)] matrix in
// i, f, g, o order.
type LSTM struct {
	In, Hidden int
	w          *Param // [4H × (I+H)]
	b          *Param // [1 × 4H]
	// noInputGrad marks a layer whose input gradient nobody reads (the
	// bottom of a SeqEncoder: its inputs are data). BackwardSeqBatch then
	// computes only the recurrent part of the step gradient.
	noInputGrad bool

	bat lstmBatch // lockstep-batch scratch arena (lstm_batch.go)
}

// NewLSTM builds an LSTM layer. The forget-gate bias is initialized to 1,
// the usual trick to ease gradient flow early in training.
func NewLSTM(in, hidden int, rng *randutil.Source) *LSTM {
	l := &LSTM{
		In: in, Hidden: hidden,
		w: newParam("lstm.w", 4*hidden, in+hidden),
		b: newParam("lstm.b", 1, 4*hidden),
	}
	glorotInit(l.w.W, in+hidden, hidden, rng)
	bias := l.b.W.Row(0)
	for j := hidden; j < 2*hidden; j++ { // forget gate slice
		bias[j] = 1
	}
	return l
}

// sigmoid is the clamped logistic function (see mathx.Sigmoid for the
// clamp rationale), shared with the per-sample reference the tests pin the
// lockstep kernels against.
func sigmoid(x float64) float64 { return mathx.Sigmoid(x) }

// Params implements the parameter provider.
func (l *LSTM) Params() []*Param { return []*Param{l.w, l.b} }

// SeqEncoder stacks LSTM layers and exposes the last hidden state of the
// top layer — the sequence embedding the Adrias models consume (the paper's
// "2 LSTM layers" front-end, Fig. 11).
type SeqEncoder struct {
	Layers []*LSTM
	lastT  int
	bdhs   []*mathx.Matrix // batched backward gradient scaffold, reused
}

// NewSeqEncoder builds a stack of depth LSTM layers, the first consuming
// in-dimensional steps, the rest hidden-dimensional ones.
func NewSeqEncoder(in, hidden, depth int, rng *randutil.Source) *SeqEncoder {
	if depth < 1 {
		panic("nn: SeqEncoder depth must be ≥ 1")
	}
	e := &SeqEncoder{}
	for d := 0; d < depth; d++ {
		dim := hidden
		if d == 0 {
			dim = in
		}
		e.Layers = append(e.Layers, NewLSTM(dim, hidden, rng))
	}
	e.Layers[0].noInputGrad = true
	return e
}

// Params returns all stack parameters.
func (e *SeqEncoder) Params() []*Param {
	var out []*Param
	for _, l := range e.Layers {
		out = append(out, l.Params()...)
	}
	return out
}
