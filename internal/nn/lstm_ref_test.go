package nn

import (
	"fmt"
	"math"

	"adrias/internal/mathx"
)

// The per-sample LSTM: one sequence per call, vectors in and out, weight
// gradients folded in as each step is backpropagated. It is the reference
// the lockstep kernels (lstm_batch.go) were ported from, kept here to pin
// them bit for bit; nothing outside the tests runs it.

// lstmRef drives an LSTM's parameters through the per-sample path, caching
// the last forward's per-step activations.
type lstmRef struct {
	*LSTM
	xs   []mathx.Vector // inputs
	hs   []mathx.Vector // hidden states, hs[0] is the initial zero state
	cs   []mathx.Vector // cell states, cs[0] initial
	gi   []mathx.Vector // gate activations per step
	gf   []mathx.Vector
	gg   []mathx.Vector
	go_  []mathx.Vector
	tanc []mathx.Vector // tanh(c_t)
}

func refLSTM(l *LSTM) *lstmRef { return &lstmRef{LSTM: l} }

// ForwardSeq runs the layer over a sequence (oldest first) and returns the
// hidden state at every step.
func (l *lstmRef) ForwardSeq(xs []mathx.Vector, _ bool) []mathx.Vector {
	T := len(xs)
	if T == 0 {
		panic("nn: LSTM.ForwardSeq on empty sequence")
	}
	H := l.Hidden
	l.xs = make([]mathx.Vector, T)
	l.hs = make([]mathx.Vector, T+1)
	l.cs = make([]mathx.Vector, T+1)
	l.gi = make([]mathx.Vector, T)
	l.gf = make([]mathx.Vector, T)
	l.gg = make([]mathx.Vector, T)
	l.go_ = make([]mathx.Vector, T)
	l.tanc = make([]mathx.Vector, T)
	l.hs[0] = mathx.NewVector(H)
	l.cs[0] = mathx.NewVector(H)

	concat := mathx.NewVector(l.In + H)
	z := mathx.NewVector(4 * H)
	bias := l.b.W.Row(0)
	out := make([]mathx.Vector, T)
	for t := 0; t < T; t++ {
		x := xs[t]
		if len(x) != l.In {
			panic(fmt.Sprintf("nn: LSTM expects %d inputs, got %d at step %d", l.In, len(x), t))
		}
		l.xs[t] = x.Clone()
		copy(concat[:l.In], x)
		copy(concat[l.In:], l.hs[t])
		l.w.W.MulVec(z, concat)
		z.Add(bias)

		i := mathx.NewVector(H)
		f := mathx.NewVector(H)
		g := mathx.NewVector(H)
		o := mathx.NewVector(H)
		c := mathx.NewVector(H)
		h := mathx.NewVector(H)
		tc := mathx.NewVector(H)
		for j := 0; j < H; j++ {
			i[j] = sigmoid(z[j])
			f[j] = sigmoid(z[H+j])
			g[j] = math.Tanh(z[2*H+j])
			o[j] = sigmoid(z[3*H+j])
			c[j] = f[j]*l.cs[t][j] + i[j]*g[j]
			tc[j] = math.Tanh(c[j])
			h[j] = o[j] * tc[j]
		}
		l.gi[t], l.gf[t], l.gg[t], l.go_[t] = i, f, g, o
		l.cs[t+1], l.hs[t+1], l.tanc[t] = c, h, tc
		out[t] = h.Clone()
	}
	return out
}

// BackwardSeq backpropagates the per-step hidden-state gradients dhs
// (index-aligned with the ForwardSeq output; entries may be nil for steps
// with no gradient) and returns the gradient with respect to each input.
func (l *lstmRef) BackwardSeq(dhs []mathx.Vector) []mathx.Vector {
	if l.xs == nil {
		panic("nn: LSTM.BackwardSeq before ForwardSeq")
	}
	T := len(l.xs)
	if len(dhs) != T {
		panic(fmt.Sprintf("nn: LSTM gradient length %d, want %d", len(dhs), T))
	}
	H := l.Hidden
	dxs := make([]mathx.Vector, T)
	dhNext := mathx.NewVector(H)
	dcNext := mathx.NewVector(H)
	da := mathx.NewVector(4 * H)
	concat := mathx.NewVector(l.In + H)
	dconcat := mathx.NewVector(l.In + H)

	for t := T - 1; t >= 0; t-- {
		dh := dhNext.Clone()
		if dhs[t] != nil {
			dh.Add(dhs[t])
		}
		i, f, g, o := l.gi[t], l.gf[t], l.gg[t], l.go_[t]
		tc := l.tanc[t]
		dc := dcNext.Clone()
		for j := 0; j < H; j++ {
			dc[j] += dh[j] * o[j] * (1 - tc[j]*tc[j])
			do := dh[j] * tc[j]
			di := dc[j] * g[j]
			df := dc[j] * l.cs[t][j]
			dg := dc[j] * i[j]
			da[j] = di * i[j] * (1 - i[j])
			da[H+j] = df * f[j] * (1 - f[j])
			da[2*H+j] = dg * (1 - g[j]*g[j])
			da[3*H+j] = do * o[j] * (1 - o[j])
		}
		copy(concat[:l.In], l.xs[t])
		copy(concat[l.In:], l.hs[t])
		l.w.G.AddOuter(1, da, concat)
		l.b.G.Row(0).Add(da)
		l.w.W.MulVecT(dconcat, da)
		dxs[t] = mathx.Vector(dconcat[:l.In]).Clone()
		copy(dhNext, dconcat[l.In:])
		for j := 0; j < H; j++ {
			dcNext[j] = dc[j] * f[j]
		}
	}
	return dxs
}

// encoderRef drives a SeqEncoder's layers through the per-sample path.
type encoderRef struct {
	*SeqEncoder
	layers []*lstmRef
	lastT  int
}

func refEncoder(e *SeqEncoder) *encoderRef {
	r := &encoderRef{SeqEncoder: e}
	for _, l := range e.Layers {
		r.layers = append(r.layers, refLSTM(l))
	}
	return r
}

// Encode runs the stack and returns the top layer's final hidden state.
func (e *encoderRef) Encode(xs []mathx.Vector, train bool) mathx.Vector {
	e.lastT = len(xs)
	for _, l := range e.layers {
		xs = l.ForwardSeq(xs, train)
	}
	return xs[len(xs)-1].Clone()
}

// BackwardFromLast backpropagates a gradient on the final hidden state
// through the stack, discarding the gradient with respect to the inputs.
func (e *encoderRef) BackwardFromLast(dLast mathx.Vector) {
	dhs := make([]mathx.Vector, e.lastT)
	dhs[e.lastT-1] = dLast
	for i := len(e.layers) - 1; i >= 0; i-- {
		dhs = e.layers[i].BackwardSeq(dhs)
	}
}
