package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"adrias/internal/mathx"
	"adrias/internal/randutil"
)

// randBatch builds a [B×dim] matrix of Gaussian samples.
func randBatch(rng *randutil.Source, b, dim int) *mathx.Matrix {
	m := mathx.NewMatrix(b, dim)
	for i := range m.Data {
		m.Data[i] = rng.Normal(0, 1)
	}
	return m
}

// paramsBitEqual fails unless both layers' parameters (weights and
// gradients) match bit for bit.
func paramsBitEqual(t *testing.T, label string, a, b []*Param) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: param count %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		for j := range a[i].W.Data {
			if a[i].W.Data[j] != b[i].W.Data[j] {
				t.Fatalf("%s: %s.W[%d] differs: %v vs %v", label, a[i].Name, j, a[i].W.Data[j], b[i].W.Data[j])
			}
		}
		for j := range a[i].G.Data {
			if a[i].G.Data[j] != b[i].G.Data[j] {
				t.Fatalf("%s: %s.G[%d] differs: %v vs %v", label, a[i].Name, j, a[i].G.Data[j], b[i].G.Data[j])
			}
		}
	}
}

// checkBatchMatchesSequential drives seqL sample by sample and batL with
// one batched call (same weights, decorrelated scratch) and requires
// bit-identical outputs, input gradients, and parameter gradients.
// Gradient at the output is taken as the output itself (dy = y), a dense,
// nontrivial gradient.
func checkBatchMatchesSequential(t *testing.T, label string, seqL, batL Layer, X *mathx.Matrix, train bool) {
	t.Helper()
	B := X.Rows
	ys := make([]mathx.Vector, B)
	dxs := make([]mathx.Vector, B)
	for b := 0; b < B; b++ {
		y := seqL.Forward(X.Row(b).Clone(), train)
		ys[b] = y.Clone()
		dxs[b] = seqL.Backward(y.Clone()).Clone()
	}
	Y := batL.ForwardBatch(X, train)
	if Y.Rows != B {
		t.Fatalf("%s: batched output rows = %d, want %d", label, Y.Rows, B)
	}
	for b := 0; b < B; b++ {
		row := Y.Row(b)
		for j := range row {
			if row[j] != ys[b][j] {
				t.Fatalf("%s: forward sample %d col %d: batched %v sequential %v",
					label, b, j, row[j], ys[b][j])
			}
		}
	}
	dY := mathx.NewMatrix(B, Y.Cols)
	dY.CopyFrom(Y)
	dX := batL.BackwardBatch(dY)
	for b := 0; b < B; b++ {
		row := dX.Row(b)
		for j := range row {
			if row[j] != dxs[b][j] {
				t.Fatalf("%s: backward sample %d col %d: batched %v sequential %v",
					label, b, j, row[j], dxs[b][j])
			}
		}
	}
	paramsBitEqual(t, label, seqL.Params(), batL.Params())
}

// TestBatchBitIdentityFeedforward: ForwardBatch/BackwardBatch of every
// feedforward layer must be bit-identical to per-sample Forward/Backward —
// outputs, input gradients, and (sample-ordered) parameter gradients.
func TestBatchBitIdentityFeedforward(t *testing.T) {
	const B, in, out = 7, 5, 4
	for _, train := range []bool{false, true} {
		X := randBatch(randutil.New(11), B, in)
		cases := []struct {
			name string
			mk   func() Layer
			dim  int
		}{
			{"Dense", func() Layer { return NewDense(in, out, randutil.New(3)) }, in},
			{"ReLU", func() Layer { return NewReLU() }, in},
			{"LayerNorm", func() Layer { return NewLayerNorm(in) }, in},
			{"BatchNorm", func() Layer { return NewBatchNorm(in) }, in},
			{"Dropout", func() Layer { return NewDropout(0.3, randutil.New(9)) }, in},
			{"Sequential", func() Layer {
				return NonLinearBlock(in, out, 0.2, randutil.New(5))
			}, in},
		}
		for _, c := range cases {
			seqL, batL := c.mk(), c.mk()
			checkBatchMatchesSequential(t, c.name, seqL, batL, X, train)
		}
	}
}

// TestBatchLSTMBitIdentityPerSample: every hidden state of ForwardSeqBatch
// must match per-sequence ForwardSeq bit for bit, and the batched input and
// weight gradients must match BackwardSeq run per sequence in row order.
func TestBatchLSTMBitIdentityPerSample(t *testing.T) {
	const B, T, in, H = 5, 6, 3, 4
	rng := randutil.New(21)
	seqL := refLSTM(NewLSTM(in, H, rng))
	batL := seqL.Clone(nil)

	// Per-sequence inputs and the same data time-major for the batch.
	seqs := make([][]mathx.Vector, B)
	xs := make([]*mathx.Matrix, T)
	for t2 := range xs {
		xs[t2] = mathx.NewMatrix(B, in)
	}
	for b := 0; b < B; b++ {
		seqs[b] = make([]mathx.Vector, T)
		for t2 := 0; t2 < T; t2++ {
			v := mathx.NewVector(in)
			for j := range v {
				v[j] = rng.Normal(0, 1)
			}
			seqs[b][t2] = v
			copy(xs[t2].Row(b), v)
		}
	}

	type seqRes struct {
		hs  []mathx.Vector
		dxs []mathx.Vector
	}
	want := make([]seqRes, B)
	for b := 0; b < B; b++ {
		hs := seqL.ForwardSeq(seqs[b], true)
		dhs := make([]mathx.Vector, T)
		for t2 := range hs {
			dhs[t2] = hs[t2].Clone()
		}
		dxs := seqL.BackwardSeq(dhs)
		want[b].hs = hs
		want[b].dxs = dxs
	}

	out := batL.ForwardSeqBatch(xs, true)
	for t2 := 0; t2 < T; t2++ {
		for b := 0; b < B; b++ {
			row := out[t2].Row(b)
			for j := range row {
				if row[j] != want[b].hs[t2][j] {
					t.Fatalf("h[t=%d][b=%d][%d]: batched %v sequential %v",
						t2, b, j, row[j], want[b].hs[t2][j])
				}
			}
		}
	}
	dhs := make([]*mathx.Matrix, T)
	for t2 := range dhs {
		dhs[t2] = out[t2].Clone()
	}
	dxs := batL.BackwardSeqBatch(dhs)
	for t2 := 0; t2 < T; t2++ {
		for b := 0; b < B; b++ {
			row := dxs[t2].Row(b)
			for j := range row {
				if row[j] != want[b].dxs[t2][j] {
					t.Fatalf("dx[t=%d][b=%d][%d]: batched %v sequential %v",
						t2, b, j, row[j], want[b].dxs[t2][j])
				}
			}
		}
	}
	paramsBitEqual(t, "LSTM B=5", seqL.Params(), batL.Params())
}

// TestBatchLSTMGradsBitIdentical: a lockstep batch through a 2-layer
// encoder leaves every weight and bias gradient bit-identical to per-sample
// BPTT over the same sequences in row order — at batch sizes below, at and
// above the GEMM kernels' 4- and 8-row blocks — so a batched fit is the
// per-sample fit.
func TestBatchLSTMGradsBitIdentical(t *testing.T) {
	const T, in, H = 6, 7, 5
	for _, B := range []int{2, 3, 5, 24} {
		rng := randutil.New(int64(90 + B))
		ref := refEncoder(NewSeqEncoder(in, H, 2, rng))
		bat := ref.Clone(nil)
		if !bat.Layers[0].noInputGrad || bat.Layers[1].noInputGrad {
			t.Fatal("only the bottom layer of an encoder should skip its input gradient")
		}
		xs := make([]*mathx.Matrix, T)
		for t2 := range xs {
			xs[t2] = randBatch(rng, B, in)
		}
		dLast := randBatch(rng, B, H)

		for b := 0; b < B; b++ {
			seq := make([]mathx.Vector, T)
			for t2 := range seq {
				seq[t2] = xs[t2].Row(b).Clone()
			}
			ref.Encode(seq, true)
			ref.BackwardFromLast(dLast.Row(b).Clone())
		}
		bat.EncodeBatch(xs, true)
		bat.BackwardFromLastBatch(dLast)
		paramsBitEqual(t, fmt.Sprintf("encoder B=%d", B), ref.Params(), bat.Params())
	}
}

// TestBatchLSTMSingleSequenceGradsBitIdentical: a batch of one with the
// gradient at the last step only, the shape the encoders train with.
func TestBatchLSTMSingleSequenceGradsBitIdentical(t *testing.T) {
	const T, in, H = 5, 3, 4
	rng := randutil.New(33)
	seqL := refLSTM(NewLSTM(in, H, rng))
	batL := seqL.Clone(nil)
	seq := make([]mathx.Vector, T)
	xs := make([]*mathx.Matrix, T)
	for t2 := 0; t2 < T; t2++ {
		v := mathx.NewVector(in)
		for j := range v {
			v[j] = rng.Normal(0, 1)
		}
		seq[t2] = v
		xs[t2] = mathx.NewMatrix(1, in)
		copy(xs[t2].Row(0), v)
	}
	hs := seqL.ForwardSeq(seq, true)
	dhs := make([]mathx.Vector, T)
	dhs[T-1] = hs[T-1].Clone()
	seqL.BackwardSeq(dhs)

	out := batL.ForwardSeqBatch(xs, true)
	bdhs := make([]*mathx.Matrix, T)
	bdhs[T-1] = out[T-1].Clone()
	batL.BackwardSeqBatch(bdhs)
	paramsBitEqual(t, "LSTM B=1", seqL.Params(), batL.Params())
}

// TestBatchLSTMGradCheck: finite-difference check of the lockstep backward
// pass. Loss is the MSE of the last hidden state of each sequence against a
// fixed target, summed over the batch.
func TestBatchLSTMGradCheck(t *testing.T) {
	const B, T, in, H = 3, 4, 2, 3
	rng := randutil.New(41)
	l := NewLSTM(in, H, rng)
	xs := make([]*mathx.Matrix, T)
	for t2 := range xs {
		xs[t2] = randBatch(rng, B, in)
	}
	target := randBatch(rng, B, H)

	loss := func() float64 {
		out := l.ForwardSeqBatch(xs, false)
		last := out[T-1]
		var total float64
		for b := 0; b < B; b++ {
			lb, _ := MSELoss(last.Row(b), target.Row(b))
			total += lb
		}
		return total
	}

	// Analytic gradients via the batched backward.
	out := l.ForwardSeqBatch(xs, true)
	dhs := make([]*mathx.Matrix, T)
	dhs[T-1] = mathx.NewMatrix(B, H)
	for b := 0; b < B; b++ {
		_, g := MSELoss(out[T-1].Row(b), target.Row(b))
		copy(dhs[T-1].Row(b), g)
	}
	dxs := l.BackwardSeqBatch(dhs)
	analytic := make([]*mathx.Matrix, T)
	for t2 := range dxs {
		analytic[t2] = dxs[t2].Clone()
	}

	for _, p := range l.Params() {
		for i := range p.W.Data {
			num := numericGrad(p.W.Data, i, loss)
			if relErr(num, p.G.Data[i]) > gradTol {
				t.Errorf("%s[%d]: analytic %v numeric %v", p.Name, i, p.G.Data[i], num)
			}
		}
	}
	// Input gradients, spot-checked over every step and sample.
	for t2 := 0; t2 < T; t2++ {
		for i := range xs[t2].Data {
			num := numericGrad(xs[t2].Data, i, loss)
			if relErr(num, analytic[t2].Data[i]) > gradTol {
				t.Errorf("dx[t=%d][%d]: analytic %v numeric %v", t2, i, analytic[t2].Data[i], num)
			}
		}
	}
}

// TestSeqEncoderEncodeBatchBitIdentity: the stacked encoder's batched path
// against per-sequence Encode.
func TestSeqEncoderEncodeBatchBitIdentity(t *testing.T) {
	const B, T, in, H = 4, 5, 3, 6
	rng := randutil.New(55)
	enc := refEncoder(NewSeqEncoder(in, H, 2, rng))
	bat := enc.Clone(nil)

	seqs := make([][]mathx.Vector, B)
	xs := make([]*mathx.Matrix, T)
	for t2 := range xs {
		xs[t2] = mathx.NewMatrix(B, in)
	}
	for b := 0; b < B; b++ {
		seqs[b] = make([]mathx.Vector, T)
		for t2 := 0; t2 < T; t2++ {
			v := mathx.NewVector(in)
			for j := range v {
				v[j] = rng.Normal(0, 1)
			}
			seqs[b][t2] = v
			copy(xs[t2].Row(b), v)
		}
	}
	H2 := bat.EncodeBatch(xs, false)
	for b := 0; b < B; b++ {
		h := enc.Encode(seqs[b], false)
		row := H2.Row(b)
		for j := range h {
			if row[j] != h[j] {
				t.Fatalf("encode b=%d j=%d: batched %v sequential %v", b, j, row[j], h[j])
			}
		}
	}
	// A training forward keeps what backward reads and must not move a bit
	// of the embedding the inference forward produced.
	infer := H2.Clone()
	H3 := bat.EncodeBatch(xs, true)
	for i, v := range H3.Data {
		if math.Float64bits(v) != math.Float64bits(infer.Data[i]) {
			t.Fatalf("cell %d: training forward %v, inference forward %v", i, v, infer.Data[i])
		}
	}
	// Batched backward must run without panicking and accumulate into every
	// layer (correctness of the values is covered by the LSTM grad checks).
	dLast := mathx.NewMatrix(B, H)
	for i := range dLast.Data {
		dLast.Data[i] = rng.Normal(0, 1)
	}
	bat.BackwardFromLastBatch(dLast)
	for _, p := range bat.Params() {
		var nz bool
		for _, g := range p.G.Data {
			if g != 0 {
				nz = true
				break
			}
		}
		if !nz {
			t.Errorf("%s: batched backward left gradient all-zero", p.Name)
		}
	}
}

// TestBackwardAfterInferenceForwardPanics: an inference forward keeps neither
// the input copies nor the gate activations, so a backward pass after one
// would differentiate the previous training batch. Both entry points refuse,
// and a training forward re-arms them.
func TestBackwardAfterInferenceForwardPanics(t *testing.T) {
	const B, T, in, H = 2, 3, 2, 4
	rng := randutil.New(77)
	enc := NewSeqEncoder(in, H, 2, rng)
	xs := make([]*mathx.Matrix, T)
	for t2 := range xs {
		xs[t2] = randBatch(rng, B, in)
	}
	dLast := randBatch(rng, B, H)
	dhs := make([]*mathx.Matrix, T)
	dhs[T-1] = dLast
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "backward after inference forward") {
				t.Errorf("%s: recovered %q, want the backward-after-inference panic", name, msg)
			}
		}()
		f()
	}

	enc.EncodeBatch(xs, true)
	enc.EncodeBatch(xs, false)
	mustPanic("SeqEncoder.BackwardFromLastBatch", func() { enc.BackwardFromLastBatch(dLast) })
	l := enc.Layers[0]
	mustPanic("LSTM.BackwardSeqBatch", func() { l.BackwardSeqBatch(dhs) })

	enc.EncodeBatch(xs, true)
	enc.BackwardFromLastBatch(dLast) // re-armed: must not panic
}

// TestTrainerBatchReplicaBitIdentical: a feedforward net trained through one
// batched forward/backward per shard must be bit-identical to a per-sample
// loop over the shard — batched gradients accumulate in sample order, the
// optimizer sees identical sums.
func TestTrainerBatchReplicaBitIdentical(t *testing.T) {
	const in, out, n, epochs = 4, 2, 24, 3
	build := func() (*Sequential, []*mathx.Matrix, []*mathx.Matrix) {
		rng := randutil.New(7)
		net := NewSequential(
			NewDense(in, 8, rng),
			NewReLU(),
			NewLayerNorm(8),
			NewDropout(0.25, randutil.New(99)),
			NewDense(8, out, rng),
		)
		data := randutil.New(17)
		var X, Y []*mathx.Matrix
		for i := 0; i < n; i++ {
			x := randBatch(data, 1, in)
			y := randBatch(data, 1, out)
			X, Y = append(X, x), append(Y, y)
		}
		return net, X, Y
	}

	run := func(batched bool) *Sequential {
		net, X, Y := build()
		tr := NewTrainer(NewAdam(1e-2), 8, net.Params())
		if batched {
			tr.AddBatchReplica(net.Params(), func(shard []int) (float64, error) {
				B := len(shard)
				Xb := mathx.NewMatrix(B, in)
				Tb := mathx.NewMatrix(B, out)
				for k, s := range shard {
					copy(Xb.Row(k), X[s].Row(0))
					copy(Tb.Row(k), Y[s].Row(0))
				}
				Yb := net.ForwardBatch(Xb, true)
				dY := mathx.NewMatrix(B, out)
				var total float64
				for k := 0; k < B; k++ {
					l, g := MSELoss(Yb.Row(k), Tb.Row(k))
					total += l
					copy(dY.Row(k), g)
				}
				net.BackwardBatch(dY)
				return total, nil
			})
		} else {
			tr.AddBatchReplica(net.Params(), func(shard []int) (float64, error) {
				var total float64
				for _, s := range shard {
					y := net.Forward(X[s].Row(0).Clone(), true)
					l, g := MSELoss(y, Y[s].Row(0))
					net.Backward(g)
					total += l
				}
				return total, nil
			})
		}
		rng := randutil.New(3)
		for e := 0; e < epochs; e++ {
			if _, err := tr.Epoch(rng.Shuffle(n)); err != nil {
				t.Fatal(err)
			}
		}
		return net
	}

	seqNet := run(false)
	batNet := run(true)
	paramsBitEqual(t, "trainer batched-step", seqNet.Params(), batNet.Params())
}

// TestBatchSteadyStateNoAllocs: after warm-up, batched inference at a fixed
// batch size must not allocate.
func TestBatchSteadyStateNoAllocs(t *testing.T) {
	const B, T, in, H = 8, 12, 7, 16
	rng := randutil.New(61)
	enc := NewSeqEncoder(in, H, 2, rng)
	head := NewSequential(
		NonLinearBlock(H, 24, 0.1, rng),
		NewDense(24, in, rng),
	)
	xs := make([]*mathx.Matrix, T)
	for t2 := range xs {
		xs[t2] = randBatch(rng, B, in)
	}
	run := func() {
		h := enc.EncodeBatch(xs, false)
		head.ForwardBatch(h, false)
	}
	run() // warm the arenas
	allocs := testing.AllocsPerRun(20, run)
	if allocs > 0.5 {
		t.Errorf("steady-state batched inference allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkLSTMForwardBatch times the lockstep batched LSTM forward at the
// Adrias predictor shape (B=8, T=12 steps, 7 metrics, H=32), the
// perf-regression guard for the batched tensor core. Allocations must be
// ~0 in steady state.
func BenchmarkLSTMForwardBatch(b *testing.B) {
	const B, T, in, H = 8, 12, 7, 32
	rng := randutil.New(1)
	l := NewLSTM(in, H, rng)
	xs := make([]*mathx.Matrix, T)
	for t2 := range xs {
		xs[t2] = randBatch(rng, B, in)
	}
	l.ForwardSeqBatch(xs, false) // warm the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.ForwardSeqBatch(xs, false)
	}
}

// BenchmarkLSTMForwardSeqLoop is the sequential baseline for
// BenchmarkLSTMForwardBatch: the same B sequences, one ForwardSeq each.
func BenchmarkLSTMForwardSeqLoop(b *testing.B) {
	const B, T, in, H = 8, 12, 7, 32
	rng := randutil.New(1)
	l := refLSTM(NewLSTM(in, H, rng))
	seqs := make([][]mathx.Vector, B)
	for s := range seqs {
		seqs[s] = make([]mathx.Vector, T)
		for t2 := range seqs[s] {
			v := mathx.NewVector(in)
			for j := range v {
				v[j] = rng.Normal(0, 1)
			}
			seqs[s][t2] = v
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := range seqs {
			l.ForwardSeq(seqs[s], false)
		}
	}
}
