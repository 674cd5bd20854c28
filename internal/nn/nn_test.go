package nn

import (
	"bytes"
	"math"
	"testing"

	"adrias/internal/mathx"
	"adrias/internal/randutil"
)

const gradTol = 1e-4

// numericGrad estimates d(loss)/d(w[i]) by central differences.
func numericGrad(w []float64, i int, loss func() float64) float64 {
	const eps = 1e-5
	old := w[i]
	w[i] = old + eps
	lp := loss()
	w[i] = old - eps
	lm := loss()
	w[i] = old
	return (lp - lm) / (2 * eps)
}

func relErr(a, b float64) float64 {
	den := math.Max(math.Abs(a)+math.Abs(b), 1e-8)
	return math.Abs(a-b) / den
}

func TestDenseForward(t *testing.T) {
	rng := randutil.New(1)
	d := NewDense(2, 3, rng)
	// Overwrite weights for a deterministic check.
	copy(d.w.W.Data, []float64{1, 2, 3, 4, 5, 6})
	copy(d.b.W.Data, []float64{0.5, -0.5, 1})
	y := d.Forward(mathx.Vector{1, 1}, false)
	want := mathx.Vector{3.5, 6.5, 12}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("Dense forward = %v, want %v", y, want)
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := randutil.New(2)
	d := NewDense(3, 2, rng)
	x := mathx.Vector{0.5, -1.2, 2.0}
	target := mathx.Vector{1, -1}
	loss := func() float64 {
		l, _ := MSELoss(d.Forward(x, false), target)
		return l
	}
	// Analytic gradients.
	_, g := MSELoss(d.Forward(x, false), target)
	dx := d.Backward(g)
	for _, p := range d.Params() {
		for i := range p.W.Data {
			num := numericGrad(p.W.Data, i, loss)
			if relErr(num, p.G.Data[i]) > gradTol {
				t.Errorf("%s[%d]: analytic %v numeric %v", p.Name, i, p.G.Data[i], num)
			}
		}
	}
	// Input gradient.
	for i := range x {
		num := numericGrad(x, i, loss)
		if relErr(num, dx[i]) > gradTol {
			t.Errorf("dx[%d]: analytic %v numeric %v", i, dx[i], num)
		}
	}
}

func TestReLU(t *testing.T) {
	r := NewReLU()
	y := r.Forward(mathx.Vector{-1, 0, 2}, false)
	if y[0] != 0 || y[1] != 0 || y[2] != 2 {
		t.Errorf("ReLU forward = %v", y)
	}
	dx := r.Backward(mathx.Vector{1, 1, 1})
	if dx[0] != 0 || dx[1] != 0 || dx[2] != 1 {
		t.Errorf("ReLU backward = %v", dx)
	}
}

func TestDropoutEvalIdentity(t *testing.T) {
	d := NewDropout(0.5, randutil.New(3))
	x := mathx.Vector{1, 2, 3, 4}
	y := d.Forward(x, false)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("eval dropout must be identity: %v", y)
		}
	}
	dx := d.Backward(mathx.Vector{1, 1, 1, 1})
	for _, v := range dx {
		if v != 1 {
			t.Fatalf("eval dropout backward must pass through: %v", dx)
		}
	}
}

func TestDropoutTrainMasksAndScales(t *testing.T) {
	rng := randutil.New(4)
	d := NewDropout(0.5, rng)
	n := 1000
	x := mathx.NewVector(n)
	x.Fill(1)
	y := d.Forward(x, true)
	zeros, twos := 0, 0
	for _, v := range y {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Errorf("dropout rate off: %d/1000 zeroed", zeros)
	}
	// Backward uses the same mask.
	dx := d.Backward(x)
	for i := range dx {
		if (y[i] == 0) != (dx[i] == 0) {
			t.Fatal("backward mask differs from forward mask")
		}
	}
	_ = twos
}

func TestDropoutBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDropout(1, randutil.New(1))
}

func TestBatchNormNormalizes(t *testing.T) {
	bn := NewBatchNorm(2)
	rng := randutil.New(5)
	// Feed many training samples from N(10, 4) and N(-3, 0.5).
	for i := 0; i < 5000; i++ {
		bn.Forward(mathx.Vector{rng.Normal(10, 2), rng.Normal(-3, 0.5)}, true)
	}
	// After warm-up, a typical sample normalizes to ≈ z-score.
	y := bn.Forward(mathx.Vector{12, -3}, false)
	if math.Abs(y[0]-1) > 0.25 {
		t.Errorf("y[0] = %v, want ≈1 (z-score of 12 in N(10,2))", y[0])
	}
	if math.Abs(y[1]) > 0.25 {
		t.Errorf("y[1] = %v, want ≈0", y[1])
	}
}

func TestBatchNormGradCheck(t *testing.T) {
	bn := NewBatchNorm(3)
	rng := randutil.New(6)
	for i := 0; i < 100; i++ {
		bn.Forward(mathx.Vector{rng.Normal(1, 2), rng.Normal(0, 1), rng.Normal(-2, 3)}, true)
	}
	x := mathx.Vector{0.7, -0.3, 1.1}
	target := mathx.Vector{1, 0, -1}
	loss := func() float64 {
		l, _ := MSELoss(bn.Forward(x, false), target)
		return l
	}
	_, g := MSELoss(bn.Forward(x, false), target)
	dx := bn.Backward(g)
	for _, p := range bn.Params() {
		if p.Frozen {
			continue
		}
		for i := range p.W.Data {
			num := numericGrad(p.W.Data, i, loss)
			if relErr(num, p.G.Data[i]) > gradTol {
				t.Errorf("%s[%d]: analytic %v numeric %v", p.Name, i, p.G.Data[i], num)
			}
		}
	}
	for i := range x {
		num := numericGrad(x, i, loss)
		if relErr(num, dx[i]) > gradTol {
			t.Errorf("dx[%d]: analytic %v numeric %v", i, dx[i], num)
		}
	}
}

func TestSequentialGradCheck(t *testing.T) {
	rng := randutil.New(7)
	net := NewSequential(
		NewDense(4, 8, rng),
		NewReLU(),
		NewDense(8, 2, rng),
	)
	x := mathx.Vector{0.1, -0.4, 0.9, 0.3}
	target := mathx.Vector{0.5, -0.5}
	loss := func() float64 {
		l, _ := MSELoss(net.Forward(x, false), target)
		return l
	}
	_, g := MSELoss(net.Forward(x, false), target)
	net.Backward(g)
	for _, p := range net.Params() {
		for i := range p.W.Data {
			num := numericGrad(p.W.Data, i, loss)
			if relErr(num, p.G.Data[i]) > gradTol {
				t.Errorf("%s[%d]: analytic %v numeric %v", p.Name, i, p.G.Data[i], num)
			}
		}
	}
}

func TestLSTMGradCheck(t *testing.T) {
	rng := randutil.New(8)
	l := refLSTM(NewLSTM(3, 4, rng))
	xs := []mathx.Vector{
		{0.5, -0.2, 0.1},
		{-0.3, 0.8, 0.4},
		{0.2, 0.2, -0.7},
		{0.9, -0.5, 0.3},
	}
	target := mathx.Vector{0.3, -0.1, 0.4, 0.2}
	loss := func() float64 {
		hs := l.ForwardSeq(xs, false)
		lo, _ := MSELoss(hs[len(hs)-1], target)
		return lo
	}
	hs := l.ForwardSeq(xs, false)
	_, g := MSELoss(hs[len(hs)-1], target)
	dhs := make([]mathx.Vector, len(xs))
	dhs[len(xs)-1] = g
	dxs := l.BackwardSeq(dhs)
	for _, p := range l.Params() {
		for i := range p.W.Data {
			num := numericGrad(p.W.Data, i, loss)
			if relErr(num, p.G.Data[i]) > gradTol {
				t.Errorf("%s[%d]: analytic %v numeric %v", p.Name, i, p.G.Data[i], num)
			}
		}
	}
	// Input gradients at each step.
	for s := range xs {
		for i := range xs[s] {
			num := numericGrad(xs[s], i, loss)
			if relErr(num, dxs[s][i]) > gradTol {
				t.Errorf("dx[%d][%d]: analytic %v numeric %v", s, i, dxs[s][i], num)
			}
		}
	}
}

func TestLSTMGradCheckMidSequenceGradient(t *testing.T) {
	// Gradients injected at a middle step must also check out.
	rng := randutil.New(9)
	l := refLSTM(NewLSTM(2, 3, rng))
	xs := []mathx.Vector{{0.1, 0.2}, {-0.5, 0.4}, {0.3, -0.3}}
	target := mathx.Vector{0.5, 0, -0.5}
	loss := func() float64 {
		hs := l.ForwardSeq(xs, false)
		lo, _ := MSELoss(hs[1], target) // middle step
		return lo
	}
	hs := l.ForwardSeq(xs, false)
	_, g := MSELoss(hs[1], target)
	dhs := make([]mathx.Vector, len(xs))
	dhs[1] = g
	l.BackwardSeq(dhs)
	for _, p := range l.Params() {
		for i := range p.W.Data {
			num := numericGrad(p.W.Data, i, loss)
			if relErr(num, p.G.Data[i]) > gradTol {
				t.Errorf("%s[%d]: analytic %v numeric %v", p.Name, i, p.G.Data[i], num)
			}
		}
	}
}

func TestSeqEncoderGradCheck(t *testing.T) {
	rng := randutil.New(10)
	e := refEncoder(NewSeqEncoder(2, 3, 2, rng))
	xs := []mathx.Vector{{0.4, -0.1}, {0.2, 0.6}, {-0.5, 0.3}}
	target := mathx.Vector{0.1, -0.2, 0.3}
	loss := func() float64 {
		l, _ := MSELoss(e.Encode(xs, false), target)
		return l
	}
	_, g := MSELoss(e.Encode(xs, false), target)
	e.BackwardFromLast(g)
	for _, p := range e.Params() {
		for i := range p.W.Data {
			num := numericGrad(p.W.Data, i, loss)
			if relErr(num, p.G.Data[i]) > gradTol {
				t.Errorf("%s[%d]: analytic %v numeric %v", p.Name, i, p.G.Data[i], num)
			}
		}
	}
}

func TestMSELoss(t *testing.T) {
	l, g := MSELoss(mathx.Vector{1, 2}, mathx.Vector{0, 4})
	if math.Abs(l-2.5) > 1e-12 { // (1 + 4)/2
		t.Errorf("loss = %v", l)
	}
	if g[0] != 1 || g[1] != -2 { // 2*d/n
		t.Errorf("grad = %v", g)
	}
}

func TestSGDStep(t *testing.T) {
	p := newParam("w", 1, 2)
	p.W.Data[0] = 1
	p.G.Data[0] = 0.5
	(&SGD{LR: 0.1}).Step([]*Param{p}, 1)
	if math.Abs(p.W.Data[0]-0.95) > 1e-12 {
		t.Errorf("after SGD: %v", p.W.Data[0])
	}
	if p.G.Data[0] != 0 {
		t.Error("gradient not cleared")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2 with Adam.
	p := newParam("w", 1, 1)
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.G.Data[0] = 2 * (p.W.Data[0] - 3)
		opt.Step([]*Param{p}, 1)
	}
	if math.Abs(p.W.Data[0]-3) > 0.01 {
		t.Errorf("Adam did not converge: w = %v", p.W.Data[0])
	}
}

func TestFrozenParamsSkipped(t *testing.T) {
	p := newParam("state", 1, 1)
	p.Frozen = true
	p.W.Data[0] = 7
	p.G.Data[0] = 100
	NewAdam(1).Step([]*Param{p}, 1)
	if p.W.Data[0] != 7 {
		t.Errorf("frozen param updated: %v", p.W.Data[0])
	}
	if p.G.Data[0] != 0 {
		t.Error("frozen gradient should still be cleared")
	}
	p.G.Data[0] = 100
	(&SGD{LR: 1}).Step([]*Param{p}, 1)
	if p.W.Data[0] != 7 {
		t.Error("SGD updated frozen param")
	}
}

func TestGradientClipping(t *testing.T) {
	p := newParam("w", 1, 2)
	p.G.Data[0], p.G.Data[1] = 30, 40 // norm 50
	applyScaleClip(p.G, 1, 5)
	norm := math.Hypot(p.G.Data[0], p.G.Data[1])
	if math.Abs(norm-5) > 1e-9 {
		t.Errorf("clipped norm = %v, want 5", norm)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := randutil.New(11)
	build := func(r *randutil.Source) *Sequential {
		return NewSequential(
			NewDense(3, 5, r),
			NewReLU(),
			NewBatchNorm(5),
			NewDense(5, 1, r),
		)
	}
	src := build(rng)
	// Warm batch norm and perturb weights so the save is non-trivial.
	for i := 0; i < 50; i++ {
		src.Forward(mathx.Vector{rng.Normal(0, 1), rng.Normal(2, 1), rng.Normal(-1, 2)}, true)
	}
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	dst := build(randutil.New(99)) // different init
	if err := LoadParams(&buf, dst.Params()); err != nil {
		t.Fatal(err)
	}
	x := mathx.Vector{0.3, 1.5, -0.7}
	a := src.Forward(x, false)
	b := dst.Forward(x, false)
	if math.Abs(a[0]-b[0]) > 1e-12 {
		t.Errorf("loaded model differs: %v vs %v", a, b)
	}
}

func TestLoadParamsShapeMismatch(t *testing.T) {
	rng := randutil.New(12)
	a := NewDense(2, 2, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	b := NewDense(2, 3, rng)
	if err := LoadParams(&buf, b.Params()); err == nil {
		t.Error("expected shape mismatch error")
	}
}

func TestNonLinearBlockShapes(t *testing.T) {
	rng := randutil.New(13)
	blk := NonLinearBlock(6, 4, 0.1, rng)
	y := blk.Forward(mathx.NewVector(6), false)
	if len(y) != 4 {
		t.Errorf("block output dim = %d, want 4", len(y))
	}
}

func TestLSTMEmptySequencePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLSTM(1, 1, randutil.New(1)).ForwardSeqBatch(nil, false)
}

// A tiny end-to-end training sanity check: a 2-layer net learns XOR-ish
// regression.
func TestTrainingLearnsSimpleFunction(t *testing.T) {
	rng := randutil.New(14)
	net := NewSequential(
		NewDense(2, 16, rng),
		NewReLU(),
		NewDense(16, 1, rng),
	)
	opt := NewAdam(0.01)
	data := [][2]mathx.Vector{
		{{0, 0}, {0}},
		{{0, 1}, {1}},
		{{1, 0}, {1}},
		{{1, 1}, {0}},
	}
	for epoch := 0; epoch < 800; epoch++ {
		for _, d := range data {
			y := net.Forward(d[0], true)
			_, g := MSELoss(y, d[1])
			net.Backward(g)
		}
		opt.Step(net.Params(), 1.0/float64(len(data)))
	}
	var worst float64
	for _, d := range data {
		y := net.Forward(d[0], false)
		if e := math.Abs(y[0] - d[1][0]); e > worst {
			worst = e
		}
	}
	if worst > 0.2 {
		t.Errorf("XOR regression error = %v", worst)
	}
}

// LSTM can learn to remember: output last step's first input element.
func TestLSTMLearnsMemoryTask(t *testing.T) {
	rng := randutil.New(15)
	enc := refEncoder(NewSeqEncoder(1, 8, 1, rng))
	head := NewDense(8, 1, rng)
	params := append(enc.Params(), head.Params()...)
	opt := NewAdam(0.02)

	sample := func(r *randutil.Source) ([]mathx.Vector, mathx.Vector) {
		xs := make([]mathx.Vector, 5)
		for i := range xs {
			xs[i] = mathx.Vector{r.Uniform(-1, 1)}
		}
		// Target: the first element of the sequence (long-range memory).
		return xs, mathx.Vector{xs[0][0]}
	}
	for epoch := 0; epoch < 300; epoch++ {
		for b := 0; b < 8; b++ {
			xs, target := sample(rng)
			h := enc.Encode(xs, true)
			y := head.Forward(h, true)
			_, g := MSELoss(y, target)
			dh := head.Backward(g)
			enc.BackwardFromLast(dh)
		}
		opt.Step(params, 1.0/8)
	}
	testRng := randutil.New(999)
	var sumErr float64
	n := 50
	for i := 0; i < n; i++ {
		xs, target := sample(testRng)
		y := head.Forward(enc.Encode(xs, false), false)
		sumErr += math.Abs(y[0] - target[0])
	}
	if avg := sumErr / float64(n); avg > 0.15 {
		t.Errorf("LSTM memory task MAE = %v", avg)
	}
}

func TestLayerNormGradCheck(t *testing.T) {
	ln := NewLayerNorm(4)
	// Non-trivial gamma/beta.
	copy(ln.gamma.W.Data, []float64{1.5, 0.5, -1, 2})
	copy(ln.beta.W.Data, []float64{0.1, -0.2, 0.3, 0})
	x := mathx.Vector{0.5, -1.2, 2.0, 0.3}
	target := mathx.Vector{1, 0, -1, 0.5}
	loss := func() float64 {
		l, _ := MSELoss(ln.Forward(x, false), target)
		return l
	}
	_, g := MSELoss(ln.Forward(x, false), target)
	dx := ln.Backward(g)
	for _, p := range ln.Params() {
		for i := range p.W.Data {
			num := numericGrad(p.W.Data, i, loss)
			if relErr(num, p.G.Data[i]) > gradTol {
				t.Errorf("%s[%d]: analytic %v numeric %v", p.Name, i, p.G.Data[i], num)
			}
		}
	}
	for i := range x {
		num := numericGrad(x, i, loss)
		if relErr(num, dx[i]) > gradTol {
			t.Errorf("dx[%d]: analytic %v numeric %v", i, dx[i], num)
		}
	}
}

func TestLayerNormNormalizes(t *testing.T) {
	ln := NewLayerNorm(3)
	y := ln.Forward(mathx.Vector{10, 20, 30}, false)
	if math.Abs(mathx.Mean(y)) > 1e-9 {
		t.Errorf("LayerNorm output mean = %v", mathx.Mean(y))
	}
	if math.Abs(mathx.Std(y)-1) > 1e-3 {
		t.Errorf("LayerNorm output std = %v", mathx.Std(y))
	}
}
