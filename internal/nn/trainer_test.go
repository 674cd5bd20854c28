package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"adrias/internal/mathx"
	"adrias/internal/randutil"
)

// trainerNet builds a small regression network; identical seeds build
// bit-identical networks.
func trainerNet(seed int64) *Sequential {
	rng := randutil.New(seed)
	return NewSequential(
		NewDense(8, 24, rng),
		NewReLU(),
		NewLayerNorm(24),
		NewDense(24, 1, rng.Split(1)),
	)
}

// trainerData synthesizes a fixed regression dataset: y = Σ sin(x) + noise.
func trainerData(n int, seed int64) (xs, ys []mathx.Vector) {
	rng := randutil.New(seed)
	for i := 0; i < n; i++ {
		x := mathx.NewVector(8)
		var s float64
		for j := range x {
			x[j] = rng.Uniform(-2, 2)
			s += math.Sin(x[j])
		}
		xs = append(xs, x)
		ys = append(ys, mathx.Vector{s + rng.Normal(0, 0.01)})
	}
	return xs, ys
}

// netStep is one replica's shard closure: a per-sample forward/backward
// loop over the shard.
func netStep(net *Sequential, xs, ys []mathx.Vector) func([]int) (float64, error) {
	return func(shard []int) (float64, error) {
		var total float64
		for _, i := range shard {
			loss, g := MSELoss(net.Forward(xs[i], true), ys[i])
			net.Backward(g)
			total += loss
		}
		return total, nil
	}
}

// fitWithTrainer trains a fresh net for epochs passes with the given worker
// count and returns it.
func fitWithTrainer(t testing.TB, workers, epochs int, xs, ys []mathx.Vector) *Sequential {
	t.Helper()
	net := trainerNet(41)
	tr := NewTrainer(NewAdam(1e-2), 16, net.Params())
	if workers <= 1 {
		tr.AddBatchReplica(net.Params(), netStep(net, xs, ys))
	} else {
		crng := randutil.New(99)
		for w := 0; w < workers; w++ {
			rep := net.CloneSeq(crng.Split(int64(w)))
			tr.AddBatchReplica(rep.Params(), netStep(rep, xs, ys))
		}
	}
	rng := randutil.New(7)
	for e := 0; e < epochs; e++ {
		if _, err := tr.Epoch(rng.Shuffle(len(xs))); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

func paramsEqual(t *testing.T, a, b []*Param, tol float64, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: param count %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		for j := range a[i].W.Data {
			av, bv := a[i].W.Data[j], b[i].W.Data[j]
			if tol == 0 {
				if av != bv {
					t.Fatalf("%s: %s[%d] differs: %v vs %v", label, a[i].Name, j, av, bv)
				}
			} else if relErr(av, bv) > tol {
				t.Fatalf("%s: %s[%d] differs beyond %g: %v vs %v", label, a[i].Name, j, tol, av, bv)
			}
		}
	}
}

// TestTrainerSequentialBitIdentical: a single aliased replica must
// reproduce the hand-written accumulate/step loop bit for bit.
func TestTrainerSequentialBitIdentical(t *testing.T) {
	xs, ys := trainerData(100, 3)

	// Hand-written reference: the loop the models used before the Trainer.
	ref := trainerNet(41)
	opt := NewAdam(1e-2)
	params := ref.Params()
	rng := randutil.New(7)
	const batch = 16
	for e := 0; e < 4; e++ {
		perm := rng.Shuffle(len(xs))
		count := 0
		for _, pi := range perm {
			_, g := MSELoss(ref.Forward(xs[pi], true), ys[pi])
			ref.Backward(g)
			count++
			if count == batch {
				opt.Step(params, 1/float64(count))
				count = 0
			}
		}
		if count > 0 {
			opt.Step(params, 1/float64(count))
		}
	}

	got := fitWithTrainer(t, 1, 4, xs, ys)
	paramsEqual(t, ref.Params(), got.Params(), 0, "sequential-vs-trainer")
}

// TestTrainerDeterministicPerWorkerCount: the ordered reduction makes any
// fixed worker count bit-reproducible run to run.
func TestTrainerDeterministicPerWorkerCount(t *testing.T) {
	xs, ys := trainerData(100, 3)
	for _, w := range []int{2, 4} {
		a := fitWithTrainer(t, w, 3, xs, ys)
		b := fitWithTrainer(t, w, 3, xs, ys)
		paramsEqual(t, a.Params(), b.Params(), 0, fmt.Sprintf("workers=%d rerun", w))
	}
}

// TestTrainerWorkersMatchSequentialMath: without dropout the sharded run
// computes the same gradient sums as the sequential one, re-associated —
// parameters must agree to floating-point noise across worker counts.
func TestTrainerWorkersMatchSequentialMath(t *testing.T) {
	xs, ys := trainerData(100, 3)
	seq := fitWithTrainer(t, 1, 3, xs, ys)
	for _, w := range []int{2, 3, 5} {
		par := fitWithTrainer(t, w, 3, xs, ys)
		paramsEqual(t, seq.Params(), par.Params(), 1e-6, fmt.Sprintf("workers=%d vs sequential", w))
	}
}

// TestTrainerLearns: the parallel path must actually optimize.
func TestTrainerLearns(t *testing.T) {
	xs, ys := trainerData(200, 3)
	net := fitWithTrainer(t, 4, 30, xs, ys)
	var loss float64
	for i := range xs {
		l, _ := MSELoss(net.Forward(xs[i], false), ys[i])
		loss += l
	}
	loss /= float64(len(xs))
	if loss > 0.2 {
		t.Errorf("parallel training loss = %v, want < 0.2", loss)
	}
}

// TestCloneReplicaIndependence: training a clone must leave the source's
// weights untouched, and cloning must copy weights exactly.
func TestCloneReplicaIndependence(t *testing.T) {
	xs, ys := trainerData(40, 5)
	src := trainerNet(17)
	before := make([]mathx.Vector, 0)
	for _, p := range src.Params() {
		before = append(before, mathx.Vector(p.W.Data).Clone())
	}

	clone := src.CloneSeq(randutil.New(1))
	paramsEqual(t, src.Params(), clone.Params(), 0, "clone copies weights")

	// Train the clone hard; the source must not move.
	opt := NewAdam(1e-2)
	for e := 0; e < 3; e++ {
		for i := range xs {
			_, g := MSELoss(clone.Forward(xs[i], true), ys[i])
			clone.Backward(g)
			opt.Step(clone.Params(), 1)
		}
	}
	for i, p := range src.Params() {
		for j, v := range p.W.Data {
			if v != before[i][j] {
				t.Fatalf("training clone mutated source %s[%d]", p.Name, j)
			}
		}
	}
	// And the clone must have actually moved (it trained).
	moved := false
	for i, p := range clone.Params() {
		for j, v := range p.W.Data {
			if v != before[i][j] {
				moved = true
				_ = i
				break
			}
		}
	}
	if !moved {
		t.Fatal("clone did not train")
	}
}

// TestSeqEncoderCloneIndependence: the LSTM stack clone must be deep.
func TestSeqEncoderCloneIndependence(t *testing.T) {
	rng := randutil.New(9)
	enc := refEncoder(NewSeqEncoder(4, 6, 2, rng))
	seq := []mathx.Vector{{1, 2, 3, 4}, {0.5, -1, 2, 0}, {0, 1, 0, -1}}
	want := enc.Encode(seq, false).Clone()

	clone := refEncoder(enc.Clone(nil))
	got := clone.Encode(seq, false)
	for j := range want {
		if want[j] != got[j] {
			t.Fatalf("clone encoding differs at %d: %v vs %v", j, want[j], got[j])
		}
	}
	// Backprop through the clone; source weights must not move.
	clone.BackwardFromLast(mathx.Vector{1, 1, 1, 1, 1, 1})
	opt := &SGD{LR: 0.5}
	opt.Step(clone.Params(), 1)
	again := enc.Encode(seq, false)
	for j := range want {
		if want[j] != again[j] {
			t.Fatal("training encoder clone mutated source")
		}
	}
}

// TestDropoutCloneDecorrelated: replica dropout layers draw from their own
// streams.
func TestDropoutCloneDecorrelated(t *testing.T) {
	d := NewDropout(0.5, randutil.New(1))
	c1 := d.Clone(randutil.New(2)).(*Dropout)
	if c1.Rate != 0.5 {
		t.Fatalf("clone rate = %v", c1.Rate)
	}
	x := mathx.NewVector(64)
	x.Fill(1)
	y1 := d.Forward(x, true)
	y2 := c1.Forward(x, true)
	same := true
	for i := range y1 {
		if y1[i] != y2[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("clone produced the identical 64-element mask — streams not decorrelated")
	}
}

// TestSigmoidExtremeInputs: the clamp keeps the gates overflow-free at
// ±1e3 pre-activations (and far beyond).
func TestSigmoidExtremeInputs(t *testing.T) {
	for _, x := range []float64{1e3, 1e6, math.MaxFloat64} {
		hi, lo := sigmoid(x), sigmoid(-x)
		if math.IsNaN(hi) || math.IsInf(hi, 0) || math.IsNaN(lo) || math.IsInf(lo, 0) {
			t.Fatalf("sigmoid(±%g) not finite: %v, %v", x, hi, lo)
		}
		if hi != 1 || lo > 1e-15 {
			t.Errorf("sigmoid(±%g) = %v, %v; want saturation to 1 and ~0", x, hi, lo)
		}
	}
	// A full LSTM step fed huge activations must stay finite too.
	rng := randutil.New(3)
	l := NewLSTM(2, 3, rng)
	out := l.ForwardSeqBatch([]*mathx.Matrix{
		{Rows: 1, Cols: 2, Data: []float64{1e3, -1e3}},
		{Rows: 1, Cols: 2, Data: []float64{1e6, 1e6}},
	}, false)
	for _, h := range out {
		for _, v := range h.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("LSTM output not finite under extreme inputs: %v", out)
			}
		}
	}
}

// BenchmarkTrainerWorkers compares wall time of the sharded trainer across
// worker counts on a synthetic regression task — the per-PR perf artifact
// uploaded by CI. On a single-core host the counts collapse to {1}.
func BenchmarkTrainerWorkers(b *testing.B) {
	xs, ys := trainerData(512, 3)
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fitWithTrainer(b, w, 2, xs, ys)
			}
		})
	}
}
