package models

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"adrias/internal/dataset"
	"adrias/internal/mathx"
	"adrias/internal/nn"
	"adrias/internal/randutil"
)

// legacyPerfFit is the pre-Trainer sequential training loop (accumulate per
// sample through the per-sample reference step, step every Batch, flush the
// tail). The Workers ≤ 1 path of Fit must reproduce it bit for bit.
func legacyPerfFit(t *testing.T, m *PerfModel, samples []PerfSample, trainIdx []int) {
	t.Helper()
	var metricRows []mathx.Vector
	var targets []mathx.Vector
	for _, i := range trainIdx {
		s := &samples[i]
		metricRows = append(metricRows, logSeq(s.Past)...)
		if f := s.Future(m.Cfg.TrainFuture); f != nil {
			metricRows = append(metricRows, logVec(f))
		}
		targets = append(targets, mathx.Vector{math.Log(s.Perf)})
	}
	for _, name := range m.sigStore().Names() {
		sig, _ := m.sigStore().Get(name)
		metricRows = append(metricRows, logSeq(sig.Steps)...)
	}
	m.normIn = dataset.FitNormalizer(metricRows)
	m.normOut = dataset.FitNormalizer(targets)

	opt := nn.NewAdam(m.Cfg.LR)
	params := m.Params()
	rng := randutil.New(m.Cfg.Seed).Split(0xbee)
	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		perm := rng.Shuffle(len(trainIdx))
		batch := 0
		for _, pi := range perm {
			s := &samples[trainIdx[pi]]
			f := s.Future(m.Cfg.TrainFuture)
			y, err := perfForward(m, s, f, true)
			if err != nil {
				t.Fatal(err)
			}
			target := m.normOut.Transform(mathx.Vector{math.Log(s.Perf)})
			_, g := nn.MSELoss(y, target)
			perfBackward(m, g)
			batch++
			if batch == m.Cfg.Batch {
				opt.Step(params, 1/float64(batch))
				batch = 0
			}
		}
		if batch > 0 {
			opt.Step(params, 1/float64(batch))
		}
	}
	m.trained = true
}

func perfParamsEqual(t *testing.T, a, b *PerfModel, label string) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("%s: param count %d vs %d", label, len(pa), len(pb))
	}
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				t.Fatalf("%s: %s[%d] differs: %v vs %v",
					label, pa[i].Name, j, pa[i].W.Data[j], pb[i].W.Data[j])
			}
		}
	}
}

// TestPerfFitSequentialMatchesLegacyLoop: with Workers unset the rewritten
// Fit must produce weights and a PerfEval bit-identical to the pre-Trainer
// sequential loop on the same seed.
func TestPerfFitSequentialMatchesLegacyLoop(t *testing.T) {
	be, sigs := buildPerfFixtures(t)
	train, test := dataset.Split(len(be), 0.6, 13)

	legacy := NewPerfModel(tinyPerfConfig(), sigs)
	legacyPerfFit(t, legacy, be, train)

	for _, workers := range []int{0, 1} {
		cfg := tinyPerfConfig()
		cfg.Workers = workers
		m := NewPerfModel(cfg, sigs)
		if err := m.Fit(be, train); err != nil {
			t.Fatal(err)
		}
		perfParamsEqual(t, legacy, m, fmt.Sprintf("workers=%d vs legacy", workers))

		evL, err := legacy.Evaluate(be, test)
		if err != nil {
			t.Fatal(err)
		}
		evM, err := m.Evaluate(be, test)
		if err != nil {
			t.Fatal(err)
		}
		if evL.R2 != evM.R2 {
			t.Errorf("workers=%d R² = %v, legacy %v", workers, evM.R2, evL.R2)
		}
		for k := range evL.Predicted {
			if evL.Predicted[k] != evM.Predicted[k] {
				t.Fatalf("workers=%d prediction %d differs: %v vs %v",
					workers, k, evM.Predicted[k], evL.Predicted[k])
			}
		}
	}
}

// TestPerfFitMultiWorkerDeterministic: a fixed worker count must be exactly
// reproducible run to run (the ordered gradient reduction is deterministic).
func TestPerfFitMultiWorkerDeterministic(t *testing.T) {
	be, sigs := buildPerfFixtures(t)
	train, _ := dataset.Split(len(be), 0.6, 13)
	cfg := tinyPerfConfig()
	cfg.Workers = 3
	cfg.Epochs = 4

	a := NewPerfModel(cfg, sigs)
	if err := a.Fit(be, train); err != nil {
		t.Fatal(err)
	}
	b := NewPerfModel(cfg, sigs)
	if err := b.Fit(be, train); err != nil {
		t.Fatal(err)
	}
	perfParamsEqual(t, a, b, "workers=3 rerun")
}

// TestPerfFitMultiWorkerLearns: the sharded path must reach the same
// quality bar the sequential smoke test enforces.
func TestPerfFitMultiWorkerLearns(t *testing.T) {
	be, sigs := buildPerfFixtures(t)
	train, test := dataset.Split(len(be), 0.6, 13)
	cfg := tinyPerfConfig()
	cfg.Workers = 4
	m := NewPerfModel(cfg, sigs)
	if err := m.Fit(be, train); err != nil {
		t.Fatal(err)
	}
	ev, err := m.Evaluate(be, test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.R2 < 0.2 {
		t.Errorf("workers=4 perf R² = %v, want > 0.2", ev.R2)
	}
	t.Logf("workers=4 perf R² = %.3f", ev.R2)
}

// TestPerfModelCloneIndependent: a clone predicts identically but shares no
// mutable state — training the clone must not move the original.
func TestPerfModelCloneIndependent(t *testing.T) {
	be, sigs := buildPerfFixtures(t)
	train, _ := dataset.Split(len(be), 0.6, 13)
	m := NewPerfModel(tinyPerfConfig(), sigs)
	if err := m.Fit(be, train); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	p0, err := m.Predict(&be[0])
	if err != nil {
		t.Fatal(err)
	}
	pc, err := c.Predict(&be[0])
	if err != nil {
		t.Fatal(err)
	}
	if p0 != pc {
		t.Fatalf("clone prediction differs: %v vs %v", pc, p0)
	}
	// Nudge every clone weight; the original must be unaffected.
	for _, p := range c.Params() {
		for j := range p.W.Data {
			p.W.Data[j] += 0.1
		}
	}
	again, err := m.Predict(&be[0])
	if err != nil {
		t.Fatal(err)
	}
	if again != p0 {
		t.Fatal("mutating clone weights changed original's prediction")
	}
}

// TestPerfPredictBatchMatchesSequential: lockstep-batched inference is
// placement-invariant — identical to one-at-a-time PredictWith calls.
func TestPerfPredictBatchMatchesSequential(t *testing.T) {
	be, sigs := buildPerfFixtures(t)
	train, test := dataset.Split(len(be), 0.6, 13)
	m := NewPerfModel(tinyPerfConfig(), sigs)
	if err := m.Fit(be, train); err != nil {
		t.Fatal(err)
	}
	batch, err := m.predictBatch(be, test, m.Cfg.EvalFuture)
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range test {
		p, err := m.PredictWith(&be[i], m.Cfg.EvalFuture)
		if err != nil {
			t.Fatal(err)
		}
		if batch[k] != p {
			t.Fatalf("batch prediction %d differs: %v vs %v", k, batch[k], p)
		}
	}
}

// TestSysStateFitMultiWorker: the system-state model trains sharded,
// deterministically, and its batch inference matches sequential Predict.
func TestSysStateFitMultiWorker(t *testing.T) {
	windows := sysWindows(t)
	train, test := dataset.Split(len(windows), 0.6, 11)

	cfg := tinySysConfig()
	cfg.Workers = 3
	a := NewSysStateModel(cfg)
	if err := a.Fit(windows, train); err != nil {
		t.Fatal(err)
	}
	b := NewSysStateModel(cfg)
	if err := b.Fit(windows, train); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				t.Fatalf("workers=3 rerun differs at %s[%d]", pa[i].Name, j)
			}
		}
	}

	ev := a.Evaluate(windows, test)
	if ev.R2Avg < 0.5 {
		t.Errorf("workers=3 sysstate R² avg = %v, want > 0.5", ev.R2Avg)
	}

	// PredictBatch ≡ the sequential vector path on the same windows.
	pasts := make([][]mathx.Vector, len(test))
	for k, i := range test {
		pasts[k] = windows[i].Past
	}
	batch := a.PredictBatch(pasts)
	for k := range pasts {
		seq := predictSequential(a, pasts[k])
		for j := range seq {
			if batch[k][j] != seq[j] {
				t.Fatalf("PredictBatch[%d][%d] = %v, sequential %v", k, j, batch[k][j], seq[j])
			}
		}
	}
}

// TestTrainWorkersClamp covers the config normalization helpers.
func TestTrainWorkersClamp(t *testing.T) {
	if trainWorkers(0) != 1 || trainWorkers(-5) != 1 || trainWorkers(3) != 3 {
		t.Error("trainWorkers clamp wrong")
	}
	if batchWorkers(0) != 1 || batchWorkers(8) != 1 {
		t.Error("batchWorkers should floor at 1 (single batched call for small batches)")
	}
	if w := batchWorkers(1 << 20); w < 1 || w > runtime.GOMAXPROCS(0) {
		t.Errorf("batchWorkers(large) = %d, want in [1,GOMAXPROCS]", w)
	}
}
