package models

import (
	"fmt"
	"math"
	"testing"

	"adrias/internal/dataset"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/nn"
	"adrias/internal/randutil"
)

// The per-sample reference the lockstep training and forecasting paths are
// pinned against: one sample at a time, each encoder run as a lockstep batch
// of one (which nn's TestBatchLSTMGradsBitIdentical pins to per-sample BPTT)
// and the head through the vector Layer path, with the inputs built by the
// dataset normalizers rather than the inlined staging.

// encodeOne encodes one sequence as a lockstep batch of one.
func encodeOne(enc *nn.SeqEncoder, seq []mathx.Vector, train bool) mathx.Vector {
	xs := make([]*mathx.Matrix, len(seq))
	for t, x := range seq {
		xs[t] = &mathx.Matrix{Rows: 1, Cols: len(x), Data: x.Clone()}
	}
	return enc.EncodeBatch(xs, train).Row(0).Clone()
}

// backwardOne backpropagates a final-state gradient through the batch of one
// encodeOne ran.
func backwardOne(enc *nn.SeqEncoder, dLast mathx.Vector) {
	enc.BackwardFromLastBatch(&mathx.Matrix{Rows: 1, Cols: len(dLast), Data: dLast.Clone()})
}

// sysHeadInput concatenates the encoder embedding with the normalized
// history-mean skip connection. logPast must already be in log space.
func sysHeadInput(m *SysStateModel, h mathx.Vector, logPast []mathx.Vector) mathx.Vector {
	x := mathx.NewVector(m.Cfg.Hidden + memsys.NumMetrics)
	copy(x, h)
	mean := mathx.NewVector(memsys.NumMetrics)
	for _, r := range logPast {
		mean.Add(r)
	}
	mean.Scale(1 / float64(len(logPast)))
	copy(x[m.Cfg.Hidden:], m.normIn.Transform(mean))
	return x
}

// sysStep is the per-sample forward/backward of window idx[pi].
func sysStep(m *SysStateModel, windows []dataset.Window, idx []int) func(int) (float64, error) {
	return func(pi int) (float64, error) {
		w := windows[idx[pi]]
		logPast := logSeq(w.Past)
		target := m.normOut.Transform(logVec(w.FutureMean))
		h := encodeOne(m.enc, m.normIn.TransformSeq(logPast), true)
		y := m.head.Forward(sysHeadInput(m, h, logPast), true)
		loss, g := nn.MSELoss(y, target)
		dh := m.head.Backward(g)
		backwardOne(m.enc, dh[:m.Cfg.Hidden])
		return loss, nil
	}
}

// perfForward runs one sample through the network. future may be nil.
func perfForward(m *PerfModel, s *PerfSample, future mathx.Vector, train bool) (mathx.Vector, error) {
	sig, ok := m.sigStore().Get(s.App)
	if !ok {
		return nil, fmt.Errorf("models: no signature for %q", s.App)
	}
	hS := encodeOne(m.encS, m.normIn.TransformSeq(logSeq(s.Past)), train)
	hK := encodeOne(m.encK, m.normIn.TransformSeq(logSeq(sig.Steps)), train)
	x := mathx.NewVector(2*m.Cfg.Hidden + 1 + memsys.NumMetrics)
	copy(x, hS)
	copy(x[m.Cfg.Hidden:], hK)
	x[2*m.Cfg.Hidden] = s.Remote
	if future != nil {
		copy(x[2*m.Cfg.Hidden+1:], m.normIn.Transform(logVec(future)))
	}
	return m.head.Forward(x, train), nil
}

// perfBackward propagates the output gradient through the head and both
// encoders, in the order the lockstep step does.
func perfBackward(m *PerfModel, g mathx.Vector) {
	dx := m.head.Backward(g)
	backwardOne(m.encS, dx[:m.Cfg.Hidden])
	backwardOne(m.encK, dx[m.Cfg.Hidden:2*m.Cfg.Hidden])
}

// perfStep is the per-sample forward/backward of sample trainIdx[pi].
func perfStep(m *PerfModel, samples []PerfSample, trainIdx []int) func(int) (float64, error) {
	return func(pi int) (float64, error) {
		s := &samples[trainIdx[pi]]
		y, err := perfForward(m, s, s.Future(m.Cfg.TrainFuture), true)
		if err != nil {
			return 0, err
		}
		loss, g := nn.MSELoss(y, m.normOut.Transform(mathx.Vector{math.Log(s.Perf)}))
		perfBackward(m, g)
		return loss, nil
	}
}

// perSample runs a per-sample step over a whole shard, in shard order.
func perSample(step func(int) (float64, error)) func([]int) (float64, error) {
	return func(shard []int) (float64, error) {
		var total float64
		for _, pi := range shard {
			l, err := step(pi)
			if err != nil {
				return total, err
			}
			total += l
		}
		return total, nil
	}
}

// refSysFit trains m like Fit, except that every shard runs per sample:
// Fit with zero epochs fits the normalizers, then Fit's trainer set-up,
// seeds and shuffles are repeated over per-sample steps.
func refSysFit(t *testing.T, m *SysStateModel, windows []dataset.Window, trainIdx []int) {
	t.Helper()
	cfg := m.Cfg
	m.Cfg.Epochs = 0
	if err := m.Fit(windows, trainIdx); err != nil {
		t.Fatal(err)
	}
	m.Cfg = cfg
	idx := append([]int(nil), trainIdx...)
	tr := nn.NewTrainer(nn.NewAdam(cfg.LR), cfg.Batch, m.Params())
	reps := []*SysStateModel{m}
	if W := trainWorkers(cfg.Workers); W > 1 {
		reps = reps[:0]
		repRng := randutil.New(cfg.Seed).Split(0x9a9)
		for w := 0; w < W; w++ {
			reps = append(reps, m.cloneWith(repRng.Split(int64(w))))
		}
	}
	for _, rep := range reps {
		tr.AddBatchReplica(rep.Params(), perSample(sysStep(rep, windows, idx)))
	}
	runEpochs(t, tr, cfg.Epochs, randutil.New(cfg.Seed).Split(0x7ea), len(idx))
}

// refPerfFit is refSysFit for the performance model.
func refPerfFit(t *testing.T, m *PerfModel, samples []PerfSample, trainIdx []int) {
	t.Helper()
	cfg := m.Cfg
	m.Cfg.Epochs = 0
	if err := m.Fit(samples, trainIdx); err != nil {
		t.Fatal(err)
	}
	m.Cfg = cfg
	tr := nn.NewTrainer(nn.NewAdam(cfg.LR), cfg.Batch, m.Params())
	reps := []*PerfModel{m}
	if W := trainWorkers(cfg.Workers); W > 1 {
		reps = reps[:0]
		repRng := randutil.New(cfg.Seed).Split(0x9a9)
		for w := 0; w < W; w++ {
			reps = append(reps, m.cloneWith(repRng.Split(int64(w))))
		}
	}
	for _, rep := range reps {
		tr.AddBatchReplica(rep.Params(), perSample(perfStep(rep, samples, trainIdx)))
	}
	runEpochs(t, tr, cfg.Epochs, randutil.New(cfg.Seed).Split(0xbee), len(trainIdx))
}

func runEpochs(t *testing.T, tr *nn.Trainer, epochs int, rng *randutil.Source, n int) {
	t.Helper()
	for e := 0; e < epochs; e++ {
		if _, err := tr.Epoch(rng.Shuffle(n)); err != nil {
			t.Fatal(err)
		}
	}
}

// paramsBitIdentical fails unless every weight matches to the bit.
func paramsBitIdentical(t *testing.T, label string, want, got []*nn.Param) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: param count %d vs %d", label, len(want), len(got))
	}
	var diff int
	for i := range want {
		for j, w := range want[i].W.Data {
			if math.Float64bits(w) != math.Float64bits(got[i].W.Data[j]) {
				diff++
			}
		}
	}
	if diff > 0 {
		t.Fatalf("%s: %d weights differ from the per-sample reference", label, diff)
	}
}

// TestFitMatchesPerSampleReference: both models' lockstep fits leave every
// parameter bit-identical to a per-sample loop over the same shards — with
// and without dropout, on one and two workers, with ragged shards (every
// fifth sequence a step shorter) and a training set that is not a multiple
// of the minibatch size.
func TestFitMatchesPerSampleReference(t *testing.T) {
	windows := sysWindows(t)
	for i := 0; i < len(windows); i += 5 {
		windows[i].Past = windows[i].Past[1:]
	}
	sysTrain, _ := dataset.Split(len(windows), 0.6, 11)
	be, sigs := buildPerfFixtures(t)
	for i := 0; i < len(be); i += 5 {
		be[i].Past = be[i].Past[1:]
	}
	perfTrain, _ := dataset.Split(len(be), 0.6, 13)
	if len(sysTrain)%tinySysConfig().Batch == 0 || len(perfTrain)%tinyPerfConfig().Batch == 0 {
		t.Fatalf("fixture: training sets %d / %d are whole minibatches", len(sysTrain), len(perfTrain))
	}

	for _, dropout := range []float64{0, 0.1} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("dropout=%g/workers=%d", dropout, workers)
			t.Run("sys/"+name, func(t *testing.T) {
				cfg := tinySysConfig()
				cfg.Dropout, cfg.Workers, cfg.Epochs = dropout, workers, 2
				got := NewSysStateModel(cfg)
				if err := got.Fit(windows, sysTrain); err != nil {
					t.Fatal(err)
				}
				want := NewSysStateModel(cfg)
				refSysFit(t, want, windows, sysTrain)
				paramsBitIdentical(t, "sys", want.Params(), got.Params())
			})
			t.Run("perf/"+name, func(t *testing.T) {
				cfg := tinyPerfConfig()
				cfg.Dropout, cfg.Workers, cfg.Epochs = dropout, workers, 2
				got := NewPerfModel(cfg, sigs)
				if err := got.Fit(be, perfTrain); err != nil {
					t.Fatal(err)
				}
				want := NewPerfModel(cfg, sigs)
				refPerfFit(t, want, be, perfTrain)
				paramsBitIdentical(t, "perf", want.Params(), got.Params())
			})
		}
	}
}
