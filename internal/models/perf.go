package models

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"adrias/internal/dataset"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/nn"
	"adrias/internal/randutil"
	"adrias/internal/scenario"
	"adrias/internal/workload"
)

// FutureKind selects which future-system-state vector Ŝ feeds the
// performance model — the paper's Fig. 13b ablation axis.
type FutureKind int

const (
	// FutureNone omits Ŝ ({None} in the paper; the input slot is zeroed).
	FutureNone FutureKind = iota
	// Future120Actual uses the actual metric means over the 120 s after
	// deployment ({120}).
	Future120Actual
	// FutureExecActual uses the actual means over the full execution ({exec}).
	FutureExecActual
	// FuturePredicted propagates the system-state model's prediction ({Ŝ}).
	FuturePredicted
)

// String implements fmt.Stringer.
func (k FutureKind) String() string {
	switch k {
	case FutureNone:
		return "None"
	case Future120Actual:
		return "120"
	case FutureExecActual:
		return "exec"
	case FuturePredicted:
		return "Ŝ"
	default:
		return fmt.Sprintf("FutureKind(%d)", int(k))
	}
}

// PerfSample is one training/evaluation example for the performance model.
type PerfSample struct {
	App    string
	Class  workload.Class
	Remote float64 // deployment mode: 0 local, 1 remote
	// Past is the resampled history window S before arrival.
	Past []mathx.Vector
	// Future120/FutureExec/FuturePred are the Ŝ variants.
	Future120  mathx.Vector
	FutureExec mathx.Vector
	FuturePred mathx.Vector
	// Perf is the target: execution time (BE, seconds) or p99 (LC, ms).
	Perf float64
}

// Future returns the Ŝ vector for the given kind (nil for FutureNone).
func (s *PerfSample) Future(kind FutureKind) mathx.Vector {
	switch kind {
	case Future120Actual:
		return s.Future120
	case FutureExecActual:
		return s.FutureExec
	case FuturePredicted:
		return s.FuturePred
	default:
		return nil
	}
}

// PerfDatasetSpec controls sample extraction from scenario results. It must
// agree with the WindowSpec the system-state model was trained with so that
// propagated predictions line up.
type PerfDatasetSpec struct {
	HistTicks   int // history window before arrival (paper: 120)
	FutureTicks int // future window after arrival (paper: 120)
	Stride      int // stride-block aggregation inside the history window
}

// DefaultPerfDatasetSpec mirrors the paper's 120 s windows with stride-10
// aggregation (12 LSTM steps).
func DefaultPerfDatasetSpec() PerfDatasetSpec {
	return PerfDatasetSpec{HistTicks: 120, FutureTicks: 120, Stride: 10}
}

// WindowSpec returns the matching system-state window specification.
func (s PerfDatasetSpec) WindowSpec() dataset.WindowSpec {
	return dataset.WindowSpec{Hist: s.HistTicks, Horizon: s.FutureTicks, Stride: s.Stride, Hop: 1}
}

// BuildPerfSamples extracts performance samples from scenario results that
// retained their history. Runs arriving before a full history window, and
// iBench runs, are skipped. FuturePred is left nil; attach it with
// AttachPredictions when evaluating the propagated-Ŝ variant.
func BuildPerfSamples(results []scenario.Result, spec PerfDatasetSpec) []PerfSample {
	var out []PerfSample
	steps := spec.HistTicks / spec.Stride
	for _, res := range results {
		if len(res.History) == 0 {
			continue
		}
		series := make([]mathx.Vector, len(res.History))
		for i, r := range res.History {
			series[i] = mathx.Vector(r.Sample.Vector())
		}
		for _, run := range res.Runs {
			if run.Class == workload.Interference {
				continue
			}
			arr := int(run.StartAt) // history tick index of arrival
			if arr < spec.HistTicks || arr >= len(series) {
				continue
			}
			past := ResampleSeq(series[arr-spec.HistTicks:arr], steps)
			futEnd := arr + spec.FutureTicks
			if futEnd > len(series) {
				futEnd = len(series)
			}
			done := int(run.DoneAt)
			if done <= arr {
				done = arr + 1
			}
			if done > len(series) {
				done = len(series)
			}
			perf := run.ExecTime
			if run.Class == workload.LatencyCritical {
				perf = run.P99Ms
			}
			remote := 0.0
			if run.Tier == memsys.TierRemote {
				remote = 1
			}
			out = append(out, PerfSample{
				App:        run.Name,
				Class:      run.Class,
				Remote:     remote,
				Past:       past,
				Future120:  meanRows(series[arr:futEnd]),
				FutureExec: meanRows(series[arr:done]),
				Perf:       perf,
			})
		}
	}
	return out
}

func meanRows(rows []mathx.Vector) mathx.Vector {
	if len(rows) == 0 {
		return nil
	}
	m := mathx.NewVector(len(rows[0]))
	for _, r := range rows {
		m.Add(r)
	}
	return m.Scale(1 / float64(len(rows)))
}

// AttachPredictions fills every sample's FuturePred by propagating the
// trained system-state model on the sample's past window, across one model
// clone per CPU (results are identical to the sequential loop).
func AttachPredictions(samples []PerfSample, sys *SysStateModel) {
	pasts := make([][]mathx.Vector, len(samples))
	for i := range samples {
		pasts[i] = samples[i].Past
	}
	preds := sys.PredictBatch(pasts)
	for i := range samples {
		samples[i].FuturePred = preds[i]
	}
}

// PerfConfig configures the performance model (Fig. 11b).
type PerfConfig struct {
	Hidden   int
	BlockDim int
	Dropout  float64
	LR       float64
	Epochs   int
	Batch    int
	Seed     int64
	// Workers sets the training worker-pool size. n ≥ 2 shards each
	// minibatch across n model replicas with a deterministic ordered
	// gradient reduction (seed-reproducible for a fixed n, but the
	// per-sample gradients sum in a different order than sequentially);
	// 0 or 1 trains sequentially, bit-identical to the pre-parallel
	// trainer. Batch inference always batches — see PredictEach.
	Workers int
	// TrainFuture/EvalFuture select the Ŝ source in each phase — the paper's
	// {train,test} ablation pairs. The pragmatic deployment choice is
	// {Future120Actual, FuturePredicted}.
	TrainFuture FutureKind
	EvalFuture  FutureKind
}

// DefaultPerfConfig returns the deployment configuration {120, Ŝ}.
func DefaultPerfConfig() PerfConfig {
	return PerfConfig{
		Hidden:      24,
		BlockDim:    48,
		Dropout:     0.1,
		LR:          1.5e-3,
		Epochs:      14,
		Batch:       32,
		Seed:        1,
		TrainFuture: Future120Actual,
		EvalFuture:  FuturePredicted,
	}
}

// PerfModel is the universal performance predictor — one instance for all
// BE applications and one for all LC applications (paper §V-B2).
type PerfModel struct {
	Cfg PerfConfig
	// sigs is atomic because the online learning loop Rebinds a promoted
	// candidate to the live signature store while replica shards may still
	// be predicting through it (DESIGN.md §13/§14): readers load the
	// pointer once per operation, writers swing it with one Store.
	sigs atomic.Pointer[SignatureStore]

	encS    *nn.SeqEncoder // encodes the past system state S
	encK    *nn.SeqEncoder // encodes the application signature k
	head    *nn.Sequential
	normIn  *dataset.Normalizer // metric-space normalizer (S, Ŝ, k rows)
	normOut *dataset.Normalizer // scalar target normalizer
	trained bool
	bat     perfBatch // batched training arena (batch.go); never cloned or saved
	inf     perfInfer // inference cache and scratch (infer.go); never cloned or saved
}

// NewPerfModel builds the twin-encoder architecture.
func NewPerfModel(cfg PerfConfig, sigs *SignatureStore) *PerfModel {
	rng := randutil.New(cfg.Seed)
	m := &PerfModel{Cfg: cfg}
	m.sigs.Store(sigs)
	m.encS = nn.NewSeqEncoder(memsys.NumMetrics, cfg.Hidden, 2, rng)
	m.encK = nn.NewSeqEncoder(memsys.NumMetrics, cfg.Hidden, 2, rng.Split(7))
	hiddenDim := 2*cfg.Hidden + 1 + memsys.NumMetrics
	m.head = nn.NewSequential(
		nn.NonLinearBlock(hiddenDim, cfg.BlockDim, cfg.Dropout, rng.Split(1)),
		nn.NonLinearBlock(cfg.BlockDim, cfg.BlockDim, cfg.Dropout, rng.Split(2)),
		nn.NonLinearBlock(cfg.BlockDim, cfg.BlockDim, cfg.Dropout, rng.Split(3)),
		nn.NewDense(cfg.BlockDim, 1, rng.Split(4)),
	)
	return m
}

// Params returns all trainable parameters.
func (m *PerfModel) Params() []*nn.Param {
	out := append(m.encS.Params(), m.encK.Params()...)
	return append(out, m.head.Params()...)
}

// sigStore returns the current signature store (one atomic load).
func (m *PerfModel) sigStore() *SignatureStore { return m.sigs.Load() }

// cloneWith deep-copies the network, sharing the config, signature store,
// and the fitted normalizers (all read-only after Fit). rng seeds the
// clone's dropout streams.
func (m *PerfModel) cloneWith(rng *randutil.Source) *PerfModel {
	c := &PerfModel{
		Cfg:     m.Cfg,
		encS:    m.encS.Clone(rng),
		encK:    m.encK.Clone(rng),
		head:    m.head.CloneSeq(rng),
		normIn:  m.normIn,
		normOut: m.normOut,
		trained: m.trained,
	}
	c.sigs.Store(m.sigs.Load())
	return c
}

// Clone returns a deep, independent copy of the model sharing no mutable
// state with the original, so the copy can Predict (or train) concurrently
// with it.
func (m *PerfModel) Clone() *PerfModel {
	return m.cloneWith(randutil.New(m.Cfg.Seed).Split(0xc2))
}

// Rebind points the model's signature lookups at a different store. The
// online learning loop fits a candidate against a point-in-time snapshot
// (so training never races with live captures) and rebinds it to the live
// store at promotion, so applications cold-started after the snapshot
// resolve once their signatures land. The swing is atomic: inference on a
// replica shard may overlap a Rebind and sees either the old or the new
// store, never a torn pointer. The signature-embedding cache is keyed by the
// old store's slices, none of which the new store holds; the next prediction
// sees the store changed and drops it (perfInfer.resolveSigs).
func (m *PerfModel) Rebind(sigs *SignatureStore) { m.sigs.Store(sigs) }

// Fit trains on the samples selected by trainIdx, using Cfg.TrainFuture as
// the Ŝ source, sharding each minibatch across Cfg.Workers replicas
// (sequentially for Workers ≤ 1) and running each shard as lockstep batches
// (batchStep).
func (m *PerfModel) Fit(samples []PerfSample, trainIdx []int) error {
	if len(trainIdx) == 0 {
		return fmt.Errorf("models: empty training set")
	}
	var metricRows []mathx.Vector
	var targets []mathx.Vector
	for _, i := range trainIdx {
		s := &samples[i]
		metricRows = append(metricRows, logSeq(s.Past)...)
		if f := s.Future(m.Cfg.TrainFuture); f != nil {
			metricRows = append(metricRows, logVec(f))
		}
		// Targets are positive and ratio-scaled (execution times stretch
		// multiplicatively under interference), so train in log space.
		targets = append(targets, mathx.Vector{math.Log(s.Perf)})
	}
	sigs := m.sigStore()
	for _, name := range sigs.Names() {
		sig, _ := sigs.Get(name)
		metricRows = append(metricRows, logSeq(sig.Steps)...)
	}
	m.normIn = dataset.FitNormalizer(metricRows)
	m.normOut = dataset.FitNormalizer(targets)
	m.inf.dropCache() // the normalizer and the weights are about to move

	rng := randutil.New(m.Cfg.Seed).Split(0xbee)
	tr := nn.NewTrainer(nn.NewAdam(m.Cfg.LR), m.Cfg.Batch, m.Params())
	register := func(rep *PerfModel) {
		tr.AddBatchReplica(rep.Params(), rep.batchStep(samples, trainIdx))
	}
	if W := trainWorkers(m.Cfg.Workers); W <= 1 {
		register(m)
	} else {
		repRng := randutil.New(m.Cfg.Seed).Split(0x9a9)
		for w := 0; w < W; w++ {
			register(m.cloneWith(repRng.Split(int64(w))))
		}
	}
	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		if _, err := tr.Epoch(rng.Shuffle(len(trainIdx))); err != nil {
			return err
		}
	}
	m.trained = true
	return nil
}

// Predict returns the predicted performance for one sample using the
// configured evaluation Ŝ source.
func (m *PerfModel) Predict(s *PerfSample) (float64, error) {
	return m.PredictWith(s, m.Cfg.EvalFuture)
}

// PredictWith predicts using an explicit Ŝ source: PredictEachInto over
// one sample.
func (m *PerfModel) PredictWith(s *PerfSample, kind FutureKind) (float64, error) {
	var pred [1]float64
	var err [1]error
	m.PredictEachInto([]PerfSample{*s}, kind, pred[:], err[:])
	return pred[0], err[0]
}

// PerfEval summarizes evaluation of the performance model.
type PerfEval struct {
	R2        float64
	R2Local   float64
	R2Remote  float64
	MAEByApp  map[string]float64
	Actual    mathx.Vector
	Predicted mathx.Vector
}

// Evaluate computes R² (overall and per mode) and per-app MAE on testIdx.
func (m *PerfModel) Evaluate(samples []PerfSample, testIdx []int) (PerfEval, error) {
	return m.EvaluateWith(samples, testIdx, m.Cfg.EvalFuture)
}

func (m *PerfModel) inferShape() (int, *dataset.Normalizer, *dataset.Normalizer) {
	return m.Cfg.Hidden, m.normIn, m.normOut
}
func (m *PerfModel) encodePast(x []*mathx.Matrix) *mathx.Matrix { return m.encS.EncodeBatch(x, false) }
func (m *PerfModel) encodeSig(x []*mathx.Matrix) *mathx.Matrix  { return m.encK.EncodeBatch(x, false) }
func (m *PerfModel) forwardHead(x *mathx.Matrix) *mathx.Matrix  { return m.head.ForwardBatch(x, false) }

// PredictEachInto predicts every sample into preds/errs (caller-owned, both
// len(samples)) on this instance's arena, through the inference path the
// int8 twin shares (perfInfer.predictEachInto: per-sample errors, one
// minibatch per past length, windows and signatures encoded once). The
// batched kernels are bit-identical per sample, so results do not depend on
// how samples are batched, cached or not. Steady-state calls do not
// allocate.
func (m *PerfModel) PredictEachInto(samples []PerfSample, kind FutureKind, preds mathx.Vector, errs []error) {
	if !m.trained {
		err := fmt.Errorf("models: PerfModel.Predict before Fit/Load")
		for i := range errs {
			preds[i], errs[i] = 0, err
		}
		return
	}
	m.inf.predictEachInto(m, m.sigStore(), samples, kind, preds, errs)
}

// PredictEach is PredictEachInto into freshly allocated results, for
// callers that keep them. Admission-sized batches run on the calling
// goroutine; large sweeps shard contiguous chunks across model clones (see
// batchWorkers), each chunk one PredictEachInto on its clone.
func (m *PerfModel) PredictEach(samples []PerfSample, kind FutureKind) (mathx.Vector, []error) {
	preds := mathx.NewVector(len(samples))
	errs := make([]error, len(samples))
	W := batchWorkers(len(samples))
	if W <= 1 || !m.trained {
		m.PredictEachInto(samples, kind, preds, errs)
		return preds, errs
	}
	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		lo, hi := w*len(samples)/W, (w+1)*len(samples)/W
		if lo == hi {
			continue
		}
		rep := m
		if w > 0 {
			rep = m.Clone()
		}
		wg.Add(1)
		go func(rep *PerfModel, lo, hi int) {
			defer wg.Done()
			rep.PredictEachInto(samples[lo:hi], kind, preds[lo:hi], errs[lo:hi])
		}(rep, lo, hi)
	}
	wg.Wait()
	return preds, errs
}

// predictBatch runs the selected indices through the lockstep-batched
// PredictEach. The first error, scanned in index order, aborts the batch —
// the evaluation-harness contract.
func (m *PerfModel) predictBatch(samples []PerfSample, idx []int, kind FutureKind) (mathx.Vector, error) {
	if !m.trained {
		return nil, fmt.Errorf("models: PerfModel.Predict before Fit/Load")
	}
	sub := make([]PerfSample, len(idx))
	for k, i := range idx {
		sub[k] = samples[i]
	}
	preds, errs := m.PredictEach(sub, kind)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return preds, nil
}

// PredictBatch predicts every sample using the configured evaluation Ŝ
// source through the lockstep-batched forward. Results are bit-identical
// to sequential Predict calls. Serving callers use it to amortize a whole
// admission batch over one batched inference per perf model.
func (m *PerfModel) PredictBatch(samples []PerfSample) (mathx.Vector, error) {
	return m.PredictBatchWith(samples, m.Cfg.EvalFuture)
}

// PredictBatchWith is PredictBatch with an explicit Ŝ source.
func (m *PerfModel) PredictBatchWith(samples []PerfSample, kind FutureKind) (mathx.Vector, error) {
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	return m.predictBatch(samples, idx, kind)
}

// EvaluateWith evaluates using an explicit Ŝ source.
func (m *PerfModel) EvaluateWith(samples []PerfSample, testIdx []int, kind FutureKind) (PerfEval, error) {
	ev := PerfEval{MAEByApp: make(map[string]float64)}
	var aLoc, pLoc, aRem, pRem mathx.Vector
	sumAbs := make(map[string]float64)
	count := make(map[string]int)
	preds, err := m.predictBatch(samples, testIdx, kind)
	if err != nil {
		return ev, err
	}
	for k, i := range testIdx {
		s := &samples[i]
		pred := preds[k]
		ev.Actual = append(ev.Actual, s.Perf)
		ev.Predicted = append(ev.Predicted, pred)
		if s.Remote == 1 {
			aRem = append(aRem, s.Perf)
			pRem = append(pRem, pred)
		} else {
			aLoc = append(aLoc, s.Perf)
			pLoc = append(pLoc, pred)
		}
		sumAbs[s.App] += math.Abs(pred - s.Perf)
		count[s.App]++
	}
	ev.R2 = mathx.R2(ev.Actual, ev.Predicted)
	if len(aLoc) > 1 {
		ev.R2Local = mathx.R2(aLoc, pLoc)
	}
	if len(aRem) > 1 {
		ev.R2Remote = mathx.R2(aRem, pRem)
	}
	for app, s := range sumAbs {
		ev.MAEByApp[app] = s / float64(count[app])
	}
	return ev, nil
}

// Save writes the trained weights and normalizers.
func (m *PerfModel) Save(w io.Writer) error {
	if !m.trained {
		return fmt.Errorf("models: cannot save untrained PerfModel")
	}
	return saveModel(w, m.normIn, m.normOut, m.Params())
}

// Load restores a model saved with Save into this (same-config, same
// signature store) instance.
func (m *PerfModel) Load(r io.Reader) error {
	normIn, normOut, err := loadModel(r, m.Params())
	if err != nil {
		return err
	}
	m.normIn, m.normOut = normIn, normOut
	m.inf.dropCache()
	m.trained = true
	return nil
}
