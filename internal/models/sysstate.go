package models

import (
	"fmt"
	"io"
	"sync"

	"adrias/internal/dataset"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/nn"
	"adrias/internal/randutil"
)

// SysStateConfig configures the system-state prediction model
// (Fig. 11a: 2 LSTM layers → 3 non-linear blocks → linear output).
type SysStateConfig struct {
	Hidden   int     // LSTM hidden size
	BlockDim int     // width of the non-linear blocks
	Dropout  float64 // dropout rate inside the blocks
	LR       float64
	Epochs   int
	Batch    int
	Seed     int64
	// Workers sets the training worker-pool size. n ≥ 2 shards each
	// minibatch across n model replicas with a deterministic ordered
	// gradient reduction (seed-reproducible for a fixed n, but the
	// per-sample gradients sum in a different order than sequentially);
	// 0 or 1 trains sequentially, bit-identical to the pre-parallel
	// trainer. Batch inference always batches — see PredictBatch.
	Workers int
}

// DefaultSysStateConfig returns a configuration that trains in seconds on
// the simulated corpus while reaching high R².
func DefaultSysStateConfig() SysStateConfig {
	return SysStateConfig{
		Hidden:   32,
		BlockDim: 64,
		Dropout:  0.1,
		LR:       1e-3,
		Epochs:   12,
		Batch:    32,
		Seed:     1,
	}
}

// SysStateModel forecasts the per-metric horizon mean from the history
// window. Construct with NewSysStateModel, then Fit before Predict.
type SysStateModel struct {
	Cfg     SysStateConfig
	enc     *nn.SeqEncoder
	head    *nn.Sequential
	normIn  *dataset.Normalizer
	normOut *dataset.Normalizer
	trained bool
	bat     sysBatch // batched staging arena (batch.go); never cloned or saved
}

// NewSysStateModel builds the architecture for the standard 7-metric input.
// The head receives the encoder state concatenated with the history-window
// mean (a skip connection): the horizon mean is strongly anchored to the
// recent level, so the network only has to learn the correction — this
// stabilizes training and lifts raw-space R² markedly.
func NewSysStateModel(cfg SysStateConfig) *SysStateModel {
	rng := randutil.New(cfg.Seed)
	m := &SysStateModel{Cfg: cfg}
	m.enc = nn.NewSeqEncoder(memsys.NumMetrics, cfg.Hidden, 2, rng)
	m.head = nn.NewSequential(
		nn.NonLinearBlock(cfg.Hidden+memsys.NumMetrics, cfg.BlockDim, cfg.Dropout, rng.Split(1)),
		nn.NonLinearBlock(cfg.BlockDim, cfg.BlockDim, cfg.Dropout, rng.Split(2)),
		nn.NonLinearBlock(cfg.BlockDim, cfg.BlockDim, cfg.Dropout, rng.Split(3)),
		nn.NewDense(cfg.BlockDim, memsys.NumMetrics, rng.Split(4)),
	)
	return m
}

// Params returns all trainable parameters.
func (m *SysStateModel) Params() []*nn.Param {
	return append(m.enc.Params(), m.head.Params()...)
}

// cloneWith deep-copies the network, sharing the config, and the fitted
// normalizers (read-only after Fit). rng seeds the clone's dropout stream.
func (m *SysStateModel) cloneWith(rng *randutil.Source) *SysStateModel {
	return &SysStateModel{
		Cfg:     m.Cfg,
		enc:     m.enc.Clone(rng),
		head:    m.head.CloneSeq(rng),
		normIn:  m.normIn,
		normOut: m.normOut,
		trained: m.trained,
	}
}

// Clone returns a deep, independent copy of the model sharing no mutable
// state with the original, so the copy can Predict (or train) concurrently
// with it.
func (m *SysStateModel) Clone() *SysStateModel {
	return m.cloneWith(randutil.New(m.Cfg.Seed).Split(0xc1))
}

// Fit trains the model on the windows selected by trainIdx, sharding each
// minibatch across Cfg.Workers replicas (sequentially for Workers ≤ 1) and
// running each shard as lockstep batches (batchStep).
func (m *SysStateModel) Fit(windows []dataset.Window, trainIdx []int) error {
	if len(trainIdx) == 0 {
		return fmt.Errorf("models: empty training set")
	}
	// Fit normalizers on the training rows only, in log1p space (the
	// monitored counters are heavy-tailed).
	var inRows, outRows []mathx.Vector
	for _, i := range trainIdx {
		inRows = append(inRows, logSeq(windows[i].Past)...)
		outRows = append(outRows, logVec(windows[i].FutureMean))
	}
	m.normIn = dataset.FitNormalizer(inRows)
	m.normOut = dataset.FitNormalizer(outRows)

	rng := randutil.New(m.Cfg.Seed).Split(0x7ea)
	idx := append([]int(nil), trainIdx...)
	tr := nn.NewTrainer(nn.NewAdam(m.Cfg.LR), m.Cfg.Batch, m.Params())
	register := func(rep *SysStateModel) {
		tr.AddBatchReplica(rep.Params(), rep.batchStep(windows, idx))
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
		if _, err := tr.Epoch(rng.Shuffle(len(idx))); err != nil {
			return err
		}
	}
	m.trained = true
	return nil
}

// Predict is PredictInto into a freshly allocated vector, for callers that
// keep the forecast.
func (m *SysStateModel) Predict(past []mathx.Vector) mathx.Vector {
	out := mathx.NewVector(memsys.NumMetrics)
	m.PredictInto(out, past)
	return out
}

// PredictBatch forecasts every history window through the lockstep-batched
// forward: the windows are staged as one minibatch per worker and each
// layer runs one GEMM instead of a GEMV per window. Inference is
// deterministic and bit-identical per sample whatever the batch size, so
// the result equals Predict on each window bit for bit — only the wall time
// changes. Admission-sized batches run as
// a single batched call on the calling goroutine; large sweeps shard
// contiguous chunks across model clones (see batchWorkers). Ragged window
// lengths fall back to per-window Predict calls.
func (m *SysStateModel) PredictBatch(pasts [][]mathx.Vector) []mathx.Vector {
	if !m.trained {
		panic("models: SysStateModel.PredictBatch before Fit/Load")
	}
	out := make([]mathx.Vector, len(pasts))
	if len(pasts) == 0 {
		return out
	}
	if uniformLen(pasts) < 0 {
		for i, p := range pasts {
			out[i] = m.Predict(p)
		}
		return out
	}
	W := batchWorkers(len(pasts))
	if W <= 1 {
		m.forecastInto(out, pasts)
		return out
	}
	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		lo, hi := w*len(pasts)/W, (w+1)*len(pasts)/W
		if lo == hi {
			continue
		}
		rep := m
		if w > 0 {
			rep = m.Clone()
		}
		wg.Add(1)
		go func(rep *SysStateModel, lo, hi int) {
			defer wg.Done()
			rep.forecastInto(out[lo:hi], pasts[lo:hi])
		}(rep, lo, hi)
	}
	wg.Wait()
	return out
}

// EvalResult holds per-metric evaluation of the system-state model. R² is
// reported both on the raw counter scale (as in the paper's Table I) and in
// log1p space: the simulated substrate produces heavier congestion tails
// than the real testbed, and raw-scale R² is dominated by those few extreme
// windows while the log-scale score reflects accuracy across the range.
type EvalResult struct {
	R2PerMetric    mathx.Vector // raw scale, one per monitored event
	R2Avg          float64
	R2LogPerMetric mathx.Vector // log1p scale
	R2LogAvg       float64
	Actual         []mathx.Vector // per test window
	Predicted      []mathx.Vector
}

// Evaluate computes Table I-style per-metric R² on the given test windows.
func (m *SysStateModel) Evaluate(windows []dataset.Window, testIdx []int) EvalResult {
	res := EvalResult{
		R2PerMetric:    mathx.NewVector(memsys.NumMetrics),
		R2LogPerMetric: mathx.NewVector(memsys.NumMetrics),
	}
	actualCols := make([]mathx.Vector, memsys.NumMetrics)
	predCols := make([]mathx.Vector, memsys.NumMetrics)
	actualLog := make([]mathx.Vector, memsys.NumMetrics)
	predLog := make([]mathx.Vector, memsys.NumMetrics)
	pasts := make([][]mathx.Vector, len(testIdx))
	for k, i := range testIdx {
		pasts[k] = windows[i].Past
	}
	preds := m.PredictBatch(pasts)
	for k, i := range testIdx {
		pred := preds[k]
		res.Actual = append(res.Actual, windows[i].FutureMean.Clone())
		res.Predicted = append(res.Predicted, pred)
		la, lp := logVec(windows[i].FutureMean), logVec(pred)
		for j := 0; j < memsys.NumMetrics; j++ {
			actualCols[j] = append(actualCols[j], windows[i].FutureMean[j])
			predCols[j] = append(predCols[j], pred[j])
			actualLog[j] = append(actualLog[j], la[j])
			predLog[j] = append(predLog[j], lp[j])
		}
	}
	var sum, sumLog float64
	for j := 0; j < memsys.NumMetrics; j++ {
		res.R2PerMetric[j] = mathx.R2(actualCols[j], predCols[j])
		res.R2LogPerMetric[j] = mathx.R2(actualLog[j], predLog[j])
		sum += res.R2PerMetric[j]
		sumLog += res.R2LogPerMetric[j]
	}
	res.R2Avg = sum / memsys.NumMetrics
	res.R2LogAvg = sumLog / memsys.NumMetrics
	return res
}

// Save writes the trained weights and normalizers.
func (m *SysStateModel) Save(w io.Writer) error {
	if !m.trained {
		return fmt.Errorf("models: cannot save untrained SysStateModel")
	}
	return saveModel(w, m.normIn, m.normOut, m.Params())
}

// Load restores a model saved with Save into this (same-config) instance.
func (m *SysStateModel) Load(r io.Reader) error {
	normIn, normOut, err := loadModel(r, m.Params())
	if err != nil {
		return err
	}
	m.normIn, m.normOut = normIn, normOut
	m.trained = true
	return nil
}
