package models

import (
	"fmt"
	"math"

	"adrias/internal/dataset"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/nn"
)

// Batched staging and the lockstep forward/backward both models train and
// forecast through. A minibatch of windows is staged into lockstep matrices
// (rows are samples) and run through the nn batched path — one GEMM pipeline
// per layer instead of a per-sample loop. Row b of every staged matrix is
// produced by exactly the floating-point operations a per-sample path
// applies to sample b (log1p → z-score in the same order), and the nn layers
// are bit-identical per sample in both directions, gradients included, so a
// shard trained as lockstep groups leaves the weights a per-sample loop over
// the shard would. Groups are maximal runs of consecutive samples with equal
// sequence lengths, never regrouped out of order: the gradient sum keeps the
// shard's sample order. The staging buffers live in per-model scratch arenas
// (mathx.EnsureMatrix): steady state at a fixed batch size performs no
// allocations. Scratch never reaches Clone or the gob wire format. The
// performance model's inference path is in infer.go.

// sysBatch is SysStateModel's batched staging arena.
type sysBatch struct {
	one   [1][]mathx.Vector // PredictInto's batch of one window
	xs    []*mathx.Matrix   // [B×M] normalized log inputs, one per step
	headX *mathx.Matrix     // [B×(H+M)] encoder state ‖ normalized history mean
	dY    *mathx.Matrix     // [B×M] training loss gradient
	dh    *mathx.Matrix     // [B×H] gradient slice handed to the encoder
}

// uniformLen returns the shared window length, or -1 when the windows are
// ragged (mixed lengths cannot run in lockstep).
func uniformLen(pasts [][]mathx.Vector) int {
	T := len(pasts[0])
	for _, p := range pasts[1:] {
		if len(p) != T {
			return -1
		}
	}
	return T
}

// stageWindow writes the normalized log history of one window into row b of
// the per-step input matrices and accumulates the log-space history mean
// into skip (the head's skip connection, z-scored) — the op sequence of
// TransformSeq(logSeq(past)) and Transform(mean of the log rows), inlined to
// stay allocation-free.
func stageWindow(xs []*mathx.Matrix, b int, past []mathx.Vector, norm *dataset.Normalizer, skip mathx.Vector) {
	for j := range skip {
		skip[j] = 0
	}
	for t, raw := range past {
		row := xs[t].Row(b)
		for j, x := range raw {
			if x < 0 {
				x = 0
			}
			lg := math.Log1p(x)
			skip[j] += lg
			row[j] = (lg - norm.Mean[j]) / norm.Std[j]
		}
	}
	inv := 1 / float64(len(past))
	for j := range skip {
		skip[j] *= inv
		skip[j] = (skip[j] - norm.Mean[j]) / norm.Std[j]
	}
}

// forecastBatch runs the batched forward pass over uniform-length windows
// and returns the normalized log-space predictions, one row per window,
// arena-owned (valid until the next batched call on this model).
func (m *SysStateModel) forecastBatch(pasts [][]mathx.Vector, train bool) *mathx.Matrix {
	B, T := len(pasts), len(pasts[0])
	H, M := m.Cfg.Hidden, memsys.NumMetrics
	s := &m.bat
	s.xs = mathx.EnsureMatrices(s.xs, T, B, M)
	s.headX = mathx.EnsureMatrix(s.headX, B, H+M)
	for b, past := range pasts {
		stageWindow(s.xs, b, past, m.normIn, s.headX.Row(b)[H:])
	}
	h := m.enc.EncodeBatch(s.xs, train)
	for b := 0; b < B; b++ {
		copy(s.headX.Row(b)[:H], h.Row(b))
	}
	return m.head.ForwardBatch(s.headX, train)
}

// forecastInverse maps one row of normalized log-space model output back to
// raw metric units: z-score⁻¹ → expm1, clamped at zero — the op sequence of
// expVec(normOut.Inverse(y)), shared by the float and int8 forecasts.
func forecastInverse(dst, y mathx.Vector, normOut *dataset.Normalizer) {
	for j, v := range y {
		e := math.Expm1(v*normOut.Std[j] + normOut.Mean[j])
		if e < 0 {
			e = 0
		}
		dst[j] = e
	}
}

// PredictInto forecasts the horizon mean of every metric from one history
// window (raw metric units in, raw units out) into dst, length
// memsys.NumMetrics: a lockstep batch of one over the model's arena, so
// after the first call at a window length it allocates nothing. Like every
// arena user it serves one caller at a time.
func (m *SysStateModel) PredictInto(dst mathx.Vector, past []mathx.Vector) {
	if !m.trained {
		panic("models: SysStateModel.Predict before Fit/Load")
	}
	m.bat.one[0] = past
	y := m.forecastBatch(m.bat.one[:], false).Row(0)
	m.bat.one[0] = nil
	forecastInverse(dst, y, m.normOut)
}

// forecastInto is the batched inference core behind PredictBatch: one
// lockstep forward, then the inverse transform into freshly allocated
// output rows sharing one backing array.
func (m *SysStateModel) forecastInto(out []mathx.Vector, pasts [][]mathx.Vector) {
	Y := m.forecastBatch(pasts, false)
	M := memsys.NumMetrics
	buf := mathx.NewVector(len(out) * M)
	for b := range out {
		out[b] = buf[b*M : (b+1)*M]
		forecastInverse(out[b], Y.Row(b), m.normOut)
	}
}

// batchStep returns the shard-at-a-time closure the trainer drives
// (Trainer.AddBatchReplica): one lockstep forward/backward per run of
// equal-length windows (every shard is one run unless windows are ragged),
// leaving the gradients a per-sample loop over the shard would.
func (m *SysStateModel) batchStep(windows []dataset.Window, idx []int) func([]int) (float64, error) {
	pasts := make([][]mathx.Vector, 0, m.Cfg.Batch)
	return func(shard []int) (float64, error) {
		pasts = pasts[:0]
		for _, pi := range shard {
			pasts = append(pasts, windows[idx[pi]].Past)
		}
		var total float64
		for lo := 0; lo < len(shard); {
			hi := lo + 1
			for hi < len(shard) && len(pasts[hi]) == len(pasts[lo]) {
				hi++
			}
			total = m.trainRun(total, windows, idx, shard[lo:hi], pasts[lo:hi])
			lo = hi
		}
		return total, nil
	}
}

// trainRun is one lockstep forward/backward over a run of equal-length
// windows (shard positions run, their pasts). It adds each sample's loss to
// total in order and returns the sum.
func (m *SysStateModel) trainRun(total float64, windows []dataset.Window, idx, run []int, pasts [][]mathx.Vector) float64 {
	B, H := len(run), m.Cfg.Hidden
	Y := m.forecastBatch(pasts, true)
	s := &m.bat
	s.dY = mathx.EnsureMatrix(s.dY, B, memsys.NumMetrics)
	for k, pi := range run {
		target := m.normOut.Transform(logVec(windows[idx[pi]].FutureMean))
		loss, g := nn.MSELoss(Y.Row(k), target)
		total += loss
		copy(s.dY.Row(k), g)
	}
	dX := m.head.BackwardBatch(s.dY)
	s.dh = mathx.EnsureMatrix(s.dh, B, H)
	for b := 0; b < B; b++ {
		copy(s.dh.Row(b), dX.Row(b)[:H])
	}
	m.enc.BackwardFromLastBatch(s.dh)
	return total
}

// perfBatch is PerfModel's batched training arena.
type perfBatch struct {
	xsS   []*mathx.Matrix // [B×M] past-window steps
	xsK   []*mathx.Matrix // [B×M] signature steps
	headX *mathx.Matrix   // [B×(2H+1+M)]
	dY    *mathx.Matrix   // [B×1]
	dhS   *mathx.Matrix   // [B×H]
	dhK   *mathx.Matrix   // [B×H]
}

// stageSeq writes the normalized log sequence into row b of the per-step
// matrices — TransformSeq(logSeq(seq)) inlined, no skip-mean.
func stageSeq(xs []*mathx.Matrix, b int, seq []mathx.Vector, norm *dataset.Normalizer) {
	for t, raw := range seq {
		row := xs[t].Row(b)
		for j, x := range raw {
			if x < 0 {
				x = 0
			}
			row[j] = (math.Log1p(x) - norm.Mean[j]) / norm.Std[j]
		}
	}
}

// stageFuture writes the normalized log Ŝ vector into the head-input slot
// dst, or zeros when there is none (FutureNone) — Transform(logVec(future))
// inlined.
func stageFuture(dst, future mathx.Vector, norm *dataset.Normalizer) {
	if future == nil {
		for j := range dst {
			dst[j] = 0
		}
		return
	}
	for j, v := range future {
		if v < 0 {
			v = 0
		}
		dst[j] = (math.Log1p(v) - norm.Mean[j]) / norm.Std[j]
	}
}

// seqKey identifies a sequence by slice identity (first-row address and
// length): two samples referencing the same window or signature slice are
// literally the same input, with no element comparison needed. Encoding is
// a pure function of the input bits, so the inference path encodes each
// identity once and scatters the resulting rows.
type seqKey struct {
	first *mathx.Vector
	n     int
}

func seqID(s []mathx.Vector) seqKey { return seqKey{&s[0], len(s)} }

// forwardGroup runs the twin-encoder training forward for a group of
// samples that share a past length and a signature length (the lockstep
// requirement). Every sample is encoded on its own row, repeats included,
// so each pushes its own gradients through the encoders. futures[k] may be
// nil (FutureNone). The returned [B×1] predictions are arena-owned.
func (m *PerfModel) forwardGroup(group []*PerfSample, sigSteps [][]mathx.Vector, futures []mathx.Vector) *mathx.Matrix {
	B := len(group)
	Ts, Tk := len(group[0].Past), len(sigSteps[0])
	H, M := m.Cfg.Hidden, memsys.NumMetrics
	s := &m.bat
	s.xsS = mathx.EnsureMatrices(s.xsS, Ts, B, M)
	s.xsK = mathx.EnsureMatrices(s.xsK, Tk, B, M)
	for k, sm := range group {
		stageSeq(s.xsS, k, sm.Past, m.normIn)
		stageSeq(s.xsK, k, sigSteps[k], m.normIn)
	}
	hS := m.encS.EncodeBatch(s.xsS, true)
	hK := m.encK.EncodeBatch(s.xsK, true)
	s.headX = mathx.EnsureMatrix(s.headX, B, 2*H+1+M)
	for k, sm := range group {
		x := s.headX.Row(k)
		copy(x[:H], hS.Row(k))
		copy(x[H:2*H], hK.Row(k))
		x[2*H] = sm.Remote
		stageFuture(x[2*H+1:], futures[k], m.normIn)
	}
	return m.head.ForwardBatch(s.headX, true)
}

// batchStep returns PerfModel's shard-at-a-time training closure
// (Trainer.AddBatchReplica). Every sample is validated first; then each
// maximal run of consecutive samples sharing a past length and a signature
// length trains as one lockstep group, in shard order.
func (m *PerfModel) batchStep(samples []PerfSample, trainIdx []int) func([]int) (float64, error) {
	var group []*PerfSample
	var sigSteps [][]mathx.Vector
	var futures []mathx.Vector
	return func(shard []int) (float64, error) {
		group, sigSteps, futures = group[:0], sigSteps[:0], futures[:0]
		sigs := m.sigStore()
		for _, pi := range shard {
			s := &samples[trainIdx[pi]]
			f := s.Future(m.Cfg.TrainFuture)
			if m.Cfg.TrainFuture != FutureNone && f == nil {
				return 0, fmt.Errorf("models: sample %s missing %v future", s.App, m.Cfg.TrainFuture)
			}
			sig, ok := sigs.Get(s.App)
			if !ok {
				return 0, fmt.Errorf("models: no signature for %q", s.App)
			}
			group = append(group, s)
			sigSteps = append(sigSteps, sig.Steps)
			futures = append(futures, f)
		}
		var total float64
		for lo := 0; lo < len(group); {
			hi := lo + 1
			for hi < len(group) && len(group[hi].Past) == len(group[lo].Past) && len(sigSteps[hi]) == len(sigSteps[lo]) {
				hi++
			}
			total = m.trainGroup(total, group[lo:hi], sigSteps[lo:hi], futures[lo:hi])
			lo = hi
		}
		return total, nil
	}
}

// trainGroup is one lockstep forward/backward over a group forwardGroup
// accepts. It adds each sample's loss to total in order and returns the sum.
func (m *PerfModel) trainGroup(total float64, group []*PerfSample, sigSteps [][]mathx.Vector, futures []mathx.Vector) float64 {
	B, H := len(group), m.Cfg.Hidden
	Y := m.forwardGroup(group, sigSteps, futures)
	s := &m.bat
	s.dY = mathx.EnsureMatrix(s.dY, B, 1)
	for j, sm := range group {
		target := m.normOut.Transform(mathx.Vector{math.Log(sm.Perf)})
		loss, g := nn.MSELoss(Y.Row(j), target)
		total += loss
		s.dY.Data[j] = g[0]
	}
	dX := m.head.BackwardBatch(s.dY)
	s.dhS = mathx.EnsureMatrix(s.dhS, B, H)
	s.dhK = mathx.EnsureMatrix(s.dhK, B, H)
	for b := 0; b < B; b++ {
		copy(s.dhS.Row(b), dX.Row(b)[:H])
		copy(s.dhK.Row(b), dX.Row(b)[H:2*H])
	}
	m.encS.BackwardFromLastBatch(s.dhS)
	m.encK.BackwardFromLastBatch(s.dhK)
	return total
}
