package models

import (
	"fmt"
	"math"

	"adrias/internal/dataset"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/nn"
)

// Quantized inference twins of the two models. Quantize* freezes a trained
// float model into a forward-only int8 predictor (nn.Quantize*): weights
// int8 symmetric per row, activations quantized dynamically per row, gate
// nonlinearities through interpolated LUTs. The quantized models share the
// float models' fitted normalizers and signature store (both read-only
// after Fit) but own all mutable scratch, so a quantized twin and its float
// original can serve concurrently with each other (though neither is
// itself safe for concurrent use).
//
// Accuracy contract: no bit-identity. A quantized prediction tracks its
// float counterpart within the int8 resolution budget; the system-level
// guarantee is the measured decision-flip rate of the Fig13/Fig15 replay
// harness (internal/experiments, enforced by the bench-gate CI job) and
// the Calibrate pass below.

// QuantSysStateModel is the frozen int8 twin of SysStateModel.
type QuantSysStateModel struct {
	Hidden  int
	enc     *nn.QuantSeqEncoder
	head    *nn.QuantSequential
	normIn  *dataset.Normalizer
	normOut *dataset.Normalizer

	xs    []*mathx.Matrix
	headX *mathx.Matrix
}

// QuantizeSysState freezes a trained system-state model.
func QuantizeSysState(m *SysStateModel) *QuantSysStateModel {
	if !m.trained {
		panic("models: QuantizeSysState before Fit/Load")
	}
	return &QuantSysStateModel{
		Hidden:  m.Cfg.Hidden,
		enc:     nn.QuantizeSeqEncoder(m.enc),
		head:    nn.QuantizeSequential(m.head),
		normIn:  m.normIn,
		normOut: m.normOut,
	}
}

// PredictInto forecasts the horizon mean of every metric from one history
// window into dst (length memsys.NumMetrics), allocation-free in steady
// state.
func (q *QuantSysStateModel) PredictInto(dst mathx.Vector, past []mathx.Vector) {
	T, H, M := len(past), q.Hidden, memsys.NumMetrics
	q.xs = mathx.EnsureMatrices(q.xs, T, 1, M)
	q.headX = mathx.EnsureMatrix(q.headX, 1, H+M)
	stageWindow(q.xs, 0, past, q.normIn, q.headX.Row(0)[H:])
	h := q.enc.EncodeBatch(q.xs)
	copy(q.headX.Row(0)[:H], h.Row(0))
	forecastInverse(dst, q.head.ForwardBatch(q.headX).Row(0), q.normOut)
}

// Predict is the allocating convenience wrapper around PredictInto.
func (q *QuantSysStateModel) Predict(past []mathx.Vector) mathx.Vector {
	out := mathx.NewVector(memsys.NumMetrics)
	q.PredictInto(out, past)
	return out
}

// QuantPerfModel is the frozen int8 twin of PerfModel: the same inference
// path (perfInfer — validation, window dedup, signature-embedding cache)
// over int8 encoders and head.
type QuantPerfModel struct {
	Hidden  int
	sigs    *SignatureStore
	encS    *nn.QuantSeqEncoder
	encK    *nn.QuantSeqEncoder
	head    *nn.QuantSequential
	normIn  *dataset.Normalizer
	normOut *dataset.Normalizer
	inf     perfInfer
}

// QuantizePerf freezes a trained performance model.
func QuantizePerf(m *PerfModel) *QuantPerfModel {
	if !m.trained {
		panic("models: QuantizePerf before Fit/Load")
	}
	return &QuantPerfModel{
		Hidden:  m.Cfg.Hidden,
		sigs:    m.sigStore(),
		encS:    nn.QuantizeSeqEncoder(m.encS),
		encK:    nn.QuantizeSeqEncoder(m.encK),
		head:    nn.QuantizeSequential(m.head),
		normIn:  m.normIn,
		normOut: m.normOut,
	}
}

func (q *QuantPerfModel) inferShape() (int, *dataset.Normalizer, *dataset.Normalizer) {
	return q.Hidden, q.normIn, q.normOut
}
func (q *QuantPerfModel) encodePast(xs []*mathx.Matrix) *mathx.Matrix { return q.encS.EncodeBatch(xs) }
func (q *QuantPerfModel) encodeSig(xs []*mathx.Matrix) *mathx.Matrix  { return q.encK.EncodeBatch(xs) }
func (q *QuantPerfModel) forwardHead(x *mathx.Matrix) *mathx.Matrix   { return q.head.ForwardBatch(x) }

// PredictEachInto predicts every sample into preds/errs (caller-owned, both
// len(samples)) through the shared inference path; see
// perfInfer.predictEachInto for the per-sample error contract. Steady-state
// calls with a warm signature cache and fixed shapes do not allocate.
func (q *QuantPerfModel) PredictEachInto(samples []PerfSample, kind FutureKind, preds mathx.Vector, errs []error) {
	q.inf.predictEachInto(q, q.sigs, samples, kind, preds, errs)
}

// PredictEach is the allocating convenience wrapper around PredictEachInto.
func (q *QuantPerfModel) PredictEach(samples []PerfSample, kind FutureKind) (mathx.Vector, []error) {
	preds := mathx.NewVector(len(samples))
	errs := make([]error, len(samples))
	q.PredictEachInto(samples, kind, preds, errs)
	return preds, errs
}

// CalibrationReport summarizes a float-vs-int8 calibration pass.
type CalibrationReport struct {
	N          int     // samples compared
	MeanRelErr float64 // mean |quant−float|/float
	MaxRelErr  float64
}

// Calibrate runs the calibration set through both the float original and
// the quantized twin and reports the relative prediction error — the
// model-level check behind the decision-flip contract. Samples that error
// in either path are skipped (they never reach a tier decision).
func (q *QuantPerfModel) Calibrate(float *PerfModel, samples []PerfSample, kind FutureKind) (CalibrationReport, error) {
	var rep CalibrationReport
	if len(samples) == 0 {
		return rep, fmt.Errorf("models: empty calibration set")
	}
	fp, ferrs := float.PredictEach(samples, kind)
	qp, qerrs := q.PredictEach(samples, kind)
	var sum float64
	for i := range samples {
		if ferrs[i] != nil || qerrs[i] != nil || fp[i] <= 0 {
			continue
		}
		rel := math.Abs(qp[i]-fp[i]) / fp[i]
		sum += rel
		if rel > rep.MaxRelErr {
			rep.MaxRelErr = rel
		}
		rep.N++
	}
	if rep.N == 0 {
		return rep, fmt.Errorf("models: no calibration sample survived both paths")
	}
	rep.MeanRelErr = sum / float64(rep.N)
	return rep, nil
}
