package core

import (
	"context"

	"adrias/internal/mathx"
	"adrias/internal/models"
)

// QuantPredictor is the int8 inference twin of Predictor: the same
// PerfInference surface and the same prediction body (predictArena) over
// frozen quantized models (models.Quantize*). Stack it on an Orchestrator
// via Infer; the float Predictor stays in Pred for signature lookups and
// capture.
//
// Contract: no bit-identity with the float path. Predictions track the
// float models within the int8 resolution budget; the system-level check is
// the decision-flip rate of the experiments replay harness (DESIGN.md §12).
// Not safe for concurrent use.
type QuantPredictor struct {
	Sys *models.QuantSysStateModel
	BE  *models.QuantPerfModel
	LC  *models.QuantPerfModel

	// sigs and stats key and count the memo; both come from the float
	// predictor this twin was frozen from.
	sigs  *models.SignatureStore
	stats *MemoStats
	arena predictArena
}

// NewQuantPredictor freezes a trained float predictor into its int8 twin.
// Class models the float predictor lacks stay nil (their queries error, as
// on the float path).
func NewQuantPredictor(p *Predictor) *QuantPredictor {
	q := &QuantPredictor{
		Sys:   models.QuantizeSysState(p.Sys),
		sigs:  p.Sigs,
		stats: p.Memo,
	}
	if p.BE != nil {
		q.BE = models.QuantizePerf(p.BE)
	}
	if p.LC != nil {
		q.LC = models.QuantizePerf(p.LC)
	}
	return q
}

// PredictPerfBatch implements PerfInference over the quantized models; see
// predictArena for the contract (results are arena-owned).
func (p *QuantPredictor) PredictPerfBatch(ctx context.Context, queries []PerfQuery, window []mathx.Vector) (mathx.Vector, []error) {
	return p.arena.predict(ctx, p.Sys, orNil(p.BE), orNil(p.LC), p.sigs, p.stats, queries, window)
}
