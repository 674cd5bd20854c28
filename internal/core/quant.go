package core

import (
	"context"
	"fmt"

	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/models"
	"adrias/internal/obs"
)

// QuantPredictor is the int8 inference twin of Predictor: the same
// PerfInference surface over frozen quantized models (models.Quantize*),
// with all per-batch state in owned arenas so steady-state batches at a
// fixed shape allocate nothing. Stack it on an Orchestrator via Infer; the
// float Predictor stays in Pred for signature lookups and capture.
//
// Contract: no bit-identity with the float path. Predictions track the
// float models within the int8 resolution budget; the system-level check is
// the decision-flip rate of the experiments replay harness (DESIGN.md §12).
// The returned preds/errs slices are arena-owned — valid until the next
// PredictPerfBatch call. Not safe for concurrent use.
type QuantPredictor struct {
	Sys *models.QuantSysStateModel
	BE  *models.QuantPerfModel
	LC  *models.QuantPerfModel

	// sigs and stats key and count the memo (see Predictor.PredictPerfBatch);
	// both come from the float predictor this twin was frozen from.
	sigs  *models.SignatureStore
	stats *MemoStats
	memo  predMemo

	fut          mathx.Vector
	preds        mathx.Vector
	errs         []error
	beS, lcS     []models.PerfSample
	beIdx, lcIdx []int
	clsP         mathx.Vector
	clsE         []error
}

// NewQuantPredictor freezes a trained float predictor into its int8 twin.
// Class models the float predictor lacks stay nil (their queries error, as
// on the float path).
func NewQuantPredictor(p *Predictor) *QuantPredictor {
	q := &QuantPredictor{
		Sys:   models.QuantizeSysState(p.Sys),
		sigs:  p.Sigs,
		stats: p.Memo,
		fut:   mathx.NewVector(memsys.NumMetrics),
	}
	if p.BE != nil {
		q.BE = models.QuantizePerf(p.BE)
	}
	if p.LC != nil {
		q.LC = models.QuantizePerf(p.LC)
	}
	return q
}

// PredictPerfBatch implements PerfInference over the quantized models:
// memo hits first, then for the missed queries one int8 Ŝ forecast shared by
// all of them and one batched int8 inference per class. Results and errors
// are per-query and arena-owned.
func (p *QuantPredictor) PredictPerfBatch(ctx context.Context, queries []PerfQuery, window []mathx.Vector) (mathx.Vector, []error) {
	n := len(queries)
	if cap(p.preds) < n {
		p.preds = mathx.NewVector(n)
		p.errs = make([]error, n)
		p.clsP = mathx.NewVector(n)
		p.clsE = make([]error, n)
	}
	p.preds = p.preds[:n]
	p.errs = p.errs[:n]
	for i := range p.preds {
		p.preds[i] = 0
		p.errs[i] = nil
	}
	if n == 0 {
		return p.preds, p.errs
	}
	if len(window) == 0 {
		err := fmt.Errorf("core: empty history window")
		for i := range p.errs {
			p.errs[i] = err
		}
		return p.preds, p.errs
	}
	miss := p.memo.lookup(p.stats, p.sigs, window, queries, p.preds)
	if len(miss) == 0 {
		return p.preds, p.errs
	}
	endSys := obs.StartSpan(ctx, "sysstate_predict")
	p.Sys.PredictInto(p.fut, window)
	endSys()

	p.beS, p.lcS = p.beS[:0], p.lcS[:0]
	p.beIdx, p.lcIdx = p.beIdx[:0], p.lcIdx[:0]
	for _, i := range miss {
		q := queries[i]
		remote := 0.0
		if q.Tier == memsys.TierRemote {
			remote = 1
		}
		s := models.PerfSample{
			App:        q.Name,
			Remote:     remote,
			Past:       window,
			FuturePred: p.fut,
		}
		if q.Class == ClassLC {
			p.lcS = append(p.lcS, s)
			p.lcIdx = append(p.lcIdx, i)
		} else {
			p.beS = append(p.beS, s)
			p.beIdx = append(p.beIdx, i)
		}
	}
	endPerf := obs.StartSpan(ctx, "perf_predict")
	p.scatter(p.BE, p.beS, p.beIdx, ClassBE)
	p.scatter(p.LC, p.lcS, p.lcIdx, ClassLC)
	endPerf()
	p.memo.store(queries, miss, p.preds, p.errs)
	return p.preds, p.errs
}

func (p *QuantPredictor) scatter(m *models.QuantPerfModel, samples []models.PerfSample, idx []int, class PerfClass) {
	if len(samples) == 0 {
		return
	}
	if m == nil {
		err := fmt.Errorf("core: no model for class %v", class)
		for _, i := range idx {
			p.errs[i] = err
		}
		return
	}
	ps, es := p.clsP[:len(samples)], p.clsE[:len(samples)]
	m.PredictEachInto(samples, models.FuturePredicted, ps, es)
	for k, i := range idx {
		p.preds[i], p.errs[i] = ps[k], es[k]
	}
}
