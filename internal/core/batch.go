package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"adrias/internal/cluster"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/models"
	"adrias/internal/obs"
	"adrias/internal/workload"
)

// PerfQuery is one performance question inside a batched prediction: how
// would app Name (of the given class) perform if deployed on Tier now?
type PerfQuery struct {
	Name  string
	Class PerfClass
	Tier  memsys.Tier
}

// sysForecaster and perfPredictor are the two methods the shared prediction
// body needs of its models; the float models and their int8 twins both have
// them, writing into caller-owned results over arenas the model owns.
type sysForecaster interface {
	PredictInto(dst mathx.Vector, past []mathx.Vector)
}

type perfPredictor interface {
	PredictEachInto(samples []models.PerfSample, kind models.FutureKind, preds mathx.Vector, errs []error)
}

// orNil hands a class model to predict as an interface, keeping an absent
// one (a nil pointer) a nil interface rather than a typed nil.
func orNil[M interface {
	comparable
	perfPredictor
}](m M) perfPredictor {
	var absent M
	if m == absent {
		return nil
	}
	return m
}

// predictArena is the one body of PredictPerfBatch and everything it
// reuses between batches: the per-window memo (with the window's Ŝ) and the
// result, sample and index scratch. It belongs to one predictor value and
// follows its single-caller contract. The preds/errs it returns are
// arena-owned: valid until the next PredictPerfBatch on the same predictor.
// Every caller consumes them before asking again (DecideBatchWindow within
// the batch; faults.GuardedPredictor copies what it keeps into its
// last-good map; learn's flip replay asks two different predictors); one
// that needs them longer copies them.
type predictArena struct {
	memo         predMemo
	preds, clsP  mathx.Vector
	errs, clsE   []error
	beS, lcS     []models.PerfSample
	beIdx, lcIdx []int
}

// predict answers many queries against one shared history window. Queries
// already asked against this window are answered from the memo (predMemo;
// bit-identical, the models are deterministic per sample); for the rest the
// future system state Ŝ is propagated through the system-state model once
// per window — a later batch with new queries against the same window
// reuses it — and each class's queries run as one minibatch through that
// performance model: N coalesced placement requests cost at most one Ŝ
// forecast plus two batched model calls instead of up to 3·N single
// inferences, and repeated inputs (the shared window, each app's signature)
// are encoded once. Results and errors are per-query; a failing query (e.g.
// an app with no signature) does not abort the others. be or lc may be nil
// (no model for the class: its queries error).
//
// When ctx carries an obs.SpanRecorder, the Ŝ forecast and the performance
// inference are recorded as the "sysstate_predict" and "perf_predict" stages
// when they run; a batch answered wholly from the memo records neither.
// Without a recorder the instrumentation is a no-op.
func (a *predictArena) predict(ctx context.Context, sys sysForecaster, be, lc perfPredictor,
	sigs *models.SignatureStore, stats *MemoStats, queries []PerfQuery, window []mathx.Vector) (mathx.Vector, []error) {
	n := len(queries)
	if cap(a.preds) < n {
		a.preds, a.clsP = mathx.NewVector(n), mathx.NewVector(n)
		a.errs, a.clsE = make([]error, n), make([]error, n)
	}
	a.preds, a.errs = a.preds[:n], a.errs[:n]
	for i := range a.preds {
		a.preds[i], a.errs[i] = 0, nil
	}
	if n == 0 {
		return a.preds, a.errs
	}
	if len(window) == 0 {
		err := fmt.Errorf("core: empty history window")
		for i := range a.errs {
			a.errs[i] = err
		}
		return a.preds, a.errs
	}
	miss := a.memo.lookup(stats, sigs, window, queries, a.preds)
	if len(miss) == 0 {
		return a.preds, a.errs
	}
	if !a.memo.hasFut {
		endSys := obs.StartSpan(ctx, "sysstate_predict")
		sys.PredictInto(a.memo.fut, window)
		endSys()
		a.memo.hasFut = true
	}

	a.beS, a.lcS = a.beS[:0], a.lcS[:0]
	a.beIdx, a.lcIdx = a.beIdx[:0], a.lcIdx[:0]
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
			FuturePred: a.memo.fut,
		}
		if q.Class == ClassLC {
			a.lcS = append(a.lcS, s)
			a.lcIdx = append(a.lcIdx, i)
		} else {
			a.beS = append(a.beS, s)
			a.beIdx = append(a.beIdx, i)
		}
	}
	endPerf := obs.StartSpan(ctx, "perf_predict")
	a.scatter(be, a.beS, a.beIdx, ClassBE)
	a.scatter(lc, a.lcS, a.lcIdx, ClassLC)
	endPerf()
	a.memo.store(queries, miss, a.preds, a.errs)
	return a.preds, a.errs
}

// scatter runs one class's samples through its model and writes the results
// back to the queries they came from.
func (a *predictArena) scatter(m perfPredictor, samples []models.PerfSample, idx []int, class PerfClass) {
	if len(samples) == 0 {
		return
	}
	if m == nil {
		err := fmt.Errorf("core: no model for class %v", class)
		for _, i := range idx {
			a.errs[i] = err
		}
		return
	}
	ps, es := a.clsP[:len(samples)], a.clsE[:len(samples)]
	m.PredictEachInto(samples, models.FuturePredicted, ps, es)
	for k, i := range idx {
		a.preds[i], a.errs[i] = ps[k], es[k]
	}
}

// PredictPerfBatch implements PerfInference over the float models; see
// predictArena for the contract (results are arena-owned).
func (p *Predictor) PredictPerfBatch(ctx context.Context, queries []PerfQuery, window []mathx.Vector) (mathx.Vector, []error) {
	return p.arena.predict(ctx, p.Sys, orNil(p.BE), orNil(p.LC), p.Sigs, p.Memo, queries, window)
}

// finitePred reports whether v is a usable prediction: finite and
// positive. NaN/Inf model outputs (numeric blowups, injected faults) must
// never reach a tier decision; they classify as ReasonPredictError.
func finitePred(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

// DecideBatch decides the tier of every profile against the same history
// window, coalescing all model work: one Watcher window, one Ŝ forecast,
// and one batched inference per performance model, instead of up to three
// single inferences per profile. Decision semantics are identical to
// calling Decide per profile, with one caveat: capacity (CanFit) is
// evaluated against the pool state at decision time for every profile, so
// a batch whose combined footprint overflows a pool relies on the
// cluster's deploy-time fallback, exactly as racing single decisions
// would. Decisions are recorded in order (bounded retention, exact running
// Stats), each carrying the Reason that produced its tier, and returned to
// the caller.
//
// Degraded modes: a per-query ErrBreakerOpen (the predictor circuit
// breaker short-circuited) classifies as ReasonBreakerOpen and still uses
// cached last-good predictions when the breaker delivered them; non-finite
// predictions classify as ReasonPredictError; and when FabricDegraded
// reports an impaired link, every remote verdict — including cold starts —
// degrades to the safe local tier with ReasonFabricDegraded.
//
// ctx carries the observability plumbing: an obs.SpanRecorder (when
// present) receives the "signature_lookup", model-prediction and "decide"
// stage spans.
func (o *Orchestrator) DecideBatch(ctx context.Context, profiles []*workload.Profile, c *cluster.Cluster) []Decision {
	ds := make([]Decision, len(profiles))
	o.DecideBatchInto(ctx, profiles, c, ds)
	return ds
}

// DecideBatchInto is the allocation-free core of DecideBatch: it decides
// every profile into the caller-owned ds (len(profiles) entries) with all
// batch scratch held by the orchestrator. In steady state — fixed batch
// shape, warm arenas, decision ring at its retention bound — a decide
// allocates nothing, on the float predictor and the int8 twin alike. Like
// DecideBatch it must not run concurrently with itself.
func (o *Orchestrator) DecideBatchInto(ctx context.Context, profiles []*workload.Profile, c *cluster.Cluster, ds []Decision) {
	fabricDown := o.FabricDegraded != nil && o.FabricDegraded()
	o.DecideBatchWindow(ctx, profiles, o.Watch.WindowInto(c),
		c.CapacityLeftGB(memsys.TierRemote), fabricDown, 0, ds)
}

// DecideBatchWindow is DecideBatchInto against an explicit view of the
// target node: a pre-computed history window, the remote pool's free
// capacity, and the fabric health, instead of a live *cluster.Cluster. The
// sharded placement tier calls it so N replicas can decide concurrently
// against immutable ClusterView snapshots without touching any node's live
// state; every Decision carries node so the commit sequencer knows which
// pool the claim targets. Capacity semantics match DecideBatchInto: each
// profile is checked against the same remoteFreeGB (no deploys happen
// mid-batch), so a batch whose combined footprint overflows the pool relies
// on commit-time conflict detection, exactly as racing single decisions
// would. Must not run concurrently with itself (per-orchestrator scratch).
func (o *Orchestrator) DecideBatchWindow(ctx context.Context, profiles []*workload.Profile,
	window []mathx.Vector, remoteFreeGB float64, fabricDown bool, node int, ds []Decision) {
	n := len(profiles)
	if len(ds) != n {
		panic("core: DecideBatchInto output length mismatch")
	}

	// Assemble the prediction queries for warm apps with enough history:
	// BE asks local+remote, LC asks remote only.
	endSig := obs.StartSpan(ctx, "signature_lookup")
	if cap(o.batStart) < n {
		o.batStart = make([]int, n)
	}
	queries := o.batQueries[:0]
	qStart := o.batStart[:n] // index of profile i's first query, -1 when none
	for i, p := range profiles {
		ds[i] = Decision{App: p.Name, Class: p.Class, Node: node}
		qStart[i] = -1
		if !o.Pred.Sigs.Has(p.Name) {
			ds[i].ColdStart = true
			continue
		}
		if window == nil {
			continue
		}
		qStart[i] = len(queries)
		if p.Class == workload.LatencyCritical {
			queries = append(queries, PerfQuery{Name: p.Name, Class: ClassLC, Tier: memsys.TierRemote})
		} else {
			queries = append(queries,
				PerfQuery{Name: p.Name, Class: ClassBE, Tier: memsys.TierLocal},
				PerfQuery{Name: p.Name, Class: ClassBE, Tier: memsys.TierRemote})
		}
	}
	o.batQueries = queries // keep any growth for the next batch
	endSig()
	var preds mathx.Vector
	var errs []error
	if len(queries) > 0 {
		preds, errs = o.inference().PredictPerfBatch(ctx, queries, window)
	}

	endDecide := obs.StartSpan(ctx, "decide")
	for i, p := range profiles {
		d := &ds[i]
		switch {
		case d.ColdStart:
			// Cold start: unknown signature → deploy remote, capture metrics.
			d.Tier = memsys.TierRemote
			d.Reason = ReasonColdStart
		case qStart[i] < 0:
			// Not enough monitoring history yet: default to the safe tier.
			d.Tier = memsys.TierLocal
			d.Fallback = true
			d.Reason = ReasonNoHistory
		case p.Class == workload.LatencyCritical:
			q := qStart[i]
			switch {
			case errors.Is(errs[q], ErrBreakerOpen):
				// Breaker open: cached last-good prediction when the
				// wrapper delivered one, safe local otherwise.
				d.Fallback = true
				d.Reason = ReasonBreakerOpen
				d.Tier = memsys.TierLocal
				if finitePred(preds[q]) {
					d.PredRem = preds[q]
					qos, ok := o.QoSMs[p.Name]
					d.Tier = DecideLC(qos, ok, preds[q])
				}
			case errs[q] != nil || !finitePred(preds[q]):
				d.Tier = memsys.TierLocal
				d.Fallback = true
				d.Reason = ReasonPredictError
			default:
				d.PredRem = preds[q]
				qos, ok := o.QoSMs[p.Name]
				d.Tier = DecideLC(qos, ok, preds[q])
				if ok {
					d.Reason = ReasonLCQoS
				} else {
					d.Reason = ReasonLCNoQoS
				}
			}
		default: // best-effort
			q := qStart[i]
			switch {
			case errors.Is(errs[q], ErrBreakerOpen) || errors.Is(errs[q+1], ErrBreakerOpen):
				d.Fallback = true
				d.Reason = ReasonBreakerOpen
				d.Tier = memsys.TierLocal
				if finitePred(preds[q]) && finitePred(preds[q+1]) {
					d.PredLocal, d.PredRem = preds[q], preds[q+1]
					d.Tier = DecideBE(o.Beta, preds[q], preds[q+1])
				}
			case errs[q] != nil || errs[q+1] != nil || !finitePred(preds[q]) || !finitePred(preds[q+1]):
				d.Tier = memsys.TierLocal
				d.Fallback = true
				d.Reason = ReasonPredictError
			default:
				d.PredLocal, d.PredRem = preds[q], preds[q+1]
				d.Tier = DecideBE(o.Beta, preds[q], preds[q+1])
				d.Reason = ReasonBESlack
			}
		}
		// Graceful degradation: while the fabric is impaired no new load
		// goes remote — even cold starts wait on local for a healthy link.
		if d.Tier == memsys.TierRemote && fabricDown {
			d.Tier = memsys.TierLocal
			d.Fallback = true
			d.Reason = ReasonFabricDegraded
		}
		// A remote verdict against a full pool degrades to local (the
		// cluster would redirect anyway; deciding here keeps the
		// bookkeeping honest).
		if d.Tier == memsys.TierRemote && p.FootprintGB > remoteFreeGB {
			d.Tier = memsys.TierLocal
			d.Fallback = true
			d.Reason = ReasonCapacity
		}
	}
	endDecide()
	for _, d := range ds {
		o.record(d)
	}
}
