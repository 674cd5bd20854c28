// Package learn closes the Adrias model lifecycle loop: it joins realized
// application performance back to the audited placement decisions, watches
// the live predictor's error for drift, retrains a candidate performance
// model in the background on the captured outcomes, shadow-evaluates the
// candidate on the same admissions, and atomically hot-swaps it in when it
// wins — re-deriving the int8 quantized twin so the zero-alloc serving path
// stays current (DESIGN.md §13).
//
// The paper trains its predictors offline; in a long-lived service the
// interference mix shifts under live traffic and a static predictor decays.
// The loop's state machine is
//
//	Idle ──drift trips──▶ Training ──fit ok──▶ Shadow ──wins──▶ swap ─┐
//	  ▲                       │fit fails          │loses              │
//	  └──────── cooldown ─────┴───────────────────┴───────────────────┘
//
// All entry points (OnBatch, Complete, Poll) are called by the serve engine
// under its admission mutex; only the background fit runs off it, against
// immutable snapshots, so admission never stalls on training.
package learn

import (
	"context"
	"sync"
	"sync/atomic"

	"adrias/internal/core"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/models"
	"adrias/internal/workload"
)

// Config tunes the learning loop. The zero value selects the defaults.
type Config struct {
	// BufferCap bounds the training ring (default 4096 outcomes).
	BufferCap int
	// PendingCap bounds the decision→outcome join table (default 2048).
	PendingCap int
	// DriftWindow is the rolling error window per tier (default 256).
	DriftWindow int
	// DriftThreshold arms a retrain when a tier's rolling mean relative
	// prediction error exceeds it (default 0.35).
	DriftThreshold float64
	// DriftMinSamples is the minimum per-tier error count before the
	// detector may trip (default 24).
	DriftMinSamples int
	// MinOutcomes is the minimum buffered outcome count of a class before
	// that class retrains (default 64).
	MinOutcomes int
	// ShadowWarmup is the number of shadow-evaluated outcomes compared
	// before the promote/discard verdict (default 32).
	ShadowWarmup int
	// ShadowMargin loosens the verdict: the candidate wins when its mean
	// relative error is below live·(1+margin). The default 0 requires a
	// strict improvement; tests use a large margin to force promotion.
	ShadowMargin float64
	// CooldownSec is the simulated-seconds floor between lifecycle rounds
	// (default 300).
	CooldownSec float64
	// Epochs overrides the candidate fit's epoch count (0: keep the live
	// model's configuration).
	Epochs int
	// FlipSampleCap bounds the outcomes replayed for the quantized-twin
	// decision-flip check at swap time (default 128).
	FlipSampleCap int
}

func (c Config) withDefaults() Config {
	if c.BufferCap <= 0 {
		c.BufferCap = 4096
	}
	if c.PendingCap <= 0 {
		c.PendingCap = 2048
	}
	if c.DriftWindow <= 0 {
		c.DriftWindow = 256
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.35
	}
	if c.DriftMinSamples <= 0 {
		c.DriftMinSamples = 24
	}
	if c.MinOutcomes <= 0 {
		c.MinOutcomes = 64
	}
	if c.ShadowWarmup <= 0 {
		c.ShadowWarmup = 32
	}
	if c.CooldownSec <= 0 {
		c.CooldownSec = 300
	}
	if c.FlipSampleCap <= 0 {
		c.FlipSampleCap = 128
	}
	return c
}

// Deps wires the loop into the serve engine.
type Deps struct {
	// Base is the swappable slot at the bottom of the engine's inference
	// stack; promotion retargets it.
	Base *core.SwappableInference
	// Live is the float predictor serving generation 1.
	Live *core.Predictor
	// Quantized mirrors the engine's serving mode: promotions then target
	// Base at a freshly quantized twin instead of the float predictor.
	Quantized bool
	// Beta and QoSMs replicate the orchestrator's decision parameters for
	// rule-level flip computation (QoSMs is copied at New).
	Beta  float64
	QoSMs map[string]float64
	// SimNow reads the testbed clock without locks (cooldown bookkeeping
	// from the trainer goroutine).
	SimNow func() float64
	// OnSwap, when set, observes every promotion (audit + bus publication).
	// It is called with the loop mutex held, from the engine's lock context.
	OnSwap func(SwapEvent)
	// OnOutcome, when set, observes every joined realized outcome (the
	// engine emits a wide "outcome" event carrying the trace-ID join). It is
	// called with the loop mutex held, from the engine's lock context.
	OnOutcome func(o Outcome)
}

// State is the lifecycle position of the loop.
type State int

const (
	// StateIdle: serving the live generation, watching for drift.
	StateIdle State = iota
	// StateTraining: a candidate is fitting in the background.
	StateTraining
	// StateShadow: the candidate predicts the same admissions, recorded
	// but never acted on, until the warmup verdict.
	StateShadow
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateTraining:
		return "training"
	case StateShadow:
		return "shadow"
	default:
		return "unknown"
	}
}

// Placement is one deployed (non-dry-run) admission the engine reports to
// the loop right after deciding it.
type Placement struct {
	InstID  int
	TraceID string
	App     string
	Class   workload.Class
	// Tier is the tier actually deployed (capacity fallbacks included).
	Tier memsys.Tier
	// PredLocal/PredRem are the live decision's predictions (0 when the
	// rule fell back without one).
	PredLocal, PredRem float64
	// Gen is the model generation that produced the decision (0: the
	// current live generation). Replica shards set it from their cloned
	// stack's stamp, so a batch decided just before a swap grades the
	// generation that actually predicted it, not the one promoted since.
	Gen int
}

// SwapEvent describes one promotion.
type SwapEvent struct {
	// Gen is the new live generation (the promoted candidate's).
	Gen   int
	Class workload.Class
	// LiveErr/ShadowErr are the mean relative errors over the shadow
	// warmup, live model vs candidate, on the same admissions.
	LiveErr, ShadowErr float64
	// ShadowFlipRate is the rule-level decision-flip rate observed between
	// live and candidate predictions during the warmup.
	ShadowFlipRate float64
	// QuantFlipRate is the decision-flip rate of the re-derived int8 twin
	// against the new float model over recent buffered outcomes (quantized
	// serving only; -1 when not computed).
	QuantFlipRate float64
	// ShadowN is the number of outcomes behind the verdict.
	ShadowN int
	// SimTime is the swap time on the testbed clock.
	SimTime float64
}

// Stats is a point-in-time snapshot of the loop for metrics and tests.
type Stats struct {
	Generation int
	State      State
	BufferLen  int
	BufferBE   int
	BufferLC   int
	Pending    int

	Outcomes  uint64 // outcomes joined into the buffer
	Unmatched uint64 // completions with no pending (ambient, evicted, stale)
	Evicted   uint64 // pendings evicted before completion
	NoWindow  uint64 // placements dropped for lack of a monitoring window

	Drift DriftStats

	Retrains     uint64
	RetrainFails uint64
	Swaps        uint64
	Discards     uint64

	// ShadowN is the live warmup progress (0 outside StateShadow).
	ShadowN int
	// LastLiveErr/LastShadowErr/LastShadowFlipRate report the most recent
	// completed shadow verdict; LastQuantFlipRate the most recent swap's
	// quantized-twin check (-1 before any).
	LastLiveErr        float64
	LastShadowErr      float64
	LastShadowFlipRate float64
	LastQuantFlipRate  float64
}

// Loop is the online model-lifecycle controller. One Loop serves one
// engine; see the package comment for the concurrency contract.
type Loop struct {
	cfg  Config
	deps Deps

	mu    sync.Mutex
	state State
	live  *core.Predictor // current live float generation
	buf   *Buffer
	pend  *pendingTable
	drift *driftDetector

	cooldownUntil float64

	// candidate (StateShadow)
	cand      *models.PerfModel
	candClass workload.Class
	candGen   int
	// shadow warmup accounting
	shadowN        int
	shadowLiveSum  float64 // Σ relative error, live predictions
	shadowCandSum  float64 // Σ relative error, candidate predictions
	shadowFlips    int
	shadowFlipBase int // placements where both rules could be evaluated

	// counters / last-verdict read-outs (guarded by mu)
	unmatched, noWindow                     uint64
	retrains, retrainFails, swaps, discards uint64
	lastLiveErr, lastCandErr                float64
	lastShadowFlipRate                      float64
	lastQuantFlipRate                       float64

	// gen mirrors the live generation for lock-free readers (the engine
	// stamps every audit record with it).
	gen atomic.Int64
}

// New builds the loop at generation 1 over the engine's live predictor.
func New(cfg Config, deps Deps) *Loop {
	cfg = cfg.withDefaults()
	qos := make(map[string]float64, len(deps.QoSMs))
	for k, v := range deps.QoSMs {
		qos[k] = v
	}
	deps.QoSMs = qos
	l := &Loop{
		cfg:               cfg,
		deps:              deps,
		live:              deps.Live,
		buf:               NewBuffer(cfg.BufferCap),
		pend:              newPendingTable(cfg.PendingCap),
		drift:             newDriftDetector(cfg.DriftWindow, cfg.DriftThreshold, cfg.DriftMinSamples),
		lastQuantFlipRate: -1,
	}
	l.gen.Store(1)
	return l
}

// Generation returns the live model generation (lock-free).
func (l *Loop) Generation() int { return int(l.gen.Load()) }

// Live returns the current generation and the float predictor serving it —
// the source replica shards re-clone from after a promotion. Callers must
// hold the engine lock (the loop's concurrency context) so the returned
// predictor cannot be concurrently swapped or shadow-evaluated mid-clone.
func (l *Loop) Live() (gen int, pred *core.Predictor) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.gen.Load()), l.live
}

// Expects reports whether a completion for instID would join (lock-cheap
// guard so the engine skips history scans for ambient instances).
func (l *Loop) Expects(instID int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pend.has(instID)
}

// OnBatch captures the deployed placements of one admission batch: the
// monitoring window is cloned once, shadow predictions are recorded when a
// candidate is active, and one pending join record is filed per placement.
// Called under the engine lock, only for batches with non-dry-run deploys —
// the dry-run hot path (the zero-alloc gate) never reaches it.
func (l *Loop) OnBatch(window []mathx.Vector, batch []Placement) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	if len(window) == 0 {
		// No full monitoring window: nothing to train on from these.
		l.noWindow += uint64(len(batch))
		return
	}
	win := cloneRows(window)
	gen := int(l.gen.Load())

	pendings := make([]*pending, len(batch))
	for i, p := range batch {
		remote := 0.0
		if p.Tier == memsys.TierRemote {
			remote = 1
		}
		pgen := gen
		if p.Gen > 0 {
			pgen = p.Gen
		}
		pendings[i] = &pending{
			instID:   p.InstID,
			traceID:  p.TraceID,
			app:      p.App,
			class:    p.Class,
			tier:     p.Tier,
			gen:      pgen,
			remote:   remote,
			predLive: predForTier(p.PredLocal, p.PredRem, p.Tier),
			window:   win,
		}
	}
	if l.state == StateShadow {
		l.shadowPredict(win, batch, pendings)
	}
	for _, pd := range pendings {
		l.pend.add(pd)
	}
}

// shadowPredict runs the candidate on the batch's candidate-class
// placements and records its predictions + rule-level flips on the pending
// records. Runs under mu, on the engine's lock context — the candidate is
// fully trained and read-only here.
func (l *Loop) shadowPredict(win []mathx.Vector, batch []Placement, pendings []*pending) {
	var samples []models.PerfSample
	var sIdx []int // sample k belongs to batch[sIdx[k]]
	fut := l.live.Sys.Predict(win)
	for i, p := range batch {
		if p.Class != l.candClass || p.Class == workload.Interference {
			continue
		}
		if p.Class == workload.LatencyCritical {
			samples = append(samples, models.PerfSample{
				App: p.App, Remote: 1, Past: win, FuturePred: fut,
			})
			sIdx = append(sIdx, i)
		} else {
			samples = append(samples,
				models.PerfSample{App: p.App, Remote: 0, Past: win, FuturePred: fut},
				models.PerfSample{App: p.App, Remote: 1, Past: win, FuturePred: fut})
			sIdx = append(sIdx, i, i)
		}
	}
	if len(samples) == 0 {
		return
	}
	preds, errs := l.cand.PredictEach(samples, models.FuturePredicted)
	for k := 0; k < len(samples); k++ {
		i := sIdx[k]
		p := batch[i]
		pd := pendings[i]
		if p.Class == workload.LatencyCritical {
			if errs[k] != nil {
				continue
			}
			pd.shadowGen = l.candGen
			pd.shadowPred = 0
			if p.Tier == memsys.TierRemote {
				pd.shadowPred = preds[k]
			}
			if p.PredRem > 0 {
				qos, ok := l.deps.QoSMs[p.App]
				liveTier := core.DecideLC(qos, ok, p.PredRem)
				shadTier := core.DecideLC(qos, ok, preds[k])
				pd.shadowFlip = liveTier != shadTier
				l.shadowFlipBase++
				if pd.shadowFlip {
					l.shadowFlips++
				}
			}
			continue
		}
		// BE: samples arrive as (local, remote) pairs.
		if errs[k] != nil || errs[k+1] != nil {
			k++
			continue
		}
		local, rem := preds[k], preds[k+1]
		k++
		pd.shadowGen = l.candGen
		pd.shadowPred = local
		if p.Tier == memsys.TierRemote {
			pd.shadowPred = rem
		}
		if p.PredLocal > 0 && p.PredRem > 0 {
			liveTier := core.DecideBE(l.deps.Beta, p.PredLocal, p.PredRem)
			shadTier := core.DecideBE(l.deps.Beta, local, rem)
			pd.shadowFlip = liveTier != shadTier
			l.shadowFlipBase++
			if pd.shadowFlip {
				l.shadowFlips++
			}
		}
	}
}

// Complete joins one finished instance back to its pending decision:
// the realized performance and future-state means become a training
// outcome, the live prediction error feeds the drift detector, and — when
// the instance carried a shadow evaluation — the live-vs-candidate
// comparison advances the warmup toward a verdict. Completions with no
// pending record (ambient load, evicted or already-joined decisions) are
// counted and dropped — they can never corrupt the buffer. Called under
// the engine lock.
func (l *Loop) Complete(instID int, realized float64, fut120, futExec mathx.Vector, now float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	pd, ok := l.pend.take(instID)
	if !ok {
		l.unmatched++
		return
	}
	if realized <= 0 {
		l.unmatched++
		return
	}
	out := Outcome{
		App:        pd.app,
		Class:      pd.class,
		Remote:     pd.remote,
		Past:       pd.window,
		Future120:  fut120,
		FutureExec: futExec,
		Realized:   realized,
		TraceID:    pd.traceID,
		Gen:        pd.gen,
		PredLive:   pd.predLive,
		SimTime:    now,
	}
	l.buf.Append(out)
	if l.deps.OnOutcome != nil {
		l.deps.OnOutcome(out)
	}
	// Drift: only current-generation predictions grade the live model.
	if pd.predLive > 0 && pd.gen == int(l.gen.Load()) {
		l.drift.observe(pd.remote == 1, relErr(pd.predLive, realized))
	}
	// Shadow: compare live and candidate on the same realized outcome.
	if l.state == StateShadow && pd.shadowGen == l.candGen &&
		pd.shadowPred > 0 && pd.predLive > 0 {
		l.shadowN++
		l.shadowLiveSum += relErr(pd.predLive, realized)
		l.shadowCandSum += relErr(pd.shadowPred, realized)
		if l.shadowN >= l.cfg.ShadowWarmup {
			l.verdict(now)
		}
	}
}

// verdict resolves the shadow warmup: promote the candidate when its mean
// relative error beats the live model's (within ShadowMargin), discard it
// otherwise. Runs under mu on the engine's lock context.
func (l *Loop) verdict(now float64) {
	liveErr := l.shadowLiveSum / float64(l.shadowN)
	candErr := l.shadowCandSum / float64(l.shadowN)
	flipRate := 0.0
	if l.shadowFlipBase > 0 {
		flipRate = float64(l.shadowFlips) / float64(l.shadowFlipBase)
	}
	l.lastLiveErr, l.lastCandErr, l.lastShadowFlipRate = liveErr, candErr, flipRate
	if candErr < liveErr*(1+l.cfg.ShadowMargin) {
		l.promote(now, liveErr, candErr, flipRate)
	} else {
		l.discards++
		l.clearCandidate(now)
	}
}

// promote hot-swaps the candidate in: it is rebound to the live signature
// store, a new predictor generation is assembled around it, the int8 twin
// is re-derived when serving quantized, and the engine's swappable slot is
// atomically retargeted. Runs under mu on the engine's lock context, so
// signature-store rebinding cannot race with in-situ captures.
func (l *Loop) promote(now, liveErr, candErr, flipRate float64) {
	l.cand.Rebind(l.live.Sigs)
	next := &core.Predictor{Sys: l.live.Sys, BE: l.live.BE, LC: l.live.LC, Sigs: l.live.Sigs, Memo: l.live.Memo}
	if l.candClass == workload.LatencyCritical {
		next.LC = l.cand
	} else {
		next.BE = l.cand
	}
	quantFlip := -1.0
	if l.deps.Quantized {
		quant := core.NewQuantPredictor(next)
		quantFlip = l.quantFlipRate(next, quant)
		l.deps.Base.Store(quant)
	} else {
		l.deps.Base.Store(next)
	}
	l.live = next
	newGen := l.candGen
	l.gen.Store(int64(newGen))
	l.swaps++
	l.lastQuantFlipRate = quantFlip
	l.drift.reset()
	ev := SwapEvent{
		Gen:            newGen,
		Class:          l.candClass,
		LiveErr:        liveErr,
		ShadowErr:      candErr,
		ShadowFlipRate: flipRate,
		QuantFlipRate:  quantFlip,
		ShadowN:        l.shadowN,
		SimTime:        now,
	}
	l.clearCandidate(now)
	if l.deps.OnSwap != nil {
		l.deps.OnSwap(ev)
	}
}

// quantFlipRate replays recent buffered outcomes of the candidate class
// through the new float predictor and its int8 twin and returns the
// decision-flip rate between them — the swap-time incarnation of the
// repo's ≤1% quantization contract.
func (l *Loop) quantFlipRate(next *core.Predictor, quant *core.QuantPredictor) float64 {
	outs := l.buf.Snapshot(l.candClass)
	if len(outs) > l.cfg.FlipSampleCap {
		outs = outs[len(outs)-l.cfg.FlipSampleCap:]
	}
	ctx := context.Background()
	flips, compared := 0, 0
	var queries [2]core.PerfQuery
	for i := range outs {
		o := &outs[i]
		var qs []core.PerfQuery
		if o.Class == workload.LatencyCritical {
			queries[0] = core.PerfQuery{Name: o.App, Class: core.ClassLC, Tier: memsys.TierRemote}
			qs = queries[:1]
		} else {
			queries[0] = core.PerfQuery{Name: o.App, Class: core.ClassBE, Tier: memsys.TierLocal}
			queries[1] = core.PerfQuery{Name: o.App, Class: core.ClassBE, Tier: memsys.TierRemote}
			qs = queries[:2]
		}
		fp, fe := next.PredictPerfBatch(ctx, qs, o.Past)
		qp, qe := quant.PredictPerfBatch(ctx, qs, o.Past)
		ok := true
		for k := range qs {
			if fe[k] != nil || qe[k] != nil {
				ok = false
			}
		}
		if !ok {
			continue
		}
		compared++
		var fTier, qTier memsys.Tier
		if o.Class == workload.LatencyCritical {
			qos, has := l.deps.QoSMs[o.App]
			fTier = core.DecideLC(qos, has, fp[0])
			qTier = core.DecideLC(qos, has, qp[0])
		} else {
			fTier = core.DecideBE(l.deps.Beta, fp[0], fp[1])
			qTier = core.DecideBE(l.deps.Beta, qp[0], qp[1])
		}
		if fTier != qTier {
			flips++
		}
	}
	if compared == 0 {
		return 0
	}
	return float64(flips) / float64(compared)
}

// clearCandidate resets shadow state and enters cooldown.
func (l *Loop) clearCandidate(now float64) {
	l.cand = nil
	l.state = StateIdle
	l.shadowN, l.shadowFlips, l.shadowFlipBase = 0, 0, 0
	l.shadowLiveSum, l.shadowCandSum = 0, 0
	l.cooldownUntil = now + l.cfg.CooldownSec
}

// Poll advances the lifecycle: from Idle, with the drift detector tripped,
// cooldown expired, and enough buffered outcomes, it snapshots the buffer
// and the signature store and kicks a background fit. Called under the
// engine lock (once per testbed advance).
func (l *Loop) Poll(now float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state != StateIdle || now < l.cooldownUntil || !l.drift.tripped() {
		return
	}
	class := workload.BestEffort
	if l.buf.ClassLen(workload.LatencyCritical) > l.buf.ClassLen(workload.BestEffort) {
		class = workload.LatencyCritical
	}
	if l.buf.ClassLen(class) < l.cfg.MinOutcomes {
		return
	}
	base := l.live.BE
	if class == workload.LatencyCritical {
		base = l.live.LC
	}
	if base == nil {
		return
	}
	outs := l.buf.Snapshot(class)
	sigs := l.live.Sigs.Clone()
	cfg := base.Cfg
	l.state = StateTraining
	l.retrains++
	candGen := int(l.gen.Load()) + 1
	go l.train(outs, sigs, class, cfg, candGen)
}

// train fits a candidate on the snapshot — background goroutine, no locks
// held, never touching live state until the final transition under mu.
func (l *Loop) train(outs []Outcome, sigs *models.SignatureStore, class workload.Class, cfg models.PerfConfig, candGen int) {
	// The captured outcomes carry realized futures, not propagated ones;
	// train on the actual-120 window (the paper's {120, Ŝ} deployment pair
	// — evaluation stays on the propagated Ŝ).
	if cfg.TrainFuture == models.FuturePredicted || cfg.TrainFuture == models.FutureNone {
		cfg.TrainFuture = models.Future120Actual
	}
	cfg.EvalFuture = models.FuturePredicted
	if l.cfg.Epochs > 0 {
		cfg.Epochs = l.cfg.Epochs
	}
	cfg.Seed += int64(candGen) // decorrelate successive candidates
	samples := make([]models.PerfSample, 0, len(outs))
	var trainIdx []int
	for i := range outs {
		if !sigs.Has(outs[i].App) {
			continue // cold-started after the snapshot; sig not stored yet
		}
		s := outs[i].perfSample()
		if cfg.TrainFuture != models.FutureNone && s.Future(cfg.TrainFuture) == nil {
			continue
		}
		samples = append(samples, s)
		trainIdx = append(trainIdx, len(samples)-1)
	}
	var cand *models.PerfModel
	var err error = errTooFew
	if len(trainIdx) >= l.cfg.MinOutcomes/2 {
		cand = models.NewPerfModel(cfg, sigs)
		err = cand.Fit(samples, trainIdx)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.cooldownUntil
	if l.deps.SimNow != nil {
		now = l.deps.SimNow()
	}
	if err != nil {
		l.retrainFails++
		l.state = StateIdle
		l.cooldownUntil = now + l.cfg.CooldownSec
		return
	}
	l.cand = cand
	l.candClass = class
	l.candGen = candGen
	l.state = StateShadow
	l.shadowN, l.shadowFlips, l.shadowFlipBase = 0, 0, 0
	l.shadowLiveSum, l.shadowCandSum = 0, 0
}

// Snapshot returns a point-in-time view of the loop.
func (l *Loop) Snapshot() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Generation:         int(l.gen.Load()),
		State:              l.state,
		BufferLen:          l.buf.Len(),
		BufferBE:           l.buf.ClassLen(workload.BestEffort),
		BufferLC:           l.buf.ClassLen(workload.LatencyCritical),
		Pending:            l.pend.len(),
		Outcomes:           l.buf.Total(),
		Unmatched:          l.unmatched,
		Evicted:            l.pend.evicted,
		NoWindow:           l.noWindow,
		Drift:              l.drift.stats(),
		Retrains:           l.retrains,
		RetrainFails:       l.retrainFails,
		Swaps:              l.swaps,
		Discards:           l.discards,
		ShadowN:            l.shadowN,
		LastLiveErr:        l.lastLiveErr,
		LastShadowErr:      l.lastCandErr,
		LastShadowFlipRate: l.lastShadowFlipRate,
		LastQuantFlipRate:  l.lastQuantFlipRate,
	}
}

var errTooFew = errTooFewT{}

type errTooFewT struct{}

func (errTooFewT) Error() string { return "learn: too few signed training outcomes" }

// MeanRows returns the element-wise mean of rows (nil for empty input) —
// the realized future-state aggregation at completion time.
func MeanRows(rows []mathx.Vector) mathx.Vector {
	if len(rows) == 0 {
		return nil
	}
	m := mathx.NewVector(len(rows[0]))
	for _, r := range rows {
		m.Add(r)
	}
	return m.Scale(1 / float64(len(rows)))
}

func cloneRows(rows []mathx.Vector) []mathx.Vector {
	out := make([]mathx.Vector, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
	}
	return out
}

func predForTier(local, remote float64, tier memsys.Tier) float64 {
	if tier == memsys.TierRemote {
		return remote
	}
	return local
}

func relErr(pred, actual float64) float64 {
	if actual <= 0 {
		return 0
	}
	d := pred - actual
	if d < 0 {
		d = -d
	}
	return d / actual
}
