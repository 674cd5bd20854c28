package serve

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"adrias/internal/bus"
	"adrias/internal/cluster"
	"adrias/internal/core"
	"adrias/internal/faults"
	"adrias/internal/learn"
	"adrias/internal/memsys"
	"adrias/internal/obs"
	"adrias/internal/randutil"
	"adrias/internal/workload"
)

// EngineConfig tunes the SystemEngine. The zero value selects the defaults.
type EngineConfig struct {
	// Beta is the orchestrator's BE slack (default 0.8).
	Beta float64
	// QoSFactor sets each LC application's p99 target to BaseP50Ms × factor
	// (0 disables LC offloading, the orchestrator's safe default).
	QoSFactor float64
	// WarmupTicks runs the testbed this many simulated seconds before
	// serving, so the Watcher window is full from the first request
	// (default: the window length + 10).
	WarmupTicks int
	// AmbientRate deploys background load at this many arrivals per
	// simulated second while the feed ticks (default 0.08), so served
	// placements see a busy node, as in the paper's scenarios.
	AmbientRate float64
	// IBenchShare is the fraction of ambient arrivals drawn from the
	// iBench interference generators (default 0.5).
	IBenchShare float64
	// Seed drives the testbed and the ambient arrival stream (default 1).
	Seed int64
	// Nodes is the rack size: each node carries its own testbed cluster and
	// ThymesisFlow fabric, and placements choose which node's remote pool to
	// claim (default 1, the paper's single-borrower prototype). Node i seeds
	// from Seed+i*1000 and hands out instance IDs from base i<<32, so
	// single-node runs are bit-identical to the pre-rack engine.
	Nodes int
	// NegSigTTL bounds staleness of cached signature misses.
	NegSigTTL time.Duration
	// Cluster overrides the testbed configuration (nil: paper defaults).
	Cluster *cluster.Config
	// Bus, when set, receives every placement decision on topic
	// "orchestrator.decisions" and a monitoring sample per Advance on
	// "watcher.samples" — the live equivalent of adriasd's replay stream.
	Bus *bus.Bus
	// Faults, when set, replays its fault schedule against the engine: the
	// prediction path runs through a faults.FaultyPredictor and active
	// fabric faults are imposed on the ThymesisFlow link every tick. The
	// engine arms the schedule (Injector.Start) once warmup finishes, so
	// event times are relative to serving start.
	Faults *faults.Injector
	// Breaker tunes the predictor circuit breaker (zero value: faults
	// package defaults; the clock defaults to the testbed's simulated time).
	Breaker faults.BreakerConfig
	// DisableBreaker turns the circuit breaker off — predictions then fail
	// per-request only, the pre-degradation behaviour.
	DisableBreaker bool
	// Quantized serves placements from the int8 inference twin
	// (core.QuantPredictor) instead of the float models: faster and
	// allocation-free in steady state, at the cost of the quantization
	// error budget (decision-flip rate ≤ 1%, DESIGN.md §12). Fault
	// injection and the breaker stack on top of it unchanged.
	Quantized bool
	// Learn, when set, runs the online model-lifecycle loop (DESIGN.md §13):
	// realized outcomes are joined back to their decisions, prediction-error
	// drift arms a background retrain, and a shadow-winning candidate is
	// hot-swapped in (the quantized twin re-derived when Quantized).
	Learn *learn.Config
	// AmbientRampTo, with AmbientRampSec, linearly shifts the ambient
	// arrival rate from AmbientRate to this value over AmbientRampSec
	// simulated seconds after serving starts — an induced drift in the
	// interference mix for exercising the learning loop (0: no ramp).
	AmbientRampTo  float64
	AmbientRampSec float64
	// Events, when set, receives one wide event per committed (non-dry-run)
	// admission plus, with Learn on, one realized-outcome event per joined
	// completion. Dry runs never reach it — the zero-alloc hot path is
	// unaffected (DESIGN.md §15).
	Events *obs.EventSink
}

func (c EngineConfig) withDefaults(histTicks int) EngineConfig {
	if c.Beta <= 0 {
		c.Beta = 0.8
	}
	if c.WarmupTicks <= 0 {
		c.WarmupTicks = histTicks + 10
	}
	if c.AmbientRate == 0 {
		c.AmbientRate = 0.08
	}
	if c.IBenchShare == 0 {
		c.IBenchShare = 0.5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	return c
}

// SystemEngine serves placements from a trained Adrias predictor against a
// live simulated testbed. The testbed advances in simulated time through
// Advance (driven by a wall-clock ticker in cmd/adrias-serve); placement
// requests are decided — and, unless DryRun, deployed — against its current
// monitoring window. Admission has one path, the claim/commit protocol of
// rack.go: deciders read the published view without a lock, and the engine
// mutex is the commit sequencer, which Advance's ticks share. The engine's
// own PlaceBatch is its replica-0 decider, the one-replica case.
type SystemEngine struct {
	mu    sync.Mutex
	watch *core.Watcher
	reg   *workload.Registry
	cl    *cluster.Cluster
	sigs  *SignatureCache
	rng   *randutil.Source
	cfg   EngineConfig
	audit *obs.AuditLog   // nil until RegisterObs
	brk   *faults.Breaker // nil when DisableBreaker
	// pred is the engine's Predictor value over the caller's models, the
	// source every decider clones (generation 1 of the learning loop); qosMs
	// holds the LC p99 targets, read-only after construction. learner is nil
	// unless EngineConfig.Learn is set.
	pred    *core.Predictor
	qosMs   map[string]float64
	learner *learn.Loop
	// decider is replica 0, minted by NewShard at construction; PlaceBatch
	// and PlaceBatchInto run it under placeMu, so the engine stays safe for
	// concurrent callers while a decider serves one batch at a time.
	decider *engineShard
	placeMu sync.Mutex
	// memo counts prediction-memo hits and misses across every predictor this
	// engine serves from: its own, each shard's clone, each promoted
	// generation (they inherit the pointer through core.Predictor.Memo).
	memo core.MemoStats
	// ambientApps is pickAmbient's non-iBench draw pool (Spark then LC).
	ambientApps []*workload.Profile

	// nodes is the rack (nodes[0] == cl, the legacy single-node alias). All
	// live node state is guarded by mu — the commit sequencer; replica
	// shards read the atomic view instead of taking the lock.
	nodes []*cluster.Cluster
	// view is the published rack-state snapshot (rack.go); viewVer counts
	// committed state changes (deploys, ticks) under mu, so an optimistic
	// claim decided against version v conflicts iff the version moved.
	view    atomic.Pointer[rackView]
	viewVer uint64
	// retry is the bounded drop-oldest ring of commit-conflict losers.
	retry retryRing
	// shards registers every replica shard minted by NewShard so a model
	// promotion can invalidate their cloned stacks eagerly (recordSwap sets
	// each shard's stale flag) and /metrics can report per-shard generations.
	shardMu sync.Mutex
	shards  []*engineShard
	// Optimistic-commit telemetry, exported on /metrics.
	commits       atomic.Uint64 // claims that won their commit
	conflicts     atomic.Uint64 // remote claims that lost the commit race
	commitRetries atomic.Uint64 // conflict losers re-decided from the ring
	downgrades    atomic.Uint64 // losers downgraded to the safe local tier
	retryDrops    atomic.Uint64 // losers evicted from the full retry ring
	shardReclones atomic.Uint64 // shard stacks re-cloned after a promotion
	dupFinalizes  atomic.Uint64 // double-finalize attempts caught by the guard

	ambientStarted uint64
	// serveStart anchors the ambient-rate ramp (simulated time at the end
	// of warmup).
	serveStart float64
	// ambientClock is the simulated time (whole-second slots) through which
	// ambient arrivals have been generated. It carries fractional Advance
	// remainders across calls, so sub-second cadences sustain the same
	// effective AmbientRate as whole-second ones.
	ambientClock float64
	// simNow mirrors the testbed clock (float64 bits) for lock-free readers:
	// the fault injector and the breaker consult it from paths that may or
	// may not already hold mu.
	simNow atomic.Uint64

	// slo is the attached SLO evaluator (AttachSLO; nil pointer until then).
	// Atomic because dry-run finalizers stamp the overall state into audit
	// records without the engine lock. events is fixed at construction.
	slo    atomic.Pointer[obs.SLO]
	events *obs.EventSink
	// Cumulative decision counters feeding the SLO objective sources; the
	// tick counters track Advance calls and how many of them saw the breaker
	// not closed (breaker-open-time objective).
	sloDecisions   atomic.Uint64
	sloDowngrades  atomic.Uint64
	sloPredictErrs atomic.Uint64
	sloTicks       atomic.Uint64
	sloBreakerOpen atomic.Uint64
}

// SimNow returns the testbed's simulated time without taking the engine
// lock (updated per tick; safe from any goroutine).
func (e *SystemEngine) SimNow() float64 { return math.Float64frombits(e.simNow.Load()) }

func (e *SystemEngine) setSimNow(t float64) { e.simNow.Store(math.Float64bits(t)) }

// NewSystemEngine builds the engine and warms the testbed up so the
// monitoring window is full before the first request.
func NewSystemEngine(pred *core.Predictor, watch *core.Watcher, reg *workload.Registry, cfg EngineConfig) *SystemEngine {
	cfg = cfg.withDefaults(watch.HistTicks)
	ccfg := cluster.DefaultConfig()
	if cfg.Cluster != nil {
		ccfg = *cfg.Cluster
	}
	ccfg.KeepHistory = true

	nodes := make([]*cluster.Cluster, cfg.Nodes)
	for i := range nodes {
		ncfg := ccfg
		ncfg.Seed = cfg.Seed + int64(i)*1000 // node 0 keeps cfg.Seed exactly
		ncfg.IDBase = i << 32                // disjoint instance-ID range per node
		nodes[i] = cluster.New(ncfg)
	}

	e := &SystemEngine{
		watch:       watch,
		reg:         reg,
		cl:          nodes[0],
		nodes:       nodes,
		sigs:        NewSignatureCache(pred.Sigs, cfg.NegSigTTL),
		rng:         randutil.New(cfg.Seed).Split(0x5e7),
		cfg:         cfg,
		events:      cfg.Events,
		ambientApps: append(append([]*workload.Profile(nil), reg.Spark()...), reg.LC()...),
	}
	// The engine serves from its own Predictor value over the caller's
	// models: the memo counters are then this engine's, not shared with
	// whoever else holds the caller's value.
	e.pred = &core.Predictor{Sys: pred.Sys, BE: pred.BE, LC: pred.LC, Sigs: pred.Sigs, Memo: &e.memo}
	e.qosMs = make(map[string]float64)
	if cfg.QoSFactor > 0 {
		for _, p := range reg.LC() {
			e.qosMs[p.Name] = p.BaseP50Ms * cfg.QoSFactor
		}
	}
	// In-situ signature capture for cold-started apps, write-through the
	// cache so HTTP-layer readers see it immediately; when the learning
	// loop is on, completions it expects are joined back to their decisions.
	for _, c := range nodes {
		c := c
		c.OnComplete = func(in *workload.Instance) {
			e.captureSignature(c, in)
			e.captureOutcome(c, in)
		}
	}
	if !cfg.DisableBreaker {
		bcfg := cfg.Breaker
		if bcfg.Clock == nil {
			bcfg.Clock = e.SimNow
		}
		e.brk = faults.NewBreaker(bcfg)
	}
	if cfg.Learn != nil {
		// No Base slot: every decider re-clones from the loop's Live
		// generation after a promotion (maybeReclone).
		e.learner = learn.New(*cfg.Learn, learn.Deps{
			Live:      e.pred,
			Quantized: cfg.Quantized,
			Beta:      cfg.Beta,
			QoSMs:     e.qosMs,
			SimNow:    e.SimNow,
			OnSwap:    e.recordSwap,
			OnOutcome: e.recordOutcome,
		})
	}
	if cfg.Faults != nil {
		// Impose the scheduled fabric state after every tick resolution (it
		// binds from the next tick — fault windows span many ticks). The
		// hooks run inside each node's Run under the engine lock; the whole
		// rack shares one fault schedule, as one impaired spine would.
		for _, c := range nodes {
			fab := c.Node().Fabric()
			primary := c == e.cl
			c.OnTick = func(now float64, _ memsys.Sample) {
				if primary {
					e.setSimNow(now)
				}
				fab.SetDegradation(cfg.Faults.FabricDegradation())
			}
		}
	}

	// Warm up: some seed load plus enough ticks to fill every window.
	spark := reg.Spark()
	for _, c := range nodes {
		c.Deploy(spark[e.rng.Intn(len(spark))], memsys.TierLocal)
		c.Run(float64(cfg.WarmupTicks))
	}
	e.ambientClock = e.cl.Now()
	e.serveStart = e.cl.Now()
	e.setSimNow(e.cl.Now())
	if cfg.Faults != nil {
		// Arm the schedule now — warmup ran clean, event times count from
		// serving start.
		cfg.Faults.SetClock(e.SimNow)
		cfg.Faults.Start(e.cl.Now())
	}
	e.view.Store(e.buildView())
	e.decider = e.newShard(0)
	return e
}

// inferStack assembles one decider's prediction path over pred, bottom to
// top: the model (its int8 twin when serving quantized) in a swappable slot
// — the hot-swap point, retargeted when the decider re-clones after a
// promotion — then fault injection closest to the model, then the circuit
// breaker + last-good cache, so the breaker sees injected failures exactly
// as it would real ones. The injector and the breaker are the engine's,
// shared by every stack (both concurrency-safe).
func (e *SystemEngine) inferStack(pred *core.Predictor) (*core.SwappableInference, core.PerfInference) {
	base := core.NewSwappableInference(e.bottomInference(pred))
	var infer core.PerfInference = base
	if e.cfg.Faults != nil {
		infer = &faults.FaultyPredictor{Inner: infer, Inj: e.cfg.Faults}
	}
	if e.brk != nil {
		infer = faults.NewGuardedPredictor(infer, e.brk)
	}
	return base, infer
}

// bottomInference is what sits in a stack's slot for pred.
func (e *SystemEngine) bottomInference(pred *core.Predictor) core.PerfInference {
	if e.cfg.Quantized {
		return core.NewQuantPredictor(pred)
	}
	return pred
}

// captureSignature stores an in-situ signature for a cold-started app that
// just completed a remote run on node c. Runs inside that node's Run under
// the engine lock.
func (e *SystemEngine) captureSignature(c *cluster.Cluster, in *workload.Instance) {
	if in.Tier != memsys.TierRemote || in.Profile.Class == workload.Interference {
		return
	}
	if e.sigs.Has(in.Profile.Name) {
		return
	}
	trace := e.watch.TraceBetween(c, in.StartAt, in.DoneAt)
	if len(trace) == 0 {
		return
	}
	_ = e.sigs.Put(in.Profile.Name, trace)
}

// captureOutcome joins a completed served instance back to its pending
// decision in the learning loop: realized performance (execution time for
// BE, p99 latency for LC) plus the realized future-state means. The cheap
// Expects guard keeps ambient completions from paying the history scans.
// Runs inside the node's Run under the engine lock.
func (e *SystemEngine) captureOutcome(c *cluster.Cluster, in *workload.Instance) {
	if e.learner == nil || !e.learner.Expects(in.ID) {
		return
	}
	now := c.Now()
	realized := in.ExecTime(now)
	if in.Profile.Class == workload.LatencyCritical {
		realized = in.TailLatency(99)
	}
	futEnd := in.StartAt + float64(e.watch.HistTicks)
	if in.DoneAt < futEnd {
		futEnd = in.DoneAt
	}
	fut120 := learn.MeanRows(e.watch.TraceBetween(c, in.StartAt, futEnd))
	futExec := fut120
	if in.DoneAt > futEnd {
		futExec = learn.MeanRows(e.watch.TraceBetween(c, in.StartAt, in.DoneAt))
	}
	e.learner.Complete(in.ID, realized, fut120, futExec, now)
}

// modelGenEvent is the bus payload for one model promotion on topic
// "model.generations".
type modelGenEvent struct {
	Generation     int     `json:"generation"`
	Class          string  `json:"class"`
	LiveErr        float64 `json:"live_err"`
	ShadowErr      float64 `json:"shadow_err"`
	ShadowFlipRate float64 `json:"shadow_flip_rate"`
	QuantFlipRate  float64 `json:"quant_flip_rate"`
	ShadowEvals    int     `json:"shadow_evals"`
	SimTime        float64 `json:"sim_time_s"`
}

// recordSwap audits and publishes one model promotion, and eagerly
// invalidates every replica shard's cloned inference stack — the shards
// re-clone from the promoted generation at the top of their next decide
// batch, so staleness is bounded by the one batch already in flight.
// Invoked by the learning loop at swap time, on the engine's lock context.
func (e *SystemEngine) recordSwap(ev learn.SwapEvent) {
	e.shardMu.Lock()
	for _, s := range e.shards {
		s.stale.Store(true)
	}
	e.shardMu.Unlock()
	if e.audit != nil {
		e.audit.Record(obs.DecisionRecord{
			Time:      time.Now(),
			SimTime:   ev.SimTime,
			App:       "-",
			Class:     ev.Class.String(),
			Tier:      "-",
			Reason:    "model-swap",
			Event:     "model-swap",
			ModelGen:  ev.Gen,
			BatchSize: ev.ShadowN,
		})
	}
	if e.cfg.Bus != nil {
		_, _ = e.cfg.Bus.Publish("model.generations", modelGenEvent{
			Generation:     ev.Gen,
			Class:          ev.Class.String(),
			LiveErr:        ev.LiveErr,
			ShadowErr:      ev.ShadowErr,
			ShadowFlipRate: ev.ShadowFlipRate,
			QuantFlipRate:  ev.QuantFlipRate,
			ShadowEvals:    ev.ShadowN,
			SimTime:        ev.SimTime,
		})
	}
}

// recordOutcome emits the wide "outcome" event for one realized completion
// the learning loop joined back to its decision — the realized half of the
// admission record, joinable by trace ID. Called by the loop under the
// engine lock.
func (e *SystemEngine) recordOutcome(o learn.Outcome) {
	if e.events == nil {
		return
	}
	tier := memsys.TierLocal
	if o.Remote == 1 {
		tier = memsys.TierRemote
	}
	e.events.Record(obs.WideEvent{
		Kind:       "outcome",
		TraceID:    o.TraceID,
		Time:       time.Now(),
		SimTime:    o.SimTime,
		App:        o.App,
		Class:      o.Class.String(),
		Tier:       tier.String(),
		PredLocalS: o.PredLive,
		RealizedS:  o.Realized,
		ModelGen:   o.Gen,
		SLOState:   e.sloStateLabel(),
	})
}

// AttachSLO arms SLO evaluation: Evaluate runs once per Advance tick on the
// engine's lock context, alert transitions are audited and published on the
// obs.alerts bus topic, and the overall state is stamped into every
// decision record and wide event from then on. Attach before serving.
func (e *SystemEngine) AttachSLO(s *obs.SLO) {
	s.OnTransition(func(tr obs.SLOTransition) {
		if e.audit != nil {
			e.audit.Record(obs.DecisionRecord{
				Time:     time.Now(),
				SimTime:  tr.SimTime,
				App:      "-",
				Class:    "-",
				Tier:     "-",
				Reason:   "slo-" + tr.To,
				Event:    "slo-alert",
				SLOState: tr.To,
			})
		}
		if e.cfg.Bus != nil {
			_, _ = e.cfg.Bus.Publish("obs.alerts", tr)
		}
	})
	e.slo.Store(s)
}

// SLO returns the attached evaluator (nil before AttachSLO).
func (e *SystemEngine) SLO() *obs.SLO { return e.slo.Load() }

// sloStateLabel returns the overall SLO state as a constant string for
// stamping into records — "" before AttachSLO, so the hot path pays one
// atomic load and no allocation.
func (e *SystemEngine) sloStateLabel() string {
	if s := e.slo.Load(); s != nil {
		return s.OverallState().String()
	}
	return ""
}

// countDecision feeds one decision's reason into the cumulative SLO
// counters. Lock-free; called on every decided placement, dry-run or not.
func (e *SystemEngine) countDecision(reason string) {
	e.sloDecisions.Add(1)
	if core.IsDowngradeReason(reason) {
		e.sloDowngrades.Add(1)
	}
	if core.IsPredictFailureReason(reason) {
		e.sloPredictErrs.Add(1)
	}
}

// SLOCounters returns the cumulative decision/downgrade/predict-failure and
// tick/breaker-open counts backing the SLO objective sources.
func (e *SystemEngine) SLOCounters() (decisions, downgrades, predictErrs, ticks, breakerOpen uint64) {
	return e.sloDecisions.Load(), e.sloDowngrades.Load(), e.sloPredictErrs.Load(),
		e.sloTicks.Load(), e.sloBreakerOpen.Load()
}

// decisionEvent is the bus payload for one placement decision — the
// adriasd wire shape plus the trace ID and decision reason.
type decisionEvent struct {
	TraceID   string  `json:"trace_id,omitempty"`
	App       string  `json:"app"`
	Class     string  `json:"class"`
	Tier      string  `json:"tier"`
	Node      int     `json:"node,omitempty"`
	PredLocal float64 `json:"pred_local,omitempty"`
	PredRem   float64 `json:"pred_remote,omitempty"`
	ColdStart bool    `json:"cold_start,omitempty"`
	Reason    string  `json:"reason,omitempty"`
	// ModelGen is the generation of the model that produced the decision
	// (0: learning loop disabled).
	ModelGen int `json:"model_gen,omitempty"`
}

// sampleEvent is the bus payload for one monitoring sample.
type sampleEvent struct {
	Time    float64   `json:"time"`
	Metrics []float64 `json:"metrics"`
	Running int       `json:"running"`
}

// PlaceBatch implements Engine through the engine's replica-0 decider: one
// Ŝ forecast + one batched inference per performance model for the whole
// coalesced batch against the published view, then one sequencer commit
// for its deploys (rack.go). Unknown applications fail individually with
// ErrUnknownApp; ctx carries the batch's obs.SpanRecorder through to the
// orchestrator's pipeline stages.
func (e *SystemEngine) PlaceBatch(ctx context.Context, reqs []PlaceRequest) []PlaceResult {
	results := make([]PlaceResult, len(reqs))
	e.PlaceBatchInto(ctx, reqs, results)
	return results
}

// PlaceBatchInto is the allocation-free core of PlaceBatch (see
// engineShard.PlaceBatchInto): results[i], caller-owned, answers reqs[i].
func (e *SystemEngine) PlaceBatchInto(ctx context.Context, reqs []PlaceRequest, results []PlaceResult) {
	e.placeMu.Lock()
	defer e.placeMu.Unlock()
	e.decider.PlaceBatchInto(ctx, reqs, results)
}

// Advance moves the testbed simSec simulated seconds forward, injecting
// ambient arrivals (coin-flip placed, the paper's load-generation
// semantics) along the way. The caller paces it against the wall clock.
// Arrivals are generated per whole-second slot of simulated time with the
// fractional remainder carried across calls, so the effective rate matches
// AmbientRate at any cadence — Advance(0.25) four times draws exactly the
// arrivals of one Advance(1).
func (e *SystemEngine) Advance(simSec float64) {
	if simSec <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.cl.Now()
	target := now + simSec
	// Tolerate float accumulation: a slot whose end lands within a
	// nanosecond of the target still counts as covered.
	const eps = 1e-9
	for e.ambientClock+1 <= target+eps {
		slot := e.ambientClock
		e.ambientClock++
		if !e.rng.Bernoulli(e.ambientRateAt(slot)) {
			continue
		}
		p := e.pickAmbient()
		// Ambient load spreads over the rack; the single-node branch skips
		// the node draw so Nodes=1 keeps the pre-rack arrival stream
		// bit-identical.
		c := e.cl
		if len(e.nodes) > 1 {
			c = e.nodes[e.rng.Intn(len(e.nodes))]
		}
		tier := memsys.TierLocal
		if e.rng.Bernoulli(0.5) {
			tier = memsys.TierRemote
		}
		// The arrival lands uniformly inside its slot; slots opened by an
		// earlier fractional call can reach back before the current clock,
		// so clamp (the engine refuses to schedule in the past).
		at := slot + e.rng.Float64()
		if at < now {
			at = now
		}
		c.DeployAt(at, p, func() memsys.Tier { return tier }, nil)
		e.ambientStarted++
	}
	for _, c := range e.nodes {
		c.Run(target)
	}
	e.setSimNow(e.cl.Now())
	// A tick moved every node: bump the version and publish a fresh view
	// with this tick's monitoring windows (the per-Advance rebuild is the
	// only place windows are reallocated — 1 Hz, off the request path).
	e.viewVer++
	v := e.buildView()
	e.view.Store(v)
	if e.cfg.Bus != nil {
		s := e.cl.LastSample()
		_, _ = e.cfg.Bus.Publish("watcher.samples", sampleEvent{
			Time: e.cl.Now(), Metrics: s.Vector(), Running: len(e.cl.Running()),
		})
		_, _ = e.cfg.Bus.Publish("cluster.view", cluster.View{
			Version: v.ver, Time: v.time, Nodes: v.occ,
		})
	}
	if e.learner != nil {
		e.learner.Poll(e.cl.Now())
	}
	// SLO evaluation rides the existing tick — no goroutine of its own, and
	// never on the request path. Breaker-open time is tick-sampled here so
	// the objective sees open windows even when no requests arrive.
	e.sloTicks.Add(1)
	if e.brk != nil && e.brk.State() != faults.Closed {
		e.sloBreakerOpen.Add(1)
	}
	if s := e.slo.Load(); s != nil {
		s.Evaluate(e.cl.Now())
	}
}

// ambientRateAt returns the ambient arrival rate for the slot starting at
// simulated time slot — constant AmbientRate, or linearly ramped toward
// AmbientRampTo over AmbientRampSec after serving start (induced drift).
func (e *SystemEngine) ambientRateAt(slot float64) float64 {
	if e.cfg.AmbientRampTo <= 0 || e.cfg.AmbientRampSec <= 0 {
		return e.cfg.AmbientRate
	}
	frac := (slot - e.serveStart) / e.cfg.AmbientRampSec
	if frac <= 0 {
		return e.cfg.AmbientRate
	}
	if frac >= 1 {
		return e.cfg.AmbientRampTo
	}
	return e.cfg.AmbientRate + frac*(e.cfg.AmbientRampTo-e.cfg.AmbientRate)
}

// Learner exposes the online learning loop (nil when disabled).
func (e *SystemEngine) Learner() *learn.Loop { return e.learner }

func (e *SystemEngine) pickAmbient() *workload.Profile {
	if e.rng.Bernoulli(e.cfg.IBenchShare) {
		ib := e.reg.IBench()
		return ib[e.rng.Intn(len(ib))]
	}
	return e.ambientApps[e.rng.Intn(len(e.ambientApps))]
}

// Signatures exposes the engine's signature read cache (safe concurrent
// reads for the HTTP layer).
func (e *SystemEngine) Signatures() *SignatureCache { return e.sigs }

// EngineStats is a point-in-time snapshot for health read-outs.
type EngineStats struct {
	SimTime        float64
	Running        int
	Completed      int
	Decisions      int
	AmbientStarted uint64
	LocalFreeGB    float64
	RemoteFreeGB   float64
	Ready          bool
	// Breaker is the predictor circuit breaker's state ("closed", "open",
	// "half-open"; empty when the breaker is disabled).
	Breaker string
	// FabricDegraded reports an impaired ThymesisFlow link (fault
	// injection).
	FabricDegraded bool
	// Degraded is the service-level degraded mode: the breaker is not
	// closed or the fabric is impaired. /healthz reports it alongside
	// Ready — degraded still answers requests, on fallback rules.
	Degraded bool
	// Nodes is the rack size; ViewVersion the published rack-state version.
	// Running/Completed and the pool capacities aggregate over all nodes.
	Nodes       int
	ViewVersion uint64
}

// Snapshot returns current testbed and orchestrator state, aggregated over
// the rack.
func (e *SystemEngine) Snapshot() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := EngineStats{
		SimTime:        e.cl.Now(),
		Decisions:      int(e.sloDecisions.Load()),
		AmbientStarted: e.ambientStarted,
		Ready:          e.watch.Ready(e.cl),
		Nodes:          len(e.nodes),
		ViewVersion:    e.viewVer,
	}
	for _, c := range e.nodes {
		s.Running += len(c.Running())
		s.Completed += len(c.Completed())
		s.LocalFreeGB += c.CapacityLeftGB(memsys.TierLocal)
		s.RemoteFreeGB += c.CapacityLeftGB(memsys.TierRemote)
		if c.Node().Fabric().Degraded() {
			s.FabricDegraded = true
		}
	}
	if e.brk != nil {
		st := e.brk.State()
		s.Breaker = st.String()
		s.Degraded = st != faults.Closed
	}
	s.Degraded = s.Degraded || s.FabricDegraded
	return s
}

// Breaker exposes the predictor circuit breaker (nil when disabled).
func (e *SystemEngine) Breaker() *faults.Breaker { return e.brk }

// RegisterMetrics publishes engine series on the service metric set: one
// block rendering every engine gauge off a single Snapshot (one engine-lock
// acquisition per scrape instead of one per series), the signature-cache
// hit/miss counters (counter-typed, matching their _total names), and —
// when the breaker is on — the breaker state gauge and lifetime counters.
func (e *SystemEngine) RegisterMetrics(m *Metrics) {
	m.AddBlock(func(w io.Writer) {
		s := e.Snapshot()
		obs.WriteGauge(w, "adrias_serve_sim_time_seconds", "Simulated testbed time.", s.SimTime)
		obs.WriteGauge(w, "adrias_serve_running_instances", "Instances running on the testbed.", float64(s.Running))
		obs.WriteGauge(w, "adrias_serve_signatures", "Signatures in the store.", float64(e.sigs.Len()))
		h, ms := e.sigs.Stats()
		obs.WriteCounter(w, "adrias_serve_sigcache_hits_total", "Signature-cache hits.", uint64(h))
		obs.WriteCounter(w, "adrias_serve_sigcache_misses_total", "Signature-cache misses.", uint64(ms))
		obs.WriteCounter(w, "adrias_serve_predict_memo_hits_total", "Prediction queries answered from the per-window memo (engine + shards); no model ran for these.", e.memo.Hits.Load())
		obs.WriteCounter(w, "adrias_serve_predict_memo_misses_total", "Prediction queries the models computed (engine + shards). adrias_models_* and the sysstate_predict/perf_predict spans describe these batches only.", e.memo.Misses.Load())
		degraded := 0.0
		if s.Degraded {
			degraded = 1
		}
		obs.WriteGauge(w, "adrias_serve_degraded", "1 while serving in degraded mode (breaker open/half-open or fabric impaired).", degraded)
		obs.WriteGauge(w, "adrias_serve_cluster_nodes", "Nodes in the simulated rack.", float64(s.Nodes))
		obs.WriteGauge(w, "adrias_serve_cluster_view_version", "Version of the published rack-state view.", float64(s.ViewVersion))
		obs.WriteCounter(w, "adrias_serve_commit_conflicts_total", "Optimistic remote claims that lost the commit race.", e.conflicts.Load())
		obs.WriteCounter(w, "adrias_serve_commit_retries_total", "Conflict losers re-decided against a refreshed view.", e.commitRetries.Load())
		obs.WriteCounter(w, "adrias_serve_commit_downgrades_total", "Conflict losers downgraded to the safe local tier (reason commit-conflict).", e.downgrades.Load())
		obs.WriteCounter(w, "adrias_serve_retry_dropped_total", "Conflict losers evicted from the full retry ring.", e.retryDrops.Load())
		obs.WriteCounter(w, "adrias_serve_commits_total", "Deploying claims that won their commit (deploys = commits + commit downgrades).", e.commits.Load())
		obs.WriteCounter(w, "adrias_serve_shard_decisions_total", "Placement decisions made by replica deciders (the engine's own is replica 0).", e.sloDecisions.Load())
		obs.WriteCounter(w, "adrias_serve_shard_reclones_total", "Shard inference stacks re-cloned after a model promotion.", e.shardReclones.Load())
		obs.WriteCounter(w, "adrias_serve_finalize_dups_total", "Double-finalize attempts on retry items caught by the claim guard.", e.dupFinalizes.Load())
		e.shardMu.Lock()
		if len(e.shards) > 0 {
			name := "adrias_serve_shard_generation"
			fmt.Fprintf(w, "# HELP %s Model generation each replica shard currently serves.\n# TYPE %s gauge\n", name, name)
			for _, sh := range e.shards {
				fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", name, sh.id, sh.gen.Load())
			}
		}
		e.shardMu.Unlock()
		obs.WriteCounter(w, "adrias_serve_decisions_total", "Placement decisions, dry runs included.", e.sloDecisions.Load())
		obs.WriteCounter(w, "adrias_serve_downgrades_total", "Decisions downgraded to safe local by capacity, fabric, or commit pressure.", e.sloDowngrades.Load())
		obs.WriteCounter(w, "adrias_serve_predict_failures_total", "Decisions produced by a failed or short-circuited prediction path.", e.sloPredictErrs.Load())
		if v := e.view.Load(); v != nil {
			writeNodeGauge := func(name, help string, val func(cluster.NodeOccupancy) float64) {
				fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
				for _, o := range v.occ {
					fmt.Fprintf(w, "%s{node=\"%d\"} %g\n", name, o.Node, val(o))
				}
			}
			writeNodeGauge("adrias_serve_node_running", "Instances running per rack node.",
				func(o cluster.NodeOccupancy) float64 { return float64(o.Running) })
			writeNodeGauge("adrias_serve_node_remote_free_gb", "Free remote-pool memory per rack node.",
				func(o cluster.NodeOccupancy) float64 { return o.RemoteFreeGB })
			writeNodeGauge("adrias_serve_node_fabric_util", "ThymesisFlow link utilization per rack node.",
				func(o cluster.NodeOccupancy) float64 { return o.FabricUtil })
		}
		if e.brk != nil {
			obs.WriteGauge(w, "adrias_serve_breaker_state",
				"Predictor circuit breaker state: 0 closed, 1 open, 2 half-open.",
				float64(e.brk.State()))
			c := e.brk.Counters()
			obs.WriteCounter(w, "adrias_serve_breaker_trips_total", "Breaker trips (transitions to open).", c.Trips)
			obs.WriteCounter(w, "adrias_serve_breaker_recoveries_total", "Breaker recoveries (half-open probes that closed it).", c.Recoveries)
			obs.WriteCounter(w, "adrias_serve_breaker_short_circuited_total", "Prediction batches short-circuited while open.", c.ShortCircuited)
		}
	})
	if e.learner != nil {
		m.AddBlock(e.learner.WriteMetrics)
	}
}

// RegisterObs wires the engine into the service's observability surfaces:
// placement decisions flow into the audit log behind /debug/decisions, and
// the testbed's ThymesisFlow fabric telemetry registers on the /metrics
// registry. Fabric reads are guarded by the engine mutex — the Fabric
// itself is not concurrency-safe and ticks under that lock.
func (e *SystemEngine) RegisterObs(tel *Telemetry) {
	e.audit = tel.Audit
	e.cl.Node().Fabric().RegisterMetrics(tel.Registry, func(read func()) {
		e.mu.Lock()
		defer e.mu.Unlock()
		read()
	})
}
