package serve

import (
	"fmt"

	"adrias/internal/obs"
)

// The service's SLO objective catalog (DESIGN.md §15). Six objectives cover
// the paper's operational promise end to end: the admission pipeline stays
// fast (latency, queue-wait), placements keep the model's judgment
// (downgrade rate, commit-conflict rate), and the prediction path stays
// healthy (predict-error rate, breaker-open time). Every source reads
// atomics only — Evaluate runs under the engine lock off the advance tick.

// SLOConfig tunes BuildSLO. The zero value selects the defaults; Spec
// applies -slo-spec overrides on top (obs.ParseSLOSpec syntax).
type SLOConfig struct {
	// Spec is the -slo-spec override string (budget, windows, burn
	// thresholds, latency thresholds per objective); empty keeps defaults.
	Spec string
	// LatencyThresh is the admission-latency objective's bad threshold in
	// seconds (default 0.1 — a histogram bucket boundary, so the count is
	// exact).
	LatencyThresh float64
	// QueueThresh is the queue-wait objective's bad threshold in seconds
	// (default 0.05, also a bucket boundary).
	QueueThresh float64
}

// SLO objective names — the closed vocabulary the spec string addresses.
const (
	SLOAdmissionLatency = "admission-latency"
	SLOQueueWait        = "queue-wait"
	SLODowngradeRate    = "downgrade-rate"
	SLOConflictRate     = "commit-conflict-rate"
	SLOPredictError     = "predict-error"
	SLOBreakerOpen      = "breaker-open"
)

// BuildSLO assembles the service's SLO evaluator over the live metric set
// and engine counters, with -slo-spec overrides applied. Attach the result
// with eng.AttachSLO before serving.
func BuildSLO(cfg SLOConfig, met *Metrics, eng *SystemEngine) (*obs.SLO, error) {
	if met == nil || eng == nil {
		return nil, fmt.Errorf("serve: BuildSLO needs a metric set and an engine")
	}
	if cfg.LatencyThresh <= 0 {
		cfg.LatencyThresh = 0.1
	}
	if cfg.QueueThresh <= 0 {
		cfg.QueueThresh = 0.05
	}
	specs := map[string]obs.SLOSpec{}
	if cfg.Spec != "" {
		var err error
		specs, err = obs.ParseSLOSpec(cfg.Spec)
		if err != nil {
			return nil, err
		}
		for name := range specs {
			switch name {
			case SLOAdmissionLatency, SLOQueueWait, SLODowngradeRate,
				SLOConflictRate, SLOPredictError, SLOBreakerOpen:
			default:
				return nil, fmt.Errorf("serve: -slo-spec names unknown objective %q", name)
			}
		}
	}
	if sp, ok := specs[SLOAdmissionLatency]; ok && !isUnsetThresh(sp) {
		cfg.LatencyThresh = sp.Thresh
	}
	if sp, ok := specs[SLOQueueWait]; ok && !isUnsetThresh(sp) {
		cfg.QueueThresh = sp.Thresh
	}

	latThresh, qwThresh := cfg.LatencyThresh, cfg.QueueThresh
	objs := []obs.SLOObjective{
		{
			Name:   SLOAdmissionLatency,
			Help:   fmt.Sprintf("Admission-pipeline latency ≤ %gs (p99-style compliance).", latThresh),
			Budget: 0.01,
			Source: func() (float64, float64) {
				return float64(met.Latency.CountOver(latThresh)), float64(met.Latency.Count())
			},
		},
		{
			Name:   SLOQueueWait,
			Help:   fmt.Sprintf("Admission→dispatch queue wait ≤ %gs.", qwThresh),
			Budget: 0.05,
			Source: func() (float64, float64) {
				return float64(met.QueueWait.CountOver(qwThresh)), float64(met.QueueWait.Count())
			},
		},
		{
			Name:   SLODowngradeRate,
			Help:   "Placements downgraded to safe local by capacity, fabric, or commit pressure.",
			Budget: 0.05,
			Source: func() (float64, float64) {
				dec, down, _, _, _ := eng.SLOCounters()
				return float64(down), float64(dec)
			},
		},
		{
			Name:   SLOConflictRate,
			Help:   "Optimistic commit attempts that lost the race (sharded admission).",
			Budget: 0.1,
			Source: func() (float64, float64) {
				conflicts := eng.conflicts.Load()
				return float64(conflicts), float64(eng.sloDecisions.Load() + conflicts)
			},
		},
		{
			Name:   SLOPredictError,
			Help:   "Decisions served by a failed or breaker-short-circuited prediction path.",
			Budget: 0.1,
			Source: func() (float64, float64) {
				dec, _, perr, _, _ := eng.SLOCounters()
				return float64(perr), float64(dec)
			},
		},
		{
			Name:   SLOBreakerOpen,
			Help:   "Share of engine ticks with the predictor breaker not closed.",
			Budget: 0.05,
			Source: func() (float64, float64) {
				_, _, _, ticks, open := eng.SLOCounters()
				return float64(open), float64(ticks)
			},
		},
	}
	for i := range objs {
		if sp, ok := specs[objs[i].Name]; ok {
			sp.Apply(&objs[i])
		}
	}
	return obs.NewSLO(objs), nil
}

// isUnsetThresh reports a spec with no thresh= setting (NaN sentinel).
func isUnsetThresh(sp obs.SLOSpec) bool { return sp.Thresh != sp.Thresh }
