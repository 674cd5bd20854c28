// Package core implements Adrias itself (paper §V): the Watcher that
// monitors the node's performance events, the Predictor that wraps the two
// stacked deep-learning models, and the Orchestrator with its scheduling
// logic — the β-slack rule for best-effort applications and the QoS rule
// for latency-critical ones — plus the Random, Round-Robin and All-Local
// baseline schedulers the paper compares against.
package core

import (
	"fmt"
	"sort"

	"adrias/internal/cluster"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/models"
)

// Watcher is the monitoring component: it reads the node's performance
// events (LLC loads/misses, local memory loads/stores, fabric flits and
// latency) from the cluster's per-tick history and exposes the sliding
// history window the Predictor consumes.
type Watcher struct {
	// HistTicks is the history window length in ticks (paper: 120 s).
	HistTicks int
	// Steps is the number of resampled steps handed to the models.
	Steps int

	// WindowInto scratch: raw tick rows and the resampled window, each a
	// row-view slice over one flat backing vector. Like the models, a
	// Watcher using WindowInto is not safe for concurrent use (the serve
	// engine serializes the decide path under its mutex).
	raw, out []mathx.Vector
}

// NewWatcher builds a watcher matching a performance-model dataset spec.
func NewWatcher(spec models.PerfDatasetSpec) *Watcher {
	return &Watcher{HistTicks: spec.HistTicks, Steps: spec.HistTicks / spec.Stride}
}

// Ready reports whether the cluster has accumulated a full history window.
func (w *Watcher) Ready(c *cluster.Cluster) bool {
	return len(c.History()) >= w.HistTicks
}

// Window returns the current resampled history window, or nil when not yet
// Ready. The cluster must have been created with KeepHistory enabled.
func (w *Watcher) Window(c *cluster.Cluster) []mathx.Vector {
	hist := c.History()
	if len(hist) < w.HistTicks {
		return nil
	}
	rows := make([]mathx.Vector, w.HistTicks)
	for i, r := range hist[len(hist)-w.HistTicks:] {
		rows[i] = mathx.Vector(r.Sample.Vector())
	}
	return models.ResampleSeq(rows, w.Steps)
}

// WindowInto is the allocation-free twin of Window for the serve hot path:
// it stages the current history window into watcher-owned scratch and
// returns it, or nil when not yet Ready. The returned rows are valid until
// the next WindowInto call; callers (DecideBatchInto) consume them within
// the same batch.
func (w *Watcher) WindowInto(c *cluster.Cluster) []mathx.Vector {
	hist := c.History()
	if len(hist) < w.HistTicks {
		return nil
	}
	M := memsys.NumMetrics
	if len(w.raw) != w.HistTicks || len(w.out) != w.Steps {
		rawBuf := mathx.NewVector(w.HistTicks * M)
		w.raw = make([]mathx.Vector, w.HistTicks)
		for i := range w.raw {
			w.raw[i] = rawBuf[i*M : (i+1)*M]
		}
		outBuf := mathx.NewVector(w.Steps * M)
		w.out = make([]mathx.Vector, w.Steps)
		for i := range w.out {
			w.out[i] = outBuf[i*M : (i+1)*M]
		}
	}
	for i, r := range hist[len(hist)-w.HistTicks:] {
		r.Sample.VectorInto(w.raw[i])
	}
	models.ResampleSeqInto(w.out, w.raw)
	return w.out
}

// TraceBetween extracts the raw metric trace of the ticks in (from, to] —
// used to capture an application's signature from its in-situ run. The
// history is in time order, so the bounds are found by bisection: a long
// running server pays for the span it asks about, not for its uptime.
func (w *Watcher) TraceBetween(c *cluster.Cluster, from, to float64) []mathx.Vector {
	hist := c.History()
	lo := sort.Search(len(hist), func(i int) bool { return hist[i].Time > from })
	hi := sort.Search(len(hist), func(i int) bool { return hist[i].Time > to })
	if hi <= lo {
		return nil
	}
	out := make([]mathx.Vector, 0, hi-lo)
	for _, r := range hist[lo:hi] {
		out = append(out, mathx.Vector(r.Sample.Vector()))
	}
	return out
}

// Predictor bundles the trained models and the signature store — the
// stacked-LSTM component of Fig. 7. Like its models it serves one caller at
// a time. PredictPerfBatch remembers answers per window (predMemo), so a
// Predictor's models are frozen once it predicts: to serve retrained or
// reloaded weights build a new Predictor value, as the learning loop does.
type Predictor struct {
	Sys  *models.SysStateModel
	BE   *models.PerfModel // universal best-effort model (target: exec time)
	LC   *models.PerfModel // universal latency-critical model (target: p99)
	Sigs *models.SignatureStore
	// Memo, when set, counts PredictPerfBatch's memo hits and misses;
	// NewQuantPredictor hands it on to the int8 twin.
	Memo *MemoStats

	arena predictArena
}

// Clone copies the models for another caller's exclusive use (a replica
// shard's decider). The signature store and the memo counters stay shared;
// the memo itself starts empty.
func (p *Predictor) Clone() *Predictor {
	c := &Predictor{Sigs: p.Sigs, Memo: p.Memo}
	if p.Sys != nil {
		c.Sys = p.Sys.Clone()
	}
	if p.BE != nil {
		c.BE = p.BE.Clone()
	}
	if p.LC != nil {
		c.LC = p.LC.Clone()
	}
	return c
}

// PredictPerf estimates the performance of deploying app (identified by its
// signature name and class) on the given tier, given the current history
// window: execution time in seconds for BE, p99 in milliseconds for LC.
// The future system state Ŝ is propagated from the system-state model —
// the paper's pragmatic {120, Ŝ} configuration.
func (p *Predictor) PredictPerf(name string, class PerfClass, window []mathx.Vector, tier memsys.Tier) (float64, error) {
	if len(window) == 0 {
		return 0, fmt.Errorf("core: empty history window")
	}
	m := p.BE
	if class == ClassLC {
		m = p.LC
	}
	if m == nil {
		return 0, fmt.Errorf("core: no model for class %v", class)
	}
	remote := 0.0
	if tier == memsys.TierRemote {
		remote = 1
	}
	s := models.PerfSample{
		App:        name,
		Remote:     remote,
		Past:       window,
		FuturePred: p.Sys.Predict(window),
	}
	return m.PredictWith(&s, models.FuturePredicted)
}

// PerfClass mirrors the BE/LC split without importing workload everywhere.
type PerfClass int

const (
	// ClassBE marks best-effort applications.
	ClassBE PerfClass = iota
	// ClassLC marks latency-critical applications.
	ClassLC
)
