package core

import (
	"fmt"
	"math"
	"testing"

	"adrias/internal/cluster"
	"adrias/internal/dataset"
	"adrias/internal/memsys"
	"adrias/internal/models"
	"adrias/internal/scenario"
	"adrias/internal/workload"
)

var registry = workload.NewRegistry()

func TestDecideBERule(t *testing.T) {
	cases := []struct {
		beta, local, remote float64
		want                memsys.Tier
	}{
		{1.0, 50, 60, memsys.TierLocal},   // local strictly faster
		{1.0, 60, 60, memsys.TierRemote},  // tie goes remote (not strictly less)
		{0.8, 50, 60, memsys.TierRemote},  // 50 ≥ 0.8×60=48 → willing to pay slack
		{0.8, 40, 60, memsys.TierLocal},   // 40 < 48
		{0.6, 50, 100, memsys.TierLocal},  // 50 < 60
		{0.6, 65, 100, memsys.TierRemote}, // 65 ≥ 60
	}
	for i, c := range cases {
		if got := DecideBE(c.beta, c.local, c.remote); got != c.want {
			t.Errorf("case %d: DecideBE(%v,%v,%v) = %v, want %v", i, c.beta, c.local, c.remote, got, c.want)
		}
	}
}

func TestDecideBEBetaMonotone(t *testing.T) {
	// Lower β must never turn a remote decision back into local.
	for _, local := range []float64{10, 50, 90} {
		for _, remote := range []float64{20, 60, 100} {
			prevRemote := false
			for _, beta := range []float64{1.0, 0.9, 0.8, 0.7, 0.6} {
				isRemote := DecideBE(beta, local, remote) == memsys.TierRemote
				if prevRemote && !isRemote {
					t.Errorf("β monotonicity violated at local=%v remote=%v β=%v", local, remote, beta)
				}
				prevRemote = isRemote
			}
		}
	}
}

func TestDecideLCRule(t *testing.T) {
	if DecideLC(2.0, true, 1.5) != memsys.TierRemote {
		t.Error("within QoS should offload")
	}
	if DecideLC(2.0, true, 2.5) != memsys.TierLocal {
		t.Error("QoS violation predicted should stay local")
	}
	if DecideLC(0, false, 0.1) != memsys.TierLocal {
		t.Error("no QoS constraint should stay local")
	}
}

func TestBaselineSchedulers(t *testing.T) {
	c := cluster.New(cluster.DefaultConfig())
	p := registry.ByName("gmm")

	r := NewRandom(3)
	counts := map[memsys.Tier]int{}
	for i := 0; i < 1000; i++ {
		counts[r.Decide(p, c)]++
	}
	if counts[memsys.TierLocal] < 400 || counts[memsys.TierLocal] > 600 {
		t.Errorf("random split = %v", counts)
	}

	rr := NewRoundRobin()
	seq := []memsys.Tier{rr.Decide(p, c), rr.Decide(p, c), rr.Decide(p, c), rr.Decide(p, c)}
	if seq[0] != memsys.TierLocal || seq[1] != memsys.TierRemote ||
		seq[2] != memsys.TierLocal || seq[3] != memsys.TierRemote {
		t.Errorf("round robin sequence = %v", seq)
	}

	if (AllLocal{}).Decide(p, c) != memsys.TierLocal {
		t.Error("AllLocal wrong")
	}
	if (AllRemote{}).Decide(p, c) != memsys.TierRemote {
		t.Error("AllRemote wrong")
	}
	for _, s := range []Scheduler{r, rr, AllLocal{}, AllRemote{}} {
		if s.Name() == "" {
			t.Error("scheduler without name")
		}
	}
}

func TestWatcherWindow(t *testing.T) {
	c := cluster.New(cluster.DefaultConfig())
	c.Deploy(registry.ByName("redis"), memsys.TierLocal)
	w := NewWatcher(models.PerfDatasetSpec{HistTicks: 20, FutureTicks: 20, Stride: 5})

	c.Run(10)
	if w.Ready(c) {
		t.Error("watcher ready with only 10 ticks of history")
	}
	if w.Window(c) != nil {
		t.Error("window should be nil before ready")
	}
	c.Run(30)
	if !w.Ready(c) {
		t.Fatal("watcher not ready after 30 ticks")
	}
	win := w.Window(c)
	if len(win) != 4 {
		t.Fatalf("window steps = %d, want 4", len(win))
	}
	for _, row := range win {
		if len(row) != memsys.NumMetrics {
			t.Fatalf("row arity = %d", len(row))
		}
	}
	// The redis deployment must be visible in the counters.
	if win[3][0] == 0 {
		t.Error("window shows no LLC loads")
	}
}

func TestWatcherTraceBetween(t *testing.T) {
	c := cluster.New(cluster.DefaultConfig())
	c.Deploy(registry.ByName("gmm"), memsys.TierRemote)
	c.Run(30)
	w := NewWatcher(models.DefaultPerfDatasetSpec())
	trace := w.TraceBetween(c, 5, 15)
	if len(trace) != 10 {
		t.Errorf("trace length = %d, want 10", len(trace))
	}
	// The bounds are (from, to] against a walk of the whole history, on and
	// off tick boundaries, before the first tick, past the last, and empty.
	for _, r := range [][2]float64{{5, 15}, {4.5, 15.5}, {-1, 3}, {0, 0.5}, {28, 99}, {30, 40}, {12, 12}, {15, 5}} {
		var want [][]float64
		for _, rec := range c.History() {
			if rec.Time > r[0] && rec.Time <= r[1] {
				want = append(want, rec.Sample.Vector())
			}
		}
		got := w.TraceBetween(c, r[0], r[1])
		if len(got) != len(want) {
			t.Fatalf("TraceBetween(%v, %v] = %d rows, walk finds %d", r[0], r[1], len(got), len(want))
		}
		for i := range got {
			for m := range got[i] {
				if got[i][m] != want[i][m] {
					t.Fatalf("TraceBetween(%v, %v] row %d differs from the walk", r[0], r[1], i)
				}
			}
		}
	}
}

// trainTinyPredictor builds a minimally trained Predictor good enough for
// behavioral tests (decision bookkeeping, cold start, fallbacks).
func trainTinyPredictor(t *testing.T) (*Predictor, *Watcher, models.PerfDatasetSpec) {
	t.Helper()
	spec := models.PerfDatasetSpec{HistTicks: 60, FutureTicks: 60, Stride: 10}
	corpus := scenario.CorpusSpec{
		BaseSeed: 300, DurationSec: 600, SpawnMin: 5, SpawnMaxes: []float64{15},
		SeedsPer: 4, IBenchShare: 0.35, KeepHistory: true,
	}
	results, err := scenario.RunCorpus(corpus, registry, nil)
	if err != nil {
		t.Fatal(err)
	}
	var windows []dataset.Window
	for _, r := range results {
		ws, err := dataset.FromHistory(r.History, dataset.WindowSpec{
			Hist: spec.HistTicks, Horizon: spec.FutureTicks, Stride: spec.Stride, Hop: 11})
		if err != nil {
			t.Fatal(err)
		}
		windows = append(windows, ws...)
	}
	sysCfg := models.SysStateConfig{Hidden: 12, BlockDim: 16, Dropout: 0, LR: 2e-3, Epochs: 8, Batch: 16, Seed: 3}
	sys := models.NewSysStateModel(sysCfg)
	trainIdx, _ := dataset.Split(len(windows), 0.8, 5)
	if err := sys.Fit(windows, trainIdx); err != nil {
		t.Fatal(err)
	}

	sigs, err := models.BuildSignatures(registry, spec.HistTicks/spec.Stride, 17)
	if err != nil {
		t.Fatal(err)
	}
	samples := models.BuildPerfSamples(results, spec)
	var be, lc []models.PerfSample
	for _, s := range samples {
		if s.Class == workload.BestEffort {
			be = append(be, s)
		} else {
			lc = append(lc, s)
		}
	}
	pcfg := models.PerfConfig{
		Hidden: 10, BlockDim: 16, Dropout: 0, LR: 2e-3, Epochs: 10, Batch: 16, Seed: 5,
		TrainFuture: models.Future120Actual, EvalFuture: models.FuturePredicted,
	}
	beModel := models.NewPerfModel(pcfg, sigs)
	beIdx := make([]int, len(be))
	for i := range beIdx {
		beIdx[i] = i
	}
	if err := beModel.Fit(be, beIdx); err != nil {
		t.Fatal(err)
	}
	lcModel := models.NewPerfModel(pcfg, sigs)
	lcIdx := make([]int, len(lc))
	for i := range lcIdx {
		lcIdx[i] = i
	}
	if len(lc) < 5 {
		t.Fatalf("too few LC samples: %d", len(lc))
	}
	if err := lcModel.Fit(lc, lcIdx); err != nil {
		t.Fatal(err)
	}
	pred := &Predictor{Sys: sys, BE: beModel, LC: lcModel, Sigs: sigs}
	return pred, NewWatcher(spec), spec
}

func TestOrchestratorEndToEnd(t *testing.T) {
	pred, watch, _ := trainTinyPredictor(t)
	orch := NewOrchestrator(pred, watch, 0.8)
	// Loose QoS so some LC offloads can happen.
	orch.QoSMs["redis"] = 1e6
	orch.QoSMs["memcached"] = 1e6

	cfg := scenario.Config{
		Seed: 777, DurationSec: 500, SpawnMin: 5, SpawnMax: 20,
		IBenchShare: 0.3, KeepHistory: true,
		OnComplete: orch.OnComplete,
	}
	res, err := scenario.Run(cfg, registry, orch.Decide)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) == 0 {
		t.Fatal("no runs completed")
	}
	stats := orch.Stats()
	if stats.Total == 0 {
		t.Fatal("no decisions recorded")
	}
	// With all examined-app signatures present, only iBench arrivals (which
	// Adrias has never seen) may cold-start.
	for _, d := range orch.Decisions() {
		if d.ColdStart && d.Class != workload.Interference {
			t.Errorf("unexpected cold start for examined app %s", d.App)
		}
	}
	// Early decisions (before 60 ticks of history) are local fallbacks.
	if orch.Decisions()[0].Fallback != true && orch.Decisions()[0].ColdStart != true {
		t.Error("first decision should be a fallback (no history yet)")
	}
	// Predictions must be recorded for non-fallback BE decisions.
	sawPred := false
	for _, d := range orch.Decisions() {
		if d.Class == workload.BestEffort && !d.Fallback && !d.ColdStart {
			if d.PredLocal <= 0 || d.PredRem <= 0 {
				t.Errorf("BE decision for %s lacks predictions: %+v", d.App, d)
			}
			sawPred = true
		}
	}
	if !sawPred {
		t.Error("no predicted BE decisions observed")
	}
}

func TestOrchestratorColdStart(t *testing.T) {
	pred, watch, spec := trainTinyPredictor(t)
	// Empty the signature store view by using a fresh store.
	pred.Sigs = models.NewSignatureStore(spec.HistTicks / spec.Stride)
	orch := NewOrchestrator(pred, watch, 0.8)

	cfg := scenario.Config{
		Seed: 888, DurationSec: 400, SpawnMin: 5, SpawnMax: 25,
		IBenchShare: 0, KeepHistory: true,
		OnComplete: orch.OnComplete,
	}
	res, err := scenario.Run(cfg, registry, orch.Decide)
	if err != nil {
		t.Fatal(err)
	}
	stats := orch.Stats()
	if stats.Cold == 0 {
		t.Fatal("expected cold starts with an empty signature store")
	}
	// Cold-started apps went remote.
	for _, d := range orch.Decisions() {
		if d.ColdStart && d.Tier != memsys.TierRemote {
			t.Errorf("cold start for %s placed on %v", d.App, d.Tier)
		}
	}
	// Signatures were captured for completed cold-start apps.
	if len(pred.Sigs.Names()) == 0 {
		t.Error("no signatures captured in-situ")
	}
	_ = res
}

func TestOrchestratorQoSGate(t *testing.T) {
	pred, watch, _ := trainTinyPredictor(t)

	// Impossible QoS: LC apps must never be offloaded.
	strict := NewOrchestrator(pred, watch, 0.8)
	strict.QoSMs["redis"] = 1e-9
	strict.QoSMs["memcached"] = 1e-9
	cfg := scenario.Config{
		Seed: 999, DurationSec: 400, SpawnMin: 5, SpawnMax: 20,
		IBenchShare: 0.2, KeepHistory: true,
	}
	if _, err := scenario.Run(cfg, registry, strict.Decide); err != nil {
		t.Fatal(err)
	}
	for _, d := range strict.Decisions() {
		if d.Class == workload.LatencyCritical && d.Tier == memsys.TierRemote {
			t.Errorf("LC %s offloaded despite impossible QoS", d.App)
		}
	}
}

func TestOrchestratorBadBetaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewOrchestrator(nil, nil, 0)
}

func TestOrchestratorName(t *testing.T) {
	pred, watch, _ := trainTinyPredictor(t)
	o := NewOrchestrator(pred, watch, 0.7)
	if o.Name() != "adrias(β=0.7)" {
		t.Errorf("Name = %q", o.Name())
	}
}

func TestPerfClassValues(t *testing.T) {
	if ClassBE == ClassLC {
		t.Error("classes must differ")
	}
}

func TestPredictorEmptyWindowErrors(t *testing.T) {
	pred, _, _ := trainTinyPredictor(t)
	if _, err := pred.PredictPerf("gmm", ClassBE, nil, memsys.TierLocal); err == nil {
		t.Error("expected error on empty window")
	}
}

func TestPredictorSanity(t *testing.T) {
	// Predictions for a heavy-penalty app should rank remote above local
	// most of the time once trained (nweight has ≈2× remote penalty).
	pred, watch, _ := trainTinyPredictor(t)
	c := cluster.New(cluster.DefaultConfig())
	c.Deploy(registry.ByName("redis"), memsys.TierLocal)
	c.Run(70)
	win := watch.Window(c)
	if win == nil {
		t.Fatal("no window")
	}
	local, err := pred.PredictPerf("nweight", ClassBE, win, memsys.TierLocal)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := pred.PredictPerf("nweight", ClassBE, win, memsys.TierRemote)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("nweight predictions: local %.1f s remote %.1f s", local, remote)
	if local <= 0 || remote <= 0 {
		t.Error("non-positive predictions")
	}
	if math.IsNaN(local) || math.IsNaN(remote) {
		t.Error("NaN predictions")
	}
}

func TestRandomInterferenceWrapper(t *testing.T) {
	c := cluster.New(cluster.DefaultConfig())
	w := NewRandomInterference(AllLocal{}, 11)
	if w.Name() != "all-local" {
		t.Errorf("wrapper should expose inner name, got %q", w.Name())
	}
	// Examined apps go through the wrapped scheduler.
	for i := 0; i < 10; i++ {
		if got := w.Decide(registry.ByName("gmm"), c); got != memsys.TierLocal {
			t.Fatalf("examined app should follow inner scheduler, got %v", got)
		}
	}
	// Interference apps are coin-flipped.
	counts := map[memsys.Tier]int{}
	for i := 0; i < 400; i++ {
		counts[w.Decide(registry.ByName("ibench-membw"), c)]++
	}
	if counts[memsys.TierLocal] < 120 || counts[memsys.TierRemote] < 120 {
		t.Errorf("iBench placement not balanced: %v", counts)
	}
	// Same seed → same interference sequence.
	w1 := NewRandomInterference(AllLocal{}, 77)
	w2 := NewRandomInterference(NewRoundRobin(), 77)
	for i := 0; i < 50; i++ {
		a := w1.Decide(registry.ByName("ibench-cpu"), c)
		b := w2.Decide(registry.ByName("ibench-cpu"), c)
		if a != b {
			t.Fatal("same seed must give identical interference placement")
		}
	}
}

func TestOrchestratorCapacityGate(t *testing.T) {
	pred, watch, _ := trainTinyPredictor(t)
	orch := NewOrchestrator(pred, watch, 0.6) // eager to offload
	cfg := cluster.DefaultConfig()
	cfg.Node.RemotePoolGB = 0.1 // nothing fits remote
	c := cluster.New(cfg)
	c.Deploy(registry.ByName("redis"), memsys.TierLocal)
	c.Run(70)
	tier := orch.Decide(registry.ByName("gmm"), c)
	if tier != memsys.TierLocal {
		t.Errorf("full remote pool should force local, got %v", tier)
	}
	d, _ := orch.LastDecision()
	if d.Tier == memsys.TierRemote {
		t.Error("decision bookkeeping disagrees with returned tier")
	}
}

// TestDecisionRetentionBounded is the regression test for the unbounded
// decision-list memory leak: retention is capped (drop-oldest ring) while
// TotalDecisions and Stats stay exact via running counters.
func TestDecisionRetentionBounded(t *testing.T) {
	o := &Orchestrator{MaxDecisions: 8}
	const n = 100
	for i := 0; i < n; i++ {
		d := Decision{App: fmt.Sprintf("app-%d", i)}
		if i%2 == 0 {
			d.Tier = memsys.TierRemote
		}
		if i%5 == 0 {
			d.ColdStart = true
		}
		if i%10 == 0 {
			d.Fallback = true
		}
		o.record(d)
	}
	ds := o.Decisions()
	if len(ds) != 8 {
		t.Fatalf("retained %d decisions, want 8", len(ds))
	}
	// Oldest-first: the ring holds exactly the last 8.
	for i, d := range ds {
		if want := fmt.Sprintf("app-%d", n-8+i); d.App != want {
			t.Errorf("retained[%d] = %s, want %s", i, d.App, want)
		}
	}
	last, ok := o.LastDecision()
	if !ok || last.App != "app-99" {
		t.Errorf("LastDecision = %+v, %v", last, ok)
	}
	if o.TotalDecisions() != n {
		t.Errorf("TotalDecisions = %d, want %d", o.TotalDecisions(), n)
	}
	// Stats count everything ever recorded, not just the retained window.
	s := o.Stats()
	if s.Total != n || s.Remote != 50 || s.Cold != 20 || s.Fallback != 10 {
		t.Errorf("stats = %+v, want {100 50 20 10}", s)
	}
}

// TestDecisionRetentionDefaultCap: the zero-value bound falls back to
// DefaultMaxDecisions.
func TestDecisionRetentionDefaultCap(t *testing.T) {
	o := &Orchestrator{}
	for i := 0; i < DefaultMaxDecisions+10; i++ {
		o.record(Decision{})
	}
	if got := len(o.Decisions()); got != DefaultMaxDecisions {
		t.Errorf("retained %d, want %d", got, DefaultMaxDecisions)
	}
	if o.TotalDecisions() != DefaultMaxDecisions+10 {
		t.Errorf("total = %d", o.TotalDecisions())
	}
}
