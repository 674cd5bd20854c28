package core

import (
	"context"
	"math"
	"testing"

	"adrias/internal/cluster"
	"adrias/internal/memsys"
	"adrias/internal/models"
	"adrias/internal/workload"
)

// warmCluster builds a testbed with a full monitoring window.
func warmCluster(t testing.TB, watch *Watcher) *cluster.Cluster {
	t.Helper()
	c := cluster.New(cluster.DefaultConfig())
	c.Deploy(registry.ByName("redis"), memsys.TierLocal)
	c.Run(float64(watch.HistTicks + 10))
	if !watch.Ready(c) {
		t.Fatal("cluster not ready after warmup")
	}
	return c
}

// TestWatcherWindowIntoMatchesWindow: the arena-backed window must carry
// exactly the values of the allocating one, and reuse its backing across
// calls.
func TestWatcherWindowIntoMatchesWindow(t *testing.T) {
	c := cluster.New(cluster.DefaultConfig())
	c.Deploy(registry.ByName("redis"), memsys.TierLocal)
	w := NewWatcher(models.PerfDatasetSpec{HistTicks: 20, FutureTicks: 20, Stride: 5})

	if w.WindowInto(c) != nil {
		t.Error("WindowInto should be nil before ready")
	}
	c.Run(float64(w.HistTicks + 5))
	want := w.Window(c)
	got := w.WindowInto(c)
	if len(got) != len(want) {
		t.Fatalf("window steps = %d, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("step %d metric %d: %g vs %g", i, j, got[i][j], want[i][j])
			}
		}
	}
	p := &got[0][0]
	c.Run(c.Now() + 3)
	again := w.WindowInto(c)
	if &again[0][0] != p {
		t.Error("WindowInto reallocated its arena on a steady-state call")
	}
}

// TestQuantPredictorTracksFloat: the int8 predictor must answer the same
// queries as the float one within the quantization budget, with nil errors
// on the happy path.
func TestQuantPredictorTracksFloat(t *testing.T) {
	pred, watch, _ := trainTinyPredictor(t)
	qp := NewQuantPredictor(pred)
	c := warmCluster(t, watch)
	win := watch.Window(c)

	queries := []PerfQuery{
		{Name: "gmm", Class: ClassBE, Tier: memsys.TierLocal},
		{Name: "gmm", Class: ClassBE, Tier: memsys.TierRemote},
		{Name: "nweight", Class: ClassBE, Tier: memsys.TierLocal},
		{Name: "nweight", Class: ClassBE, Tier: memsys.TierRemote},
		{Name: "redis", Class: ClassLC, Tier: memsys.TierRemote},
	}
	ctx := context.Background()
	want, ferrs := pred.PredictPerfBatch(ctx, queries, win)
	got, qerrs := qp.PredictPerfBatch(ctx, queries, win)
	for i := range queries {
		if ferrs[i] != nil || qerrs[i] != nil {
			t.Fatalf("query %d errored: float %v, quant %v", i, ferrs[i], qerrs[i])
		}
		if got[i] <= 0 || math.IsNaN(got[i]) {
			t.Fatalf("query %d: unusable quant prediction %g", i, got[i])
		}
		if rel := math.Abs(got[i]-want[i]) / want[i]; rel > 0.20 {
			t.Errorf("query %d (%s %v): quant %g vs float %g (rel %.3f)",
				i, queries[i].Name, queries[i].Tier, got[i], want[i], rel)
		}
	}

	// Error paths mirror the float predictor: empty window fails every
	// query, a missing class model fails its queries only.
	_, errs := qp.PredictPerfBatch(ctx, queries, nil)
	for i := range errs {
		if errs[i] == nil {
			t.Fatalf("query %d: no error on empty window", i)
		}
	}
	noLC := &QuantPredictor{Sys: qp.Sys, BE: qp.BE}
	preds, errs := noLC.PredictPerfBatch(ctx, queries, win)
	for i := range queries {
		if queries[i].Class == ClassLC {
			if errs[i] == nil {
				t.Errorf("LC query %d resolved without an LC model", i)
			}
		} else if errs[i] != nil || preds[i] <= 0 {
			t.Errorf("BE query %d should be isolated from the LC failure: %v", i, errs[i])
		}
	}
}

// TestQuantDecideBatchIntoZeroAlloc pins the serve hot path's core segment:
// with the quantized predictor wired in, a steady-state DecideBatchInto —
// warm arenas, full decision ring, warm signature cache — allocates
// nothing.
func TestQuantDecideBatchIntoZeroAlloc(t *testing.T) {
	pred, watch, _ := trainTinyPredictor(t)
	orch := NewOrchestrator(pred, watch, 0.8)
	orch.Infer = NewQuantPredictor(pred)
	orch.QoSMs["redis"] = 1e6
	c := warmCluster(t, watch)

	profiles := []*workload.Profile{
		registry.ByName("gmm"), registry.ByName("nweight"),
		registry.ByName("pagerank"), registry.ByName("redis"),
		registry.ByName("gmm"), registry.ByName("svm"),
		registry.ByName("memcached"), registry.ByName("linear"),
	}
	for _, p := range profiles {
		if p == nil {
			t.Fatal("unknown profile in fixture")
		}
	}
	orch.MaxDecisions = len(profiles) // ring full after one batch
	ds := make([]Decision, len(profiles))
	ctx := context.Background()
	orch.DecideBatchInto(ctx, profiles, c, ds)
	for i, d := range ds {
		if d.App != profiles[i].Name {
			t.Fatalf("decision %d is for %s, want %s", i, d.App, profiles[i].Name)
		}
	}

	// The Into path must agree with the allocating wrapper it backs.
	ds2 := orch.DecideBatch(ctx, profiles, c)
	for i := range ds {
		if ds[i] != ds2[i] {
			t.Fatalf("decision %d: Into %+v vs DecideBatch %+v", i, ds[i], ds2[i])
		}
	}

	if n := testing.AllocsPerRun(20, func() {
		orch.DecideBatchInto(ctx, profiles, c, ds)
	}); n > 0 {
		t.Errorf("steady-state DecideBatchInto allocates %.1f/op, want 0", n)
	}
}
