package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"adrias/internal/core"
	"adrias/internal/dataset"
	"adrias/internal/models"
	"adrias/internal/obs"
	"adrias/internal/scenario"
	"adrias/internal/workload"
)

var registry = workload.NewRegistry()

// tiny shares one minimally trained predictor across tests and benchmarks
// (training costs a few seconds; every consumer needs the same thing).
var tiny struct {
	once  sync.Once
	pred  *core.Predictor
	watch *core.Watcher
	err   error
}

func trainTiny() {
	spec := models.PerfDatasetSpec{HistTicks: 60, FutureTicks: 60, Stride: 10}
	corpus := scenario.CorpusSpec{
		BaseSeed: 300, DurationSec: 600, SpawnMin: 5, SpawnMaxes: []float64{15},
		SeedsPer: 4, IBenchShare: 0.35, KeepHistory: true,
	}
	results, err := scenario.RunCorpus(corpus, registry, nil)
	if err != nil {
		tiny.err = err
		return
	}
	var windows []dataset.Window
	for _, r := range results {
		ws, err := dataset.FromHistory(r.History, dataset.WindowSpec{
			Hist: spec.HistTicks, Horizon: spec.FutureTicks, Stride: spec.Stride, Hop: 11})
		if err != nil {
			tiny.err = err
			return
		}
		windows = append(windows, ws...)
	}
	sys := models.NewSysStateModel(models.SysStateConfig{
		Hidden: 12, BlockDim: 16, Dropout: 0, LR: 2e-3, Epochs: 8, Batch: 16, Seed: 3})
	trainIdx, _ := dataset.Split(len(windows), 0.8, 5)
	if err := sys.Fit(windows, trainIdx); err != nil {
		tiny.err = err
		return
	}
	sigs, err := models.BuildSignatures(registry, spec.HistTicks/spec.Stride, 17)
	if err != nil {
		tiny.err = err
		return
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
	fit := func(ss []models.PerfSample) (*models.PerfModel, error) {
		m := models.NewPerfModel(pcfg, sigs)
		idx := make([]int, len(ss))
		for i := range idx {
			idx[i] = i
		}
		return m, m.Fit(ss, idx)
	}
	beModel, err := fit(be)
	if err != nil {
		tiny.err = err
		return
	}
	lcModel, err := fit(lc)
	if err != nil {
		tiny.err = err
		return
	}
	tiny.pred = &core.Predictor{Sys: sys, BE: beModel, LC: lcModel, Sigs: sigs}
	tiny.watch = core.NewWatcher(spec)
}

func tinyEngine(tb testing.TB, cfg EngineConfig) *SystemEngine {
	tb.Helper()
	tiny.once.Do(trainTiny)
	if tiny.err != nil {
		tb.Fatal(tiny.err)
	}
	return NewSystemEngine(tiny.pred, tiny.watch, registry, cfg)
}

func TestSystemEngineEndToEnd(t *testing.T) {
	eng := tinyEngine(t, EngineConfig{QoSFactor: 1e6, AmbientRate: 0.5, Seed: 9})
	if s := eng.Snapshot(); !s.Ready {
		t.Fatal("engine not ready after warmup")
	}

	// A mixed batch: BE, LC, cold-start (iBench has no signature), unknown.
	results := eng.PlaceBatch(context.Background(), []PlaceRequest{
		{App: "gmm", DryRun: true},
		{App: "redis", DryRun: true},
		{App: "ibench-membw", DryRun: true},
		{App: "nosuch", DryRun: true},
	})
	if results[0].Err != nil || results[1].Err != nil || results[2].Err != nil {
		t.Fatalf("errs: %v %v %v", results[0].Err, results[1].Err, results[2].Err)
	}
	if !errors.Is(results[3].Err, ErrUnknownApp) {
		t.Errorf("unknown app err = %v", results[3].Err)
	}
	if results[0].Class != workload.BestEffort || results[1].Class != workload.LatencyCritical {
		t.Errorf("classes: %v %v", results[0].Class, results[1].Class)
	}
	if results[0].PredLocalS <= 0 || results[0].PredRemS <= 0 {
		t.Errorf("BE predictions missing: %+v", results[0])
	}
	if !results[2].ColdStart {
		t.Errorf("iBench app should cold-start: %+v", results[2])
	}

	// Dry runs must not occupy the testbed; real placements must.
	before := eng.Snapshot()
	eng.PlaceBatch(context.Background(), []PlaceRequest{{App: "gmm"}})
	after := eng.Snapshot()
	if after.Running != before.Running+1 {
		t.Errorf("deploying placement did not start an instance: %d → %d", before.Running, after.Running)
	}

	// Advancing moves simulated time and (at this rate) injects ambient load.
	eng.Advance(120)
	s := eng.Snapshot()
	if s.SimTime <= after.SimTime {
		t.Error("Advance did not move simulated time")
	}
	if s.AmbientStarted == 0 {
		t.Error("no ambient arrivals after 120 s at rate 0.5")
	}
}

func TestSystemEngineThroughService(t *testing.T) {
	eng := tinyEngine(t, EngineConfig{Seed: 11})
	svc := NewService(eng, Config{MaxBatch: 32})
	defer closeAll(t, svc)

	// Hold the engine's lock while the requests are admitted: the batcher
	// stalls inside its first PlaceBatch, the rest queue behind it, and the
	// real engine then decides them as one coalesced batch.
	apps := []string{"gmm", "pagerank", "redis", "wordcount", "kmeans"}
	eng.mu.Lock()
	all := make([]*pending, 24)
	for i := range all {
		all[i] = admit(t, svc, context.Background(), PlaceRequest{App: apps[i%len(apps)], DryRun: true})
	}
	eng.mu.Unlock()
	for i, p := range all {
		if r := <-p.done; r.Err != nil || r.Reason == "" {
			t.Errorf("place %d: %+v", i, r)
		}
	}
	if n := svc.Metrics().Batches.Load(); n > 2 {
		t.Errorf("no coalescing through the real engine: %d batches for %d requests queued behind one", n, len(all))
	}
}

// benchAdmission measures end-to-end admission throughput under parallel
// clients. The acceptance bar: batched ≥ unbatched (MaxBatch=1 baseline,
// one engine call per request).
func benchAdmission(b *testing.B, cfg Config) {
	eng := tinyEngine(b, EngineConfig{Seed: 21})
	cfg.QueueDepth = 8192
	cfg.DefaultTimeout = time.Minute
	svc := NewService(eng, cfg)
	defer svc.Close(context.Background())
	apps := []string{"gmm", "pagerank", "redis", "kmeans"}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			app := apps[i%len(apps)]
			i++
			if _, err := svc.Place(context.Background(), PlaceRequest{App: app, DryRun: true}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if n := svc.Metrics().Batches.Load(); n > 0 {
		b.ReportMetric(float64(svc.Metrics().BatchedReqs.Load())/float64(n), "reqs/batch")
	}
}

func BenchmarkAdmissionBatched(b *testing.B) {
	b.SetParallelism(8)
	benchAdmission(b, Config{MaxBatch: 64})
}

func BenchmarkAdmissionUnbatched(b *testing.B) {
	b.SetParallelism(8)
	benchAdmission(b, Config{MaxBatch: 1})
}

func benchPlaceBatchSizes(b *testing.B, makeCtx func() context.Context, warm bool) {
	eng := tinyEngine(b, EngineConfig{Seed: 31})
	for _, size := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			reqs := make([]PlaceRequest, size)
			for i := range reqs {
				reqs[i] = PlaceRequest{App: []string{"gmm", "pagerank", "redis"}[i%3], DryRun: true}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if !warm {
					perturbWindow(eng, n)
				}
				eng.PlaceBatch(makeCtx(), reqs)
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "placements/s")
		})
	}
}

// BenchmarkPlaceBatchSizes is the untraced baseline: the context carries no
// SpanRecorder, so every StartSpan along the pipeline is a no-op. The window
// moves before every batch, so every batch runs the models (a memo hit
// records no model spans — there would be no tracing cost left to measure).
func BenchmarkPlaceBatchSizes(b *testing.B) {
	benchPlaceBatchSizes(b, context.Background, false)
}

// BenchmarkPlaceBatchSizesTraced runs the identical workload with a live
// SpanRecorder per batch — the overhead-budget comparison (≤5% on batch-8)
// that CI's benchdiff enforces against the baseline above.
func BenchmarkPlaceBatchSizesTraced(b *testing.B) {
	benchPlaceBatchSizes(b, func() context.Context {
		return obs.WithRecorder(context.Background(), obs.NewSpanRecorder())
	}, false)
}

// BenchmarkPlaceBatchSizesWarm leaves the window alone: every batch after
// the first is answered by the prediction memo, the between-ticks cost.
func BenchmarkPlaceBatchSizesWarm(b *testing.B) {
	benchPlaceBatchSizes(b, context.Background, true)
}
