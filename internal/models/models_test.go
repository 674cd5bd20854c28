package models

import (
	"bytes"
	"math"
	"testing"

	"adrias/internal/dataset"
	"adrias/internal/mathx"
	"adrias/internal/scenario"
	"adrias/internal/workload"
)

var registry = workload.NewRegistry()

// smallCorpus runs a handful of short scenarios for model smoke training.
func smallCorpus(t testing.TB, n int, dur float64) []scenario.Result {
	t.Helper()
	spec := scenario.CorpusSpec{
		BaseSeed:    400,
		DurationSec: dur,
		SpawnMin:    5,
		SpawnMaxes:  []float64{15},
		SeedsPer:    n,
		IBenchShare: 0.35,
		KeepHistory: true,
	}
	results, err := scenario.RunCorpus(spec, registry, nil)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestResampleSeq(t *testing.T) {
	seq := []mathx.Vector{{0}, {1}, {2}, {3}, {4}, {5}}
	out := ResampleSeq(seq, 3)
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0][0] != 0.5 || out[1][0] != 2.5 || out[2][0] != 4.5 {
		t.Errorf("block means = %v %v %v", out[0], out[1], out[2])
	}
	// Upsampling repeats.
	up := ResampleSeq([]mathx.Vector{{1}, {3}}, 4)
	if len(up) != 4 {
		t.Fatalf("upsample len = %d", len(up))
	}
	if up[0][0] != 1 || up[3][0] != 3 {
		t.Errorf("upsample = %v", up)
	}
	if ResampleSeq(nil, 3) != nil {
		t.Error("empty input should return nil")
	}
}

func TestSignatureStore(t *testing.T) {
	s := NewSignatureStore(4)
	if s.Has("x") {
		t.Error("empty store should not have x")
	}
	if err := s.Put("x", nil); err == nil {
		t.Error("empty trace should error")
	}
	trace := []mathx.Vector{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, 12}, {13, 14}, {15, 16}}
	if err := s.Put("x", trace); err != nil {
		t.Fatal(err)
	}
	sig, ok := s.Get("x")
	if !ok || len(sig.Steps) != 4 {
		t.Fatalf("sig = %+v ok=%v", sig, ok)
	}
	if got := s.Names(); len(got) != 1 || got[0] != "x" {
		t.Errorf("Names = %v", got)
	}
}

func TestSignatureStorePanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSignatureStore(0)
}

func TestCaptureSignature(t *testing.T) {
	p := registry.ByName("gmm")
	trace, err := CaptureSignature(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Isolated remote run of gmm takes ≈ 50×1.04 ≈ 52 ticks.
	if len(trace) < 30 || len(trace) > 120 {
		t.Errorf("trace length = %d, want ≈52", len(trace))
	}
	// The trace must show fabric activity (remote deployment).
	var fabric float64
	for _, row := range trace {
		fabric += row[4] + row[5] // RMTtx, RMTrx
	}
	if fabric == 0 {
		t.Error("signature trace shows no fabric traffic")
	}
}

func TestBuildSignaturesForAllApps(t *testing.T) {
	store, err := BuildSignatures(registry, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := len(registry.Spark()) + len(registry.LC())
	if got := len(store.Names()); got != want {
		t.Errorf("signatures = %d, want %d", got, want)
	}
	for _, n := range store.Names() {
		sig, _ := store.Get(n)
		if len(sig.Steps) != 12 {
			t.Errorf("%s signature steps = %d", n, len(sig.Steps))
		}
	}
}

func TestFutureKindString(t *testing.T) {
	if FutureNone.String() != "None" || Future120Actual.String() != "120" ||
		FutureExecActual.String() != "exec" || FuturePredicted.String() != "Ŝ" {
		t.Error("FutureKind strings wrong")
	}
}

func TestBuildPerfSamples(t *testing.T) {
	results := smallCorpus(t, 3, 500)
	spec := PerfDatasetSpec{HistTicks: 60, FutureTicks: 60, Stride: 10}
	samples := BuildPerfSamples(results, spec)
	if len(samples) == 0 {
		t.Fatal("no perf samples")
	}
	for _, s := range samples {
		if s.Class == workload.Interference {
			t.Fatal("iBench sample leaked")
		}
		if len(s.Past) != 6 {
			t.Errorf("past steps = %d, want 6", len(s.Past))
		}
		if s.Perf <= 0 {
			t.Errorf("non-positive perf for %s", s.App)
		}
		if s.Future120 == nil || s.FutureExec == nil {
			t.Errorf("missing actual futures for %s", s.App)
		}
		if s.FuturePred != nil {
			t.Error("FuturePred should start nil")
		}
		if s.Remote != 0 && s.Remote != 1 {
			t.Errorf("mode = %v", s.Remote)
		}
	}
}

func tinySysConfig() SysStateConfig {
	return SysStateConfig{Hidden: 12, BlockDim: 16, Dropout: 0, LR: 2e-3, Epochs: 6, Batch: 16, Seed: 3}
}

// sysWindows cuts the small corpus into system-state windows.
func sysWindows(t testing.TB) []dataset.Window {
	t.Helper()
	spec := dataset.WindowSpec{Hist: 60, Horizon: 60, Stride: 10, Hop: 7}
	var windows []dataset.Window
	for _, r := range smallCorpus(t, 3, 500) {
		ws, err := dataset.FromHistory(r.History, spec)
		if err != nil {
			t.Fatal(err)
		}
		windows = append(windows, ws...)
	}
	return windows
}

func trainSmallSysModel(t testing.TB) (*SysStateModel, []dataset.Window, []int, []int) {
	t.Helper()
	windows := sysWindows(t)
	if len(windows) < 50 {
		t.Fatalf("too few windows: %d", len(windows))
	}
	train, test := dataset.Split(len(windows), 0.6, 11)
	m := NewSysStateModel(tinySysConfig())
	if err := m.Fit(windows, train); err != nil {
		t.Fatal(err)
	}
	return m, windows, train, test
}

func TestSysStateModelLearns(t *testing.T) {
	m, windows, _, test := trainSmallSysModel(t)
	ev := m.Evaluate(windows, test)
	if ev.R2Avg < 0.5 {
		t.Errorf("system-state R² avg = %v, want > 0.5 even with tiny config", ev.R2Avg)
	}
	if len(ev.R2PerMetric) != 7 {
		t.Fatalf("per-metric R² arity = %d", len(ev.R2PerMetric))
	}
	if len(ev.Actual) != len(test) || len(ev.Predicted) != len(test) {
		t.Error("residual vectors wrong length")
	}
	t.Logf("tiny sysstate R² = %.3f per-metric %v", ev.R2Avg, ev.R2PerMetric)
}

func TestSysStateSaveLoad(t *testing.T) {
	m, windows, _, test := trainSmallSysModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewSysStateModel(tinySysConfig())
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	p1 := m.Predict(windows[test[0]].Past)
	p2 := m2.Predict(windows[test[0]].Past)
	for j := range p1 {
		if math.Abs(p1[j]-p2[j]) > 1e-9 {
			t.Fatalf("loaded model differs: %v vs %v", p1, p2)
		}
	}
}

func TestSysStatePredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSysStateModel(tinySysConfig()).Predict([]mathx.Vector{{0, 0, 0, 0, 0, 0, 0}})
}

func tinyPerfConfig() PerfConfig {
	return PerfConfig{
		Hidden: 10, BlockDim: 16, Dropout: 0, LR: 2e-3, Epochs: 16, Batch: 16, Seed: 5,
		TrainFuture: Future120Actual, EvalFuture: Future120Actual,
	}
}

func buildPerfFixtures(t testing.TB) ([]PerfSample, *SignatureStore) {
	t.Helper()
	results := smallCorpus(t, 6, 600)
	spec := PerfDatasetSpec{HistTicks: 60, FutureTicks: 60, Stride: 10}
	samples := BuildPerfSamples(results, spec)
	var be []PerfSample
	for _, s := range samples {
		if s.Class == workload.BestEffort {
			be = append(be, s)
		}
	}
	if len(be) < 40 {
		t.Fatalf("too few BE samples: %d", len(be))
	}
	sigs, err := BuildSignatures(registry, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	return be, sigs
}

func TestPerfModelLearns(t *testing.T) {
	be, sigs := buildPerfFixtures(t)
	train, test := dataset.Split(len(be), 0.6, 13)
	m := NewPerfModel(tinyPerfConfig(), sigs)
	if err := m.Fit(be, train); err != nil {
		t.Fatal(err)
	}
	ev, err := m.Evaluate(be, test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.R2 < 0.2 {
		t.Errorf("perf R² = %v, want > 0.2 with tiny config", ev.R2)
	}
	if len(ev.MAEByApp) == 0 {
		t.Error("no per-app MAE")
	}
	t.Logf("tiny perf R² = %.3f (local %.3f remote %.3f)", ev.R2, ev.R2Local, ev.R2Remote)
}

func TestPerfModelSaveLoad(t *testing.T) {
	be, sigs := buildPerfFixtures(t)
	train, _ := dataset.Split(len(be), 0.6, 13)
	m := NewPerfModel(tinyPerfConfig(), sigs)
	if err := m.Fit(be, train); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewPerfModel(tinyPerfConfig(), sigs)
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	p1, err := m.Predict(&be[0])
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m2.Predict(&be[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1-p2) > 1e-9 {
		t.Errorf("loaded perf model differs: %v vs %v", p1, p2)
	}
}

func TestPerfPredictUnknownAppErrors(t *testing.T) {
	be, sigs := buildPerfFixtures(t)
	train, _ := dataset.Split(len(be), 0.6, 13)
	m := NewPerfModel(tinyPerfConfig(), sigs)
	if err := m.Fit(be, train); err != nil {
		t.Fatal(err)
	}
	bad := be[0]
	bad.App = "never-seen"
	if _, err := m.Predict(&bad); err == nil {
		t.Error("expected error for unknown signature")
	}
}

func TestPerfPredictBeforeFitErrors(t *testing.T) {
	_, sigs := buildPerfFixtures(t)
	m := NewPerfModel(tinyPerfConfig(), sigs)
	s := PerfSample{App: "gmm"}
	if _, err := m.Predict(&s); err == nil {
		t.Error("expected error before Fit")
	}
}

func TestAttachPredictions(t *testing.T) {
	m, windows, _, _ := trainSmallSysModel(t)
	_ = windows
	results := smallCorpus(t, 2, 400)
	spec := PerfDatasetSpec{HistTicks: 60, FutureTicks: 60, Stride: 10}
	samples := BuildPerfSamples(results, spec)
	if len(samples) == 0 {
		t.Skip("no samples in tiny corpus")
	}
	AttachPredictions(samples, m)
	for i := range samples {
		if samples[i].FuturePred == nil {
			t.Fatal("FuturePred not attached")
		}
		if len(samples[i].FuturePred) != 7 {
			t.Fatalf("FuturePred dim = %d", len(samples[i].FuturePred))
		}
	}
}

func TestPerfSampleFutureSelector(t *testing.T) {
	s := PerfSample{
		Future120:  mathx.Vector{1},
		FutureExec: mathx.Vector{2},
		FuturePred: mathx.Vector{3},
	}
	if s.Future(FutureNone) != nil {
		t.Error("None should be nil")
	}
	if s.Future(Future120Actual)[0] != 1 || s.Future(FutureExecActual)[0] != 2 || s.Future(FuturePredicted)[0] != 3 {
		t.Error("Future selector wrong")
	}
}
