package adrias

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"adrias/internal/core"
	"adrias/internal/workload"
)

// trainedSystem is shared across tests in this package; training even the
// fast configuration costs a few seconds.
var trainedSystem *System

func system(t testing.TB) *System {
	t.Helper()
	if trainedSystem == nil {
		opts := FastOptions()
		sys, err := Train(opts)
		if err != nil {
			t.Fatal(err)
		}
		trainedSystem = sys
	}
	return trainedSystem
}

func TestRegistryExposed(t *testing.T) {
	reg := NewRegistry()
	if reg.ByName("redis") == nil || reg.ByName("nweight") == nil {
		t.Fatal("registry incomplete")
	}
}

func TestTrainProducesWorkingSystem(t *testing.T) {
	sys := system(t)
	if sys.Pred.Sys == nil || sys.Pred.BE == nil || sys.Pred.LC == nil {
		t.Fatal("models missing")
	}
	if len(sys.Pred.Sigs.Names()) != 19 {
		t.Errorf("signatures = %d, want 19 (17 Spark + 2 LC)", len(sys.Pred.Sigs.Names()))
	}
	if len(sys.Windows) == 0 || len(sys.TrainIdx) == 0 || len(sys.TestIdx) == 0 {
		t.Error("training artifacts missing")
	}
	// The system-state model should be usefully accurate even fast-trained.
	ev := sys.Pred.Sys.Evaluate(sys.Windows, sys.TestIdx)
	t.Logf("fast sysstate R² = %.3f", ev.R2Avg)
	if ev.R2Avg < 0.5 {
		t.Errorf("system-state R² = %v too low", ev.R2Avg)
	}
}

func TestRunScenarioWithOrchestrator(t *testing.T) {
	sys := system(t)
	orch := sys.Orchestrator(0.8)
	orch.QoSMs["redis"] = 100
	orch.QoSMs["memcached"] = 100
	cfg := ScenarioConfig{
		Seed: 1234, DurationSec: 400, SpawnMin: 5, SpawnMax: 20,
		IBenchShare: 0.3, KeepHistory: true,
	}
	res, err := sys.RunScenario(cfg, orch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) == 0 {
		t.Fatal("no runs")
	}
	if orch.TotalDecisions() == 0 {
		t.Fatal("orchestrator made no decisions")
	}
}

func TestBaselines(t *testing.T) {
	sys := system(t)
	bs := sys.Baselines(5)
	if len(bs) != 3 {
		t.Fatalf("baselines = %d", len(bs))
	}
	names := map[string]bool{}
	for _, b := range bs {
		names[b.Name()] = true
	}
	for _, want := range []string{"random", "round-robin", "all-local"} {
		if !names[want] {
			t.Errorf("missing baseline %q", want)
		}
	}
}

func TestRunScenarioWithBaseline(t *testing.T) {
	sys := system(t)
	cfg := ScenarioConfig{
		Seed: 55, DurationSec: 300, SpawnMin: 5, SpawnMax: 25,
		IBenchShare: 0.3, KeepHistory: false,
	}
	res, err := sys.RunScenario(cfg, core.AllLocal{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Runs {
		if r.Tier != TierLocal {
			t.Fatalf("all-local scenario placed %s on %v", r.Name, r.Tier)
		}
	}
}

func TestSaveLoadModels(t *testing.T) {
	sys := system(t)
	dir := filepath.Join(t.TempDir(), "models")
	if err := sys.SaveModels(dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"sysstate.gob", "perf_be.gob", "perf_lc.gob"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
	// A freshly built (untrained) system with the same options can load.
	fresh := NewSystem(sys.Opts)
	if err := fresh.LoadModels(dir); err != nil {
		t.Fatal(err)
	}
	if len(fresh.Pred.Sigs.Names()) != len(sys.Pred.Sigs.Names()) {
		t.Errorf("loaded signatures = %d, want %d",
			len(fresh.Pred.Sigs.Names()), len(sys.Pred.Sigs.Names()))
	}
	// And its predictions match.
	win := sys.Windows[sys.TestIdx[0]].Past
	a := sys.Pred.Sys.Predict(win)
	b := fresh.Pred.Sys.Predict(win)
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("loaded model differs: %v vs %v", a, b)
		}
	}
}

func TestClassesReexported(t *testing.T) {
	reg := NewRegistry()
	if reg.ByName("redis").Class != workload.LatencyCritical {
		t.Error("redis should be LC")
	}
}

func TestRetrain(t *testing.T) {
	sys := system(t)
	// Simulate an in-situ capture for a custom app: store an existing
	// signature's steps under a new name the bulk pipeline doesn't know.
	sig, ok := sys.Pred.Sigs.Get("gmm")
	if !ok {
		t.Fatal("gmm signature missing")
	}
	if err := sys.Pred.Sigs.Put("custom-app", sig.Steps); err != nil {
		t.Fatal(err)
	}

	extra := sys.Opts.Corpus
	extra.BaseSeed = 9999
	extra.SpawnMaxes = []float64{25}
	extra.SeedsPer = 2
	next, err := sys.Retrain(extra)
	if err != nil {
		t.Fatal(err)
	}
	if len(next.Results) != len(sys.Results)+2 {
		t.Errorf("combined corpus = %d, want %d", len(next.Results), len(sys.Results)+2)
	}
	if !next.Pred.Sigs.Has("custom-app") {
		t.Error("in-situ signature lost across retraining")
	}
	// The retrained system still predicts.
	ev := next.Pred.Sys.Evaluate(next.Windows, next.TestIdx)
	if ev.R2Avg < 0.4 {
		t.Errorf("retrained system-state R² = %v", ev.R2Avg)
	}
}

// TestTrainOnLanesJoinBeforeError: an error on either training lane comes
// back only once the other lane has finished, and TrainOn reports the
// system-state lane's error first.
func TestTrainOnLanesJoinBeforeError(t *testing.T) {
	boom := errors.New("boom")
	for _, failing := range []string{"perf", "sys"} {
		failed := make(chan struct{})
		var otherDone atomic.Bool
		fail := func() error { close(failed); return boom }
		other := func() error { <-failed; otherDone.Store(true); return nil }
		sysLane, perfLane := other, fail
		if failing == "sys" {
			sysLane, perfLane = fail, other
		}
		sysErr, perfErr := runLanes(sysLane, perfLane)
		if !otherDone.Load() {
			t.Errorf("%s lane failed: returned before the other lane finished", failing)
		}
		if (failing == "sys") != (sysErr == boom) || (failing == "perf") != (perfErr == boom) {
			t.Errorf("%s lane failed: errors sys=%v perf=%v", failing, sysErr, perfErr)
		}
	}

	sys := system(t)
	opts := sys.Opts
	opts.Sys.Epochs = 1
	opts.MaxPerfSamples = 5
	if _, err := TrainOn(opts, sys.Registry, sys.Results); err == nil || !strings.HasPrefix(err.Error(), "adrias: BE model: only") {
		t.Errorf("perf lane error = %v", err)
	}
	opts.TrainFrac = 0 // both lanes fail
	if _, err := TrainOn(opts, sys.Registry, sys.Results); err == nil || !strings.HasPrefix(err.Error(), "adrias: system-state training:") {
		t.Errorf("both lanes failing: error = %v, want the system-state lane's", err)
	}
}
