package scenario

import (
	"reflect"
	"strings"
	"testing"

	"adrias/internal/cluster"
	"adrias/internal/memsys"
	"adrias/internal/workload"
)

var registry = workload.NewRegistry()

func quickConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		DurationSec: 300,
		SpawnMin:    5,
		SpawnMax:    30,
		IBenchShare: 0.35,
		KeepHistory: true,
	}
}

func TestConfigValidate(t *testing.T) {
	good := quickConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{DurationSec: 10, SpawnMin: 0, SpawnMax: 5},
		{DurationSec: 10, SpawnMin: 10, SpawnMax: 5},
		{DurationSec: 10, SpawnMin: 1, SpawnMax: 5, IBenchShare: 2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestRunProducesRunsAndHistory(t *testing.T) {
	res, err := Run(quickConfig(42), registry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) == 0 {
		t.Fatal("no completed runs")
	}
	if len(res.History) == 0 {
		t.Fatal("no history recorded")
	}
	if res.MaxConcurrent < 1 {
		t.Error("no concurrency observed")
	}
	sawLocal, sawRemote := false, false
	for _, r := range res.Runs {
		if r.DoneAt < r.StartAt {
			t.Errorf("run %s finished before it started", r.Name)
		}
		if r.ExecTime <= 0 {
			t.Errorf("run %s has non-positive exec time", r.Name)
		}
		switch r.Tier {
		case memsys.TierLocal:
			sawLocal = true
		case memsys.TierRemote:
			sawRemote = true
		}
		if r.Class == workload.LatencyCritical && r.P99Ms <= 0 {
			t.Errorf("LC run %s missing tail latency", r.Name)
		}
	}
	if !sawLocal || !sawRemote {
		t.Error("random placement should use both tiers")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(quickConfig(7), registry, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickConfig(7), registry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs) != len(b.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(a.Runs), len(b.Runs))
	}
	for i := range a.Runs {
		if a.Runs[i] != b.Runs[i] {
			t.Errorf("run %d differs: %+v vs %+v", i, a.Runs[i], b.Runs[i])
		}
	}
	if a.FabricBytes != b.FabricBytes {
		t.Error("fabric traffic not deterministic")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, _ := Run(quickConfig(1), registry, nil)
	b, _ := Run(quickConfig(2), registry, nil)
	if len(a.Runs) == len(b.Runs) {
		same := true
		for i := range a.Runs {
			if a.Runs[i].Name != b.Runs[i].Name {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical schedules")
		}
	}
}

func TestDeciderIsHonored(t *testing.T) {
	allLocal := func(*workload.Profile, *cluster.Cluster) memsys.Tier {
		return memsys.TierLocal
	}
	res, err := Run(quickConfig(3), registry, allLocal)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Runs {
		if r.Tier != memsys.TierLocal {
			t.Fatalf("decider ignored: %s on %s", r.Name, r.Tier)
		}
	}
	if res.FabricBytes != 0 {
		t.Error("all-local scenario moved fabric bytes")
	}
}

func TestHeavierSpawnMeansMoreArrivals(t *testing.T) {
	heavy := quickConfig(9)
	heavy.SpawnMax = 10
	relaxed := quickConfig(9)
	relaxed.SpawnMax = 60
	h, err := Run(heavy, registry, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(relaxed, registry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Runs) <= len(r.Runs) {
		t.Errorf("congested scenario should host more runs: %d vs %d", len(h.Runs), len(r.Runs))
	}
	if h.MaxConcurrent <= r.MaxConcurrent {
		t.Logf("note: concurrency heavy=%d relaxed=%d", h.MaxConcurrent, r.MaxConcurrent)
	}
}

func TestCorpusConfigs(t *testing.T) {
	spec := DefaultCorpus()
	cfgs := spec.Configs()
	if len(cfgs) != 72 {
		t.Fatalf("corpus size = %d, want 72", len(cfgs))
	}
	seen := map[int64]bool{}
	for _, c := range cfgs {
		if seen[c.Seed] {
			t.Fatal("duplicate seeds in corpus")
		}
		seen[c.Seed] = true
		if c.SpawnMin != 5 || c.SpawnMax < 20 || c.SpawnMax > 60 {
			t.Errorf("spawn interval (%g,%g) outside paper range", c.SpawnMin, c.SpawnMax)
		}
		if c.DurationSec != 3600 {
			t.Errorf("duration = %g, want 3600", c.DurationSec)
		}
	}
}

func TestRunCorpusSmall(t *testing.T) {
	spec := CorpusSpec{
		BaseSeed:    50,
		DurationSec: 200,
		SpawnMin:    5,
		SpawnMaxes:  []float64{20, 60},
		SeedsPer:    2,
		IBenchShare: 0.3,
		KeepHistory: false,
	}
	results, err := RunCorpus(spec, registry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("corpus results = %d, want 4", len(results))
	}
	perf := PerfByApp(results)
	if len(perf) == 0 {
		t.Fatal("PerfByApp empty")
	}
	for name, byTier := range perf {
		if registry.ByName(name) == nil {
			t.Errorf("unknown app %q in perf map", name)
		}
		if registry.ByName(name).Class == workload.Interference {
			t.Errorf("iBench %q should be excluded from perf map", name)
		}
		for tier, vals := range byTier {
			for _, v := range vals {
				if v <= 0 {
					t.Errorf("%s on %s: non-positive perf %v", name, tier, v)
				}
			}
		}
	}
}

// TestRunCorpusMatchesSerialRuns: the concurrent corpus is the serial one —
// every result equal to running its config alone, in config order — and a
// failing scenario returns exactly the results before it.
func TestRunCorpusMatchesSerialRuns(t *testing.T) {
	spec := CorpusSpec{
		BaseSeed:    70,
		DurationSec: 150,
		SpawnMin:    5,
		SpawnMaxes:  []float64{15, 40},
		SeedsPer:    3,
		IBenchShare: 0.35,
		KeepHistory: true,
	}
	got, err := RunCorpus(spec, registry, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := spec.Configs()
	if len(got) != len(cfgs) {
		t.Fatalf("corpus results = %d, want %d", len(got), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := Run(cfg, registry, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("scenario %d (seed %d) differs from its serial run", i, cfg.Seed)
		}
	}

	spec.SpawnMaxes = []float64{15, 3, 40} // the second setting is invalid
	partial, err := RunCorpus(spec, registry, nil)
	if err == nil || !strings.Contains(err.Error(), "scenario seed 73") {
		t.Fatalf("error = %v, want the first invalid scenario (seed 73)", err)
	}
	if len(partial) != spec.SeedsPer || !reflect.DeepEqual(partial, got[:spec.SeedsPer]) {
		t.Errorf("returned %d results, want the %d before the failure", len(partial), spec.SeedsPer)
	}
}

// BenchmarkScenarioRun900 is one replayed scenario in the evaluation's shape
// (900 s of arrivals every U(5,30) s, 35 % iBench, run to drain) with every
// application on local memory: the testbed's cost with no model in the loop.
func BenchmarkScenarioRun900(b *testing.B) {
	cfg := quickConfig(100100)
	cfg.DurationSec = 900
	allLocal := func(*workload.Profile, *cluster.Cluster) memsys.Tier { return memsys.TierLocal }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, registry, allLocal); err != nil {
			b.Fatal(err)
		}
	}
}
