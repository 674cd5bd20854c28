package adrias

import (
	"testing"

	"adrias/internal/cluster"
	"adrias/internal/core"
	"adrias/internal/workload"
)

// decideFixture is one float Adrias orchestrator deciding one best-effort
// application against a warm testbed whose monitoring window differs, by
// content, on every call — what a tick does to it, without a tick's cost in
// the measured loop (the perturbWindow trick of internal/serve's tests). No
// decision is a prediction-memo hit: each runs the Ŝ forecast and the BE
// model's local and remote queries, as every Decide of a scenario replay does.
type decideFixture struct {
	orch *core.Orchestrator
	c    *cluster.Cluster
	app  *workload.Profile
	k    int
}

func newDecideFixture(tb testing.TB) *decideFixture {
	sys := system(tb)
	f := &decideFixture{
		orch: sys.Orchestrator(0.8),
		c:    cluster.New(cluster.DefaultConfig()),
		app:  sys.Registry.ByName("gmm"),
	}
	f.orch.MaxDecisions = 4 // decision ring at its bound after four decides
	f.c.Deploy(sys.Registry.ByName("redis"), TierLocal)
	f.c.Run(float64(sys.Watch.HistTicks + 10))
	for i := 0; i < 8; i++ {
		f.decide(tb)
	}
	return f
}

func (f *decideFixture) decide(tb testing.TB) {
	h := f.c.History()
	d := 1.0
	if f.k%2 == 1 {
		d = -1
	}
	f.k++
	h[len(h)-1].Sample.LLCLoads += d
	f.orch.Decide(f.app, f.c)
	if last, _ := f.orch.LastDecision(); last.Reason != core.ReasonBESlack {
		tb.Fatalf("decision took the %q exit, want the β-slack rule over two predictions", last.Reason)
	}
}

// TestDecideFloatZeroAlloc: a float Decide on a window it has not seen
// allocates nothing once the arenas are warm and the decision ring is full.
func TestDecideFloatZeroAlloc(t *testing.T) {
	f := newDecideFixture(t)
	if n := testing.AllocsPerRun(50, func() { f.decide(t) }); n > 0 {
		t.Errorf("float Decide on a moved window allocates %.1f/op, want 0", n)
	}
}

// BenchmarkDecideSingleMiss times that Decide — the replay's unit of
// inference work. The bench gate records it (at -cpu=1) as decide_single_us
// and requires 0 allocs/op.
func BenchmarkDecideSingleMiss(b *testing.B) {
	f := newDecideFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.decide(b)
	}
}

// BenchmarkReplayPair times the scenario replay's unit of work: one held-out
// 900 s scenario run all-local and then under Adrias β = 0.8 with its
// signature-capture hook wired, both behind the replay's seeded random
// interference placement. The bench gate records it as replay_pair_ms.
func BenchmarkReplayPair(b *testing.B) {
	sys := system(b)
	orch := sys.Orchestrator(0.8)
	for _, p := range sys.Registry.LC() {
		orch.QoSMs[p.Name] = p.BaseP50Ms * 20
	}
	const seed = 100100
	cfg := ScenarioConfig{
		Seed: seed, DurationSec: 900, SpawnMin: 5, SpawnMax: 30,
		IBenchShare: 0.35, KeepHistory: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.OnComplete = nil
		if _, err := sys.RunScenario(cfg, WithRandomInterference(core.AllLocal{}, seed^0xfeed)); err != nil {
			b.Fatal(err)
		}
		cfg.OnComplete = orch.OnComplete
		if _, err := sys.RunScenario(cfg, WithRandomInterference(orch, seed^0xfeed)); err != nil {
			b.Fatal(err)
		}
	}
}
