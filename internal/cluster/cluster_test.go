package cluster

import (
	"math"
	"runtime"
	"testing"

	"adrias/internal/memsys"
	"adrias/internal/workload"
)

var registry = workload.NewRegistry()

func TestIsolatedLocalExecTimeMatchesProfile(t *testing.T) {
	c := New(DefaultConfig())
	p := registry.ByName("wordcount")
	in := c.Deploy(p, memsys.TierLocal)
	if err := c.RunUntilDrained(1000); err != nil {
		t.Fatal(err)
	}
	if !in.Done() {
		t.Fatal("instance did not finish")
	}
	if got := in.ExecTime(c.Now()); math.Abs(got-p.BaseExecSec) > 1.5 {
		t.Errorf("isolated local exec = %v, want ≈%v", got, p.BaseExecSec)
	}
}

func TestIsolatedRemotePaysFig4Penalty(t *testing.T) {
	for _, name := range []string{"nweight", "gmm"} {
		p := registry.ByName(name)
		run := func(tier memsys.Tier) float64 {
			c := New(DefaultConfig())
			in := c.Deploy(p, tier)
			if err := c.RunUntilDrained(2000); err != nil {
				t.Fatal(err)
			}
			return in.ExecTime(c.Now())
		}
		ratio := run(memsys.TierRemote) / run(memsys.TierLocal)
		if math.Abs(ratio-p.RemotePenaltyIso) > 0.15*p.RemotePenaltyIso {
			t.Errorf("%s remote/local = %v, want ≈%v", name, ratio, p.RemotePenaltyIso)
		}
	}
}

func TestHistoryRecorded(t *testing.T) {
	c := New(DefaultConfig())
	c.Deploy(registry.ByName("gmm"), memsys.TierLocal)
	c.Run(10)
	h := c.History()
	if len(h) != 10 {
		t.Fatalf("history length = %d, want 10", len(h))
	}
	if h[0].Time != 1 || h[9].Time != 10 {
		t.Errorf("history times: %v .. %v", h[0].Time, h[9].Time)
	}
	if h[0].Running != 1 {
		t.Errorf("running count = %d", h[0].Running)
	}
	if h[0].Sample.LLCLoads == 0 {
		t.Error("sample should show activity")
	}
}

func TestHistoryDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.KeepHistory = false
	c := New(cfg)
	c.Deploy(registry.ByName("gmm"), memsys.TierLocal)
	c.Run(10)
	if len(c.History()) != 0 {
		t.Error("history should be disabled")
	}
}

func TestDeployAtAndCallbacks(t *testing.T) {
	c := New(DefaultConfig())
	var deployedAt float64
	var completed []string
	c.OnComplete = func(in *workload.Instance) {
		completed = append(completed, in.Profile.Name)
	}
	decide := func() memsys.Tier { return memsys.TierRemote }
	c.DeployAt(5, registry.ByName("gmm"), decide, func(in *workload.Instance) {
		deployedAt = c.Now()
		if in.Tier != memsys.TierRemote {
			t.Error("decide() tier not honored")
		}
	})
	if err := c.RunUntilDrained(1000); err != nil {
		t.Fatal(err)
	}
	if deployedAt != 5 {
		t.Errorf("deployedAt = %v, want 5", deployedAt)
	}
	if len(completed) != 1 || completed[0] != "gmm" {
		t.Errorf("completed = %v", completed)
	}
}

func TestCoLocationSlowsDown(t *testing.T) {
	solo := func() float64 {
		c := New(DefaultConfig())
		in := c.Deploy(registry.ByName("sort"), memsys.TierLocal)
		if err := c.RunUntilDrained(2000); err != nil {
			t.Fatal(err)
		}
		return in.ExecTime(c.Now())
	}()
	crowded := func() float64 {
		c := New(DefaultConfig())
		in := c.Deploy(registry.ByName("sort"), memsys.TierLocal)
		for i := 0; i < 16; i++ {
			c.Deploy(registry.ByName("ibench-l3"), memsys.TierLocal)
		}
		if err := c.RunUntilDrained(5000); err != nil {
			t.Fatal(err)
		}
		return in.ExecTime(c.Now())
	}()
	if crowded <= solo*1.1 {
		t.Errorf("16 LLC hogs should slow sort down: solo %v crowded %v", solo, crowded)
	}
}

func TestRemoteSaturationWorseThanLocal(t *testing.T) {
	// Fig. 5's chasm at the cluster level: same interference, remote worse.
	run := func(tier memsys.Tier) float64 {
		c := New(DefaultConfig())
		in := c.Deploy(registry.ByName("kmeans"), tier)
		for i := 0; i < 16; i++ {
			c.Deploy(registry.ByName("ibench-membw"), tier)
		}
		if err := c.RunUntilDrained(10000); err != nil {
			t.Fatal(err)
		}
		return in.ExecTime(c.Now())
	}
	local, remote := run(memsys.TierLocal), run(memsys.TierRemote)
	if remote <= local {
		t.Errorf("remote under membw saturation should be worse: local %v remote %v", local, remote)
	}
}

func TestFabricTrafficOnlyFromRemote(t *testing.T) {
	c := New(DefaultConfig())
	c.Deploy(registry.ByName("sort"), memsys.TierLocal)
	c.Run(20)
	if c.FabricBytesMoved() != 0 {
		t.Errorf("local-only run moved %v fabric bytes", c.FabricBytesMoved())
	}
	c2 := New(DefaultConfig())
	c2.Deploy(registry.ByName("sort"), memsys.TierRemote)
	c2.Run(20)
	if c2.FabricBytesMoved() == 0 {
		t.Error("remote run moved no fabric bytes")
	}
}

func TestRunUntilDrainedTimeout(t *testing.T) {
	c := New(DefaultConfig())
	c.Deploy(registry.ByName("nweight"), memsys.TierLocal) // 85 s base
	if err := c.RunUntilDrained(10); err == nil {
		t.Error("expected drain timeout error")
	}
}

func TestLCOnCluster(t *testing.T) {
	c := New(DefaultConfig())
	in := c.Deploy(registry.ByName("redis"), memsys.TierLocal)
	c.Run(120)
	if in.Done() {
		t.Fatal("redis run should take ≈267 s, finished early")
	}
	if in.TailLatency(99) <= 0 {
		t.Error("no tail latency observed")
	}
	if err := c.RunUntilDrained(2000); err != nil {
		t.Fatal(err)
	}
	if !in.Done() {
		t.Error("redis never completed")
	}
	// ≈ 8e6 ops at 30e3 ops/s ≈ 267 s
	if et := in.ExecTime(c.Now()); math.Abs(et-267) > 15 {
		t.Errorf("redis exec time = %v, want ≈267", et)
	}
}

func TestBadTickPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.TickPeriod = 0
	New(cfg)
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []float64 {
		c := New(DefaultConfig())
		var times []float64
		c.OnComplete = func(in *workload.Instance) {
			times = append(times, in.DoneAt)
		}
		c.Deploy(registry.ByName("redis"), memsys.TierRemote)
		c.Deploy(registry.ByName("sort"), memsys.TierLocal)
		c.Deploy(registry.ByName("ibench-membw"), memsys.TierRemote)
		if err := c.RunUntilDrained(5000); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different completion counts: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("non-deterministic completion %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCapacityAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Node.RemotePoolGB = 10
	c := New(cfg)
	p := registry.ByName("redis") // 8 GB footprint

	in1 := c.Deploy(p, memsys.TierRemote)
	if in1.Tier != memsys.TierRemote {
		t.Fatalf("first deploy should fit remote, got %v", in1.Tier)
	}
	if got := c.CapacityLeftGB(memsys.TierRemote); math.Abs(got-2) > 1e-9 {
		t.Errorf("remote left = %v, want 2", got)
	}
	// Second 8 GB app cannot fit the 10 GB pool → falls back to local.
	in2 := c.Deploy(p, memsys.TierRemote)
	if in2.Tier != memsys.TierLocal {
		t.Errorf("over-capacity deploy should fall back to local, got %v", in2.Tier)
	}
	if c.CapacityFallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", c.CapacityFallbacks)
	}
	// Completion releases the pool.
	if err := c.RunUntilDrained(5000); err != nil {
		t.Fatal(err)
	}
	if got := c.CapacityLeftGB(memsys.TierRemote); math.Abs(got-10) > 1e-9 {
		t.Errorf("remote pool not released: left %v", got)
	}
	if got := c.CapacityLeftGB(memsys.TierLocal); math.Abs(got-cfg.Node.LocalDRAMBytes/1e9) > 1e-9 {
		t.Errorf("local pool not released: left %v", got)
	}
}

func TestCanFit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Node.RemotePoolGB = 5
	c := New(cfg)
	p := registry.ByName("redis") // 8 GB
	if c.CanFit(p, memsys.TierRemote) {
		t.Error("8 GB app should not fit a 5 GB pool")
	}
	if !c.CanFit(p, memsys.TierLocal) {
		t.Error("8 GB app should fit 1.2 TB local")
	}
}

func TestBothPoolsFullOvercommitsLocal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Node.RemotePoolGB = 1
	cfg.Node.LocalDRAMBytes = 1e9 // 1 GB
	c := New(cfg)
	p := registry.ByName("redis") // 8 GB
	in := c.Deploy(p, memsys.TierRemote)
	if in.Tier != memsys.TierLocal {
		t.Errorf("overcommit should land on local, got %v", in.Tier)
	}
	if c.CapacityFallbacks != 1 {
		t.Errorf("fallbacks = %d", c.CapacityFallbacks)
	}
}

// warmed12 is a testbed in steady state: twelve instances that never finish
// (eight Spark, both LC services, two iBench generators, split over the two
// tiers), no history, run until both latency reservoirs are full.
func warmed12(tb testing.TB) *Cluster {
	cfg := DefaultConfig()
	cfg.KeepHistory = false
	c := New(cfg)
	apps := append(append(registry.Spark()[:8:8], registry.LC()...), registry.IBench()[:2]...)
	for i, p := range apps {
		endless := *p
		endless.BaseExecSec, endless.TotalOps = 1e12, 1e18
		c.Deploy(&endless, memsys.Tier(i%2))
	}
	c.Run(700)
	if len(c.Running()) != 12 {
		tb.Fatalf("%d instances running after warm-up, want 12", len(c.Running()))
	}
	return c
}

// A tick in steady state works out of storage the cluster, the node and the
// fabric already own. The count is exact: testing.AllocsPerRun divides the
// mallocs by the runs in integers, which would hide up to runs−1 of them.
// The 700 ticks measured are more than an LC instance's pending log holds,
// so each LC instance folds its pending draws into its reservoir inside
// them.
func TestClusterTickZeroAlloc(t *testing.T) {
	c := warmed12(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 700; i++ {
		c.Run(c.Now() + 1)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("700 cluster ticks allocate %d times, want 0", n)
	}
}

func BenchmarkClusterTick12(b *testing.B) {
	c := warmed12(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(c.Now() + 1)
	}
}
