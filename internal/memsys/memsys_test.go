package memsys

import (
	"math"
	"testing"
	"testing/quick"

	"adrias/internal/thymesis"
)

func newTestNode() *Node {
	return NewNode(DefaultConfig(), thymesis.DefaultConfig())
}

// lightDemand is a small app that fits everywhere.
func lightDemand(tier Tier) Demand {
	return Demand{
		CPUCores:         2,
		WorkingSetBytes:  1e6,
		AccessRate:       1e6,
		MissRatioIso:     0.1,
		WriteFraction:    0.3,
		Tier:             tier,
		CacheSens:        0.5,
		BwSens:           1,
		RemotePenaltyIso: 1.2,
	}
}

// bwHog mimics an iBench memBw microbenchmark.
func bwHog(tier Tier) Demand {
	return Demand{
		CPUCores:         1,
		WorkingSetBytes:  30e6,
		AccessRate:       6e5, // ≈0.6 Gbps of miss traffic at miss ratio 1 × 128 B lines
		MissRatioIso:     1,
		WriteFraction:    0.3,
		Tier:             tier,
		CacheSens:        0,
		BwSens:           1,
		RemotePenaltyIso: 1.1,
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.LLCBytes = 0 },
		func(c *Config) { c.LineBytes = 0 },
		func(c *Config) { c.LocalBwBps = 0 },
		func(c *Config) { c.LocalLatNs = 0 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Error("expected validation error")
		}
	}
}

func TestTierString(t *testing.T) {
	if TierLocal.String() != "local" || TierRemote.String() != "remote" {
		t.Error("Tier.String wrong")
	}
}

func TestIsolatedLocalAppNoSlowdown(t *testing.T) {
	n := newTestNode()
	outs, smp := n.Tick([]Demand{lightDemand(TierLocal)}, 1)
	if outs[0].Slowdown != 1 {
		t.Errorf("isolated local slowdown = %v, want 1", outs[0].Slowdown)
	}
	if smp.LLCLoads != 1e6 {
		t.Errorf("LLCLoads = %v", smp.LLCLoads)
	}
	if smp.RmtFlitsTx != 0 || smp.RmtFlitsRx != 0 {
		t.Error("local app must not move fabric flits")
	}
	if smp.RmtLatency != 350 {
		t.Errorf("idle fabric latency = %v", smp.RmtLatency)
	}
}

func TestIsolatedRemoteAppPaysPenalty(t *testing.T) {
	n := newTestNode()
	d := lightDemand(TierRemote)
	outs, smp := n.Tick([]Demand{d}, 1)
	if math.Abs(outs[0].Slowdown-1.2) > 1e-9 {
		t.Errorf("isolated remote slowdown = %v, want 1.2 (iso penalty)", outs[0].Slowdown)
	}
	if smp.RmtFlitsTx+smp.RmtFlitsRx == 0 {
		t.Error("remote app must generate fabric traffic")
	}
	// R3: remote traffic still shows on local memory controllers.
	if smp.MemLoads == 0 {
		t.Error("remote traffic must appear in local MemLoads (R3)")
	}
}

func TestCPUContention(t *testing.T) {
	n := newTestNode()
	demands := make([]Demand, 64)
	for i := range demands {
		d := lightDemand(TierLocal)
		d.CPUCores = 2 // 128 cores demanded on 64
		demands[i] = d
	}
	outs, _ := n.Tick(demands, 1)
	if math.Abs(outs[0].CPUSlow-2) > 1e-9 {
		t.Errorf("CPUSlow = %v, want 2", outs[0].CPUSlow)
	}
}

func TestZeroCPUDemandImmuneToCPUContention(t *testing.T) {
	n := newTestNode()
	demands := make([]Demand, 65)
	for i := range demands {
		d := lightDemand(TierLocal)
		d.CPUCores = 2
		demands[i] = d
	}
	demands[64].CPUCores = 0
	outs, _ := n.Tick(demands, 1)
	if outs[64].CPUSlow != 1 {
		t.Errorf("zero-CPU app CPUSlow = %v", outs[64].CPUSlow)
	}
}

func TestLLCContentionInflatesMisses(t *testing.T) {
	n := newTestNode()
	outs, _ := n.Tick([]Demand{lightDemand(TierLocal)}, 1)
	aloneMiss := outs[0].EffMissRatio // outcomes are only valid until the next Tick

	demands := []Demand{lightDemand(TierLocal)}
	for i := 0; i < 16; i++ {
		h := bwHog(TierLocal)
		h.WorkingSetBytes = 10e6 // 160 MB total >> 20 MB LLC
		demands = append(demands, h)
	}
	crowded, _ := n.Tick(demands, 1)
	if crowded[0].EffMissRatio <= aloneMiss {
		t.Errorf("miss ratio should inflate under LLC pressure: %v vs %v",
			crowded[0].EffMissRatio, aloneMiss)
	}
	if crowded[0].LLCSlow <= 1 {
		t.Errorf("LLCSlow = %v, want > 1", crowded[0].LLCSlow)
	}
}

func TestRemoteSaturationChasm(t *testing.T) {
	// R5: the same interference hurts much more on remote memory once the
	// fabric saturates.
	slow := func(tier Tier, hogs int) float64 {
		n := newTestNode()
		demands := []Demand{lightDemand(tier)}
		for i := 0; i < hogs; i++ {
			demands = append(demands, bwHog(tier))
		}
		outs, _ := n.Tick(demands, 1)
		return outs[0].Slowdown
	}
	localHeavy := slow(TierLocal, 16)
	remoteHeavy := slow(TierRemote, 16)
	if remoteHeavy <= localHeavy*1.5 {
		t.Errorf("remote under heavy membw interference should be much worse: local %v remote %v",
			localHeavy, remoteHeavy)
	}
	// Light interference: comparable (remote only pays its iso penalty).
	localLight := slow(TierLocal, 1)
	remoteLight := slow(TierRemote, 1)
	if remoteLight > localLight*2 {
		t.Errorf("light interference should not open a chasm: local %v remote %v",
			localLight, remoteLight)
	}
}

func TestFabricLatencyRisesUnderRemoteLoad(t *testing.T) {
	n := newTestNode()
	demands := make([]Demand, 16)
	for i := range demands {
		demands[i] = bwHog(TierRemote)
	}
	_, smp := n.Tick(demands, 1)
	if smp.RmtLatency < 800 {
		t.Errorf("fabric latency under 16 remote hogs = %v, want near 900", smp.RmtLatency)
	}
}

func TestCountersScaleWithSlowdown(t *testing.T) {
	// A starved app issues fewer loads per second than at full speed.
	n := newTestNode()
	demands := make([]Demand, 20)
	for i := range demands {
		demands[i] = bwHog(TierRemote)
	}
	outs, smp := n.Tick(demands, 1)
	var fullSpeed float64
	for _, d := range demands {
		fullSpeed += d.AccessRate
	}
	if smp.LLCLoads >= fullSpeed {
		t.Errorf("LLCLoads %v should be below full-speed %v when saturated", smp.LLCLoads, fullSpeed)
	}
	for _, o := range outs {
		if o.Slowdown < 1 {
			t.Errorf("slowdown below 1: %v", o.Slowdown)
		}
	}
}

func TestWriteFractionSplitsMemTraffic(t *testing.T) {
	n := newTestNode()
	d := lightDemand(TierLocal)
	d.WriteFraction = 0.25
	_, smp := n.Tick([]Demand{d}, 1)
	total := smp.MemLoads + smp.MemStores
	if total == 0 {
		t.Fatal("no memory traffic")
	}
	if math.Abs(smp.MemStores/total-0.25) > 1e-9 {
		t.Errorf("store share = %v, want 0.25", smp.MemStores/total)
	}
}

func TestSampleVectorAndNames(t *testing.T) {
	s := Sample{1, 2, 3, 4, 5, 6, 7}
	v := s.Vector()
	if len(v) != NumMetrics || len(MetricNames) != NumMetrics {
		t.Fatal("metric arity mismatch")
	}
	for i, x := range v {
		if x != float64(i+1) {
			t.Errorf("Vector[%d] = %v", i, x)
		}
	}
}

func TestLastSample(t *testing.T) {
	n := newTestNode()
	idle := n.LastSample()
	if idle.RmtLatency != 350 {
		t.Errorf("idle sample latency = %v", idle.RmtLatency)
	}
	_, smp := n.Tick([]Demand{lightDemand(TierLocal)}, 1)
	if n.LastSample() != smp {
		t.Error("LastSample should return the most recent tick sample")
	}
}

func TestTickPanicsOnBadDt(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	newTestNode().Tick(nil, 0)
}

func TestEmptyTick(t *testing.T) {
	n := newTestNode()
	outs, smp := n.Tick(nil, 1)
	if len(outs) != 0 {
		t.Error("no demands, no outcomes")
	}
	if smp.LLCLoads != 0 || smp.MemLoads != 0 {
		t.Errorf("idle counters = %+v", smp)
	}
}

// Property: adding interference never speeds up the victim (monotonicity).
func TestPropertyInterferenceMonotone(t *testing.T) {
	f := func(hogsRaw uint8) bool {
		hogs := int(hogsRaw % 24)
		base := func(k int) float64 {
			n := newTestNode()
			demands := []Demand{lightDemand(TierRemote)}
			for i := 0; i < k; i++ {
				demands = append(demands, bwHog(TierRemote))
			}
			outs, _ := n.Tick(demands, 1)
			return outs[0].Slowdown
		}
		return base(hogs+1) >= base(hogs)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: slowdown components are each >= 1 and total is their product.
func TestPropertySlowdownComposition(t *testing.T) {
	f := func(nHogs uint8, tierBit bool) bool {
		tier := TierLocal
		if tierBit {
			tier = TierRemote
		}
		n := newTestNode()
		demands := []Demand{lightDemand(tier)}
		for i := 0; i < int(nHogs%16); i++ {
			demands = append(demands, bwHog(tier))
		}
		outs, _ := n.Tick(demands, 1)
		for _, o := range outs {
			if o.CPUSlow < 1 || o.LLCSlow < 1 || o.BwSlow < 1 || o.LatSlow < 1 {
				return false
			}
			want := o.CPUSlow * o.LLCSlow * o.BwSlow * o.LatSlow
			if want < 1 {
				want = 1
			}
			if math.Abs(o.Slowdown-want) > 1e-9*want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// A node resolves every tick out of storage it keeps; nothing a crowded tick
// left there may reach the next one. After sixteen hogs on both tiers, a tick
// over three applications (one with no traffic, so no grant is written for
// it) must report what a fresh node reports.
func TestTickReusedStorageMatchesFresh(t *testing.T) {
	var crowd []Demand
	for i := 0; i < 16; i++ {
		crowd = append(crowd, bwHog(Tier(i%2)))
	}
	idle := lightDemand(TierRemote)
	idle.AccessRate = 0
	few := []Demand{lightDemand(TierRemote), idle, bwHog(TierLocal)}

	used, fresh := newTestNode(), newTestNode()
	used.Tick(crowd, 1)
	got, gotSmp := used.Tick(few, 1)
	want, wantSmp := fresh.Tick(few, 1)
	if len(got) != len(want) {
		t.Fatalf("%d outcomes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("outcome %d = %+v, fresh node %+v", i, got[i], want[i])
		}
	}
	if gotSmp != wantSmp {
		t.Errorf("sample = %+v, fresh node %+v", gotSmp, wantSmp)
	}
}
