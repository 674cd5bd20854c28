package thymesis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero cap", func(c *Config) { c.CapBps = 0 }},
		{"zero flit", func(c *Config) { c.FlitBytes = 0 }},
		{"sat below base", func(c *Config) { c.SatLatencyCycles = 100 }},
		{"plateau below knee", func(c *Config) { c.SatPlateau = c.SatKnee }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config should panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.CapBps = -1
	New(cfg)
}

func TestMaxMinFairUnderload(t *testing.T) {
	alloc := MaxMinFair([]float64{10, 20, 30}, 100)
	want := []float64{10, 20, 30}
	for i := range want {
		if math.Abs(alloc[i]-want[i]) > 1e-9 {
			t.Errorf("alloc = %v", alloc)
			break
		}
	}
}

func TestMaxMinFairOverload(t *testing.T) {
	// capacity 30 among demands {10, 50, 50}: small one satisfied, the rest
	// split the remainder evenly.
	alloc := MaxMinFair([]float64{10, 50, 50}, 30)
	if math.Abs(alloc[0]-10) > 1e-9 || math.Abs(alloc[1]-10) > 1e-9 || math.Abs(alloc[2]-10) > 1e-9 {
		t.Errorf("alloc = %v", alloc)
	}
}

func TestMaxMinFairProgressiveFilling(t *testing.T) {
	// {5, 20, 20} with capacity 35: 5 satisfied, remaining 30 split 15/15.
	alloc := MaxMinFair([]float64{5, 20, 20}, 35)
	if math.Abs(alloc[0]-5) > 1e-9 || math.Abs(alloc[1]-15) > 1e-9 || math.Abs(alloc[2]-15) > 1e-9 {
		t.Errorf("alloc = %v", alloc)
	}
}

func TestMaxMinFairEdgeCases(t *testing.T) {
	if got := MaxMinFair(nil, 100); len(got) != 0 {
		t.Errorf("nil demands: %v", got)
	}
	got := MaxMinFair([]float64{-5, 10}, 100)
	if got[0] != 0 || got[1] != 10 {
		t.Errorf("negative demand: %v", got)
	}
	got = MaxMinFair([]float64{10, 10}, 0)
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("zero capacity: %v", got)
	}
}

// Property: allocation never exceeds demand, never exceeds capacity in
// total, and total equals min(Σdemand, capacity).
func TestMaxMinFairProperty(t *testing.T) {
	f := func(raw [8]uint16, capRaw uint16) bool {
		demands := make([]float64, len(raw))
		var total float64
		for i, r := range raw {
			demands[i] = float64(r % 1000)
			total += demands[i]
		}
		capacity := float64(capRaw%2000) + 1
		alloc := MaxMinFair(demands, capacity)
		var sum float64
		for i := range alloc {
			if alloc[i] > demands[i]+1e-9 || alloc[i] < 0 {
				return false
			}
			sum += alloc[i]
		}
		want := math.Min(total, capacity)
		return math.Abs(sum-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFig2Shape verifies the three published remarks R1/R2 against the model:
// bandwidth caps at ~2.5 Gbps and latency steps from ~350 to ~900 cycles
// between 4 and 8 memory-bandwidth hogs.
// maxMinFairLists is progressive filling as MaxMinFair wrote it before its
// working lists were folded into the grants: an index list of unsatisfied
// demands, rebuilt every round, and a remaining-need vector.
func maxMinFairLists(demands []float64, capacity float64) []float64 {
	alloc := make([]float64, len(demands))
	if capacity <= 0 || len(demands) == 0 {
		return alloc
	}
	remaining := capacity
	unsat := make([]int, 0, len(demands))
	need := make([]float64, len(demands))
	for i, d := range demands {
		if d > 0 {
			unsat = append(unsat, i)
			need[i] = d
		}
	}
	for len(unsat) > 0 && remaining > 1e-12 {
		share := remaining / float64(len(unsat))
		next := unsat[:0]
		progressed := false
		for _, i := range unsat {
			if need[i] <= share {
				alloc[i] += need[i]
				remaining -= need[i]
				need[i] = 0
				progressed = true
			} else {
				next = append(next, i)
			}
		}
		unsat = next
		if !progressed {
			for _, i := range unsat {
				alloc[i] += share
			}
			break
		}
	}
	return alloc
}

// The list-free core must grant every tenant the same bits, whatever the
// storage held before.
func TestMaxMinFairIntoMatchesLists(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	alloc := make([]float64, 0, 16)
	for trial := 0; trial < 5000; trial++ {
		demands := make([]float64, rng.Intn(16))
		for i := range demands {
			switch rng.Intn(6) {
			case 0:
				demands[i] = 0
			case 1:
				demands[i] = -rng.Float64()
			case 2:
				demands[i] = 1e8 // ties
			default:
				demands[i] = math.Exp(14 + 6*rng.Float64())
			}
		}
		capacity := []float64{0, -1, 1e-13, 3.125e8, 6e10}[rng.Intn(5)]
		alloc = alloc[:len(demands)]
		for i := range alloc {
			alloc[i] = rng.Float64() // stale grants from the tick before
		}
		MaxMinFairInto(alloc, demands, capacity)
		want := maxMinFairLists(demands, capacity)
		for i := range want {
			if math.Float64bits(alloc[i]) != math.Float64bits(want[i]) {
				t.Fatalf("demands %v capacity %v: grant %d = %v, list reference %v", demands, capacity, i, alloc[i], want[i])
			}
		}
	}
}

func TestFig2Shape(t *testing.T) {
	const perHog = 0.6e9 / 8 // ≈0.6 Gbps demand per memBw microbenchmark, in B/s
	lat := map[int]float64{}
	bw := map[int]float64{}
	for _, hogs := range []int{1, 2, 4, 8, 16, 32} {
		f := New(DefaultConfig())
		demands := make([]float64, hogs)
		for i := range demands {
			demands[i] = perHog
		}
		res := f.Tick(demands, 0.7, 1)
		lat[hogs] = res.LatencyCycles
		bw[hogs] = res.DeliveredBps
	}
	// R1: bounded throughput.
	if bw[32] > 2.5e9+1 {
		t.Errorf("throughput exceeds cap: %g", bw[32])
	}
	if bw[8] < 2.4e9 {
		t.Errorf("channel should be saturated at 8 hogs: %g", bw[8])
	}
	// Throughput grows steadily below saturation.
	if !(bw[1] < bw[2] && bw[2] < bw[4]) {
		t.Errorf("bandwidth not increasing below saturation: %v", bw)
	}
	// R2: latency flat through 4 hogs, ~tripled from 8.
	if lat[1] != 350 || lat[2] != 350 || lat[4] != 350 {
		t.Errorf("low-load latency should be 350 cycles: %v", lat)
	}
	if lat[8] < 850 {
		t.Errorf("latency at 8 hogs should be near 900, got %g", lat[8])
	}
	if math.Abs(lat[16]-900) > 1 || math.Abs(lat[32]-900) > 1 {
		t.Errorf("latency should plateau at 900: %v", lat)
	}
}

func TestTickFlitAccounting(t *testing.T) {
	f := New(DefaultConfig())
	// One tenant, 1.6 Gbps demand (= 0.2e9 B/s), fully granted.
	res := f.Tick([]float64{0.2e9}, 0.5, 1)
	wantBytes := 0.2e9
	wantFlits := wantBytes / 32
	if math.Abs(res.FlitsTx+res.FlitsRx-wantFlits) > 1 {
		t.Errorf("flits = %g + %g, want total %g", res.FlitsTx, res.FlitsRx, wantFlits)
	}
	if math.Abs(res.FlitsRx-wantFlits/2) > 1 {
		t.Errorf("read fraction 0.5 should split flits evenly: rx=%g", res.FlitsRx)
	}
	c := f.Counters()
	if math.Abs(c.BytesMoved-wantBytes) > 1 || c.Ticks != 1 {
		t.Errorf("counters = %+v", c)
	}
}

func TestCountersAccumulate(t *testing.T) {
	f := New(DefaultConfig())
	for i := 0; i < 5; i++ {
		f.Tick([]float64{1e8}, 1, 1)
	}
	c := f.Counters()
	if c.Ticks != 5 {
		t.Errorf("Ticks = %d", c.Ticks)
	}
	if math.Abs(c.BytesMoved-5e8) > 10 {
		t.Errorf("BytesMoved = %g", c.BytesMoved)
	}
	f.Reset()
	if f.Counters().Ticks != 0 || f.Counters().BytesMoved != 0 {
		t.Error("Reset failed")
	}
}

func TestRemoteAccessLatencyScales(t *testing.T) {
	f := New(DefaultConfig())
	low := f.Tick([]float64{1e8}, 1, 1)
	if math.Abs(low.RemoteAccessNs-900) > 1 {
		t.Errorf("unloaded remote access = %g ns, want ~900", low.RemoteAccessNs)
	}
	sat := f.Tick([]float64{1e9, 1e9, 1e9}, 1, 1)
	if sat.RemoteAccessNs <= low.RemoteAccessNs {
		t.Error("saturated access latency should exceed unloaded")
	}
	wantRatio := sat.LatencyCycles / 350
	if math.Abs(sat.RemoteAccessNs/900-wantRatio) > 1e-9 {
		t.Errorf("access latency should scale with channel latency")
	}
}

func TestTickPanicsOnBadDt(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Tick with dt=0 should panic")
		}
	}()
	New(DefaultConfig()).Tick(nil, 1, 0)
}

func TestSlowdown(t *testing.T) {
	if Slowdown(0, 0) != 1 {
		t.Error("no demand means no slowdown")
	}
	if Slowdown(100, 100) != 1 {
		t.Error("fully granted means no slowdown")
	}
	if got := Slowdown(100, 50); got != 2 {
		t.Errorf("half granted = %v, want 2", got)
	}
	if !math.IsInf(Slowdown(100, 0), 1) {
		t.Error("zero grant should be infinite slowdown")
	}
	if Slowdown(50, 100) != 1 {
		t.Error("overgranted clamps to 1")
	}
}

// Property: latency is monotone non-decreasing in utilization and bounded by
// [base, sat].
func TestLatencyPropertyMonotone(t *testing.T) {
	cfg := DefaultConfig()
	f := func(a, b uint16) bool {
		u1 := float64(a%500) / 100
		u2 := float64(b%500) / 100
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		l1, l2 := cfg.latencyCycles(u1), cfg.latencyCycles(u2)
		return l1 <= l2+1e-9 &&
			l1 >= cfg.BaseLatencyCycles-1e-9 && l2 <= cfg.SatLatencyCycles+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDegradationBandwidthClamp: a clamped cap binds before the calibrated
// R1 bound and clearing the degradation restores it exactly.
func TestDegradationBandwidthClamp(t *testing.T) {
	f := New(DefaultConfig())
	demand := []float64{1e9} // 8 Gbps, saturating either way
	healthy := f.Tick(demand, 0.7, 1).DeliveredBps

	f.SetDegradation(Degradation{BandwidthScale: 0.25})
	if !f.Degraded() {
		t.Fatal("clamped fabric should report degraded")
	}
	clamped := f.Tick(demand, 0.7, 1)
	if want := healthy * 0.25; math.Abs(clamped.DeliveredBps-want) > 1 {
		t.Errorf("clamped delivery = %g, want %g", clamped.DeliveredBps, want)
	}
	// The clamp also drives the link into back-pressure at lower offered load.
	if clamped.LatencyCycles <= 350 {
		t.Errorf("saturated clamped link should back-pressure, got %g cycles", clamped.LatencyCycles)
	}

	f.SetDegradation(Degradation{})
	if f.Degraded() {
		t.Fatal("cleared degradation must report healthy")
	}
	if got := f.Tick(demand, 0.7, 1).DeliveredBps; math.Abs(got-healthy) > 1 {
		t.Errorf("recovery delivery = %g, want %g", got, healthy)
	}
}

// TestDegradationLatencyInflation: LatencyScale multiplies the R2 latency
// (and the effective remote-access latency) without touching bandwidth.
func TestDegradationLatencyInflation(t *testing.T) {
	f := New(DefaultConfig())
	demand := []float64{1e8} // far below the cap
	base := f.Tick(demand, 0.7, 1)

	f.SetDegradation(Degradation{LatencyScale: 2.5})
	infl := f.Tick(demand, 0.7, 1)
	if want := base.LatencyCycles * 2.5; math.Abs(infl.LatencyCycles-want) > 1e-9 {
		t.Errorf("latency = %g, want %g", infl.LatencyCycles, want)
	}
	if want := base.RemoteAccessNs * 2.5; math.Abs(infl.RemoteAccessNs-want) > 1e-9 {
		t.Errorf("remote access = %g ns, want %g", infl.RemoteAccessNs, want)
	}
	if math.Abs(infl.DeliveredBps-base.DeliveredBps) > 1 {
		t.Errorf("latency inflation must not change bandwidth: %g vs %g",
			infl.DeliveredBps, base.DeliveredBps)
	}
}

// TestDegradationLinkDown: a downed link grants nothing, saturates, and no
// division blow-up leaks NaN into the telemetry.
func TestDegradationLinkDown(t *testing.T) {
	f := New(DefaultConfig())
	f.SetDegradation(Degradation{Down: true})
	res := f.Tick([]float64{1e8, 2e8}, 0.5, 1)
	if res.DeliveredBps != 0 || res.FlitsTx != 0 || res.FlitsRx != 0 {
		t.Errorf("downed link moved data: %+v", res)
	}
	if res.LatencyCycles < 899 {
		t.Errorf("downed link with pending demand should sit at the plateau, got %g", res.LatencyCycles)
	}
	if math.IsNaN(res.Utilization) || math.IsNaN(res.LatencyCycles) {
		t.Errorf("NaN in downed-link telemetry: %+v", res)
	}
	// Idle downed link: still no NaN.
	idle := f.Tick([]float64{}, 0.5, 1)
	if math.IsNaN(idle.Utilization) || math.IsNaN(idle.LatencyCycles) {
		t.Errorf("NaN in idle downed-link telemetry: %+v", idle)
	}
}

func TestDegradationActive(t *testing.T) {
	cases := []struct {
		d    Degradation
		want bool
	}{
		{Degradation{}, false},
		{Degradation{LatencyScale: 1}, false},
		{Degradation{BandwidthScale: 1}, false},
		{Degradation{LatencyScale: 1.5}, true},
		{Degradation{BandwidthScale: 0.5}, true},
		{Degradation{Down: true}, true},
	}
	for _, c := range cases {
		if got := c.d.Active(); got != c.want {
			t.Errorf("Active(%+v) = %v, want %v", c.d, got, c.want)
		}
	}
}
