package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/randutil"
)

func TestRegistryComplete(t *testing.T) {
	r := NewRegistry()
	if got := len(r.Spark()); got != 17 {
		t.Errorf("Spark profiles = %d, want 17", got)
	}
	if got := len(r.LC()); got != 2 {
		t.Errorf("LC profiles = %d, want 2", got)
	}
	if got := len(r.IBench()); got != 4 {
		t.Errorf("iBench profiles = %d, want 4", got)
	}
	if got := len(r.Names()); got != 23 {
		t.Errorf("total profiles = %d, want 23", got)
	}
	for _, n := range r.Names() {
		p := r.ByName(n)
		if p == nil {
			t.Fatalf("ByName(%q) = nil", n)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", n, err)
		}
	}
	if r.ByName("no-such-app") != nil {
		t.Error("unknown name should return nil")
	}
}

func TestClassString(t *testing.T) {
	if BestEffort.String() != "BE" || LatencyCritical.String() != "LC" || Interference.String() != "iBench" {
		t.Error("Class.String wrong")
	}
	if Class(99).String() == "" {
		t.Error("unknown class should still stringify")
	}
}

// TestFig4Calibration checks the published isolated remote/local shape:
// nweight and lr near 2×, gmm and pca below 10 %, fleet average ≈ 20-30 %.
func TestFig4Calibration(t *testing.T) {
	r := NewRegistry()
	pen := func(name string) float64 { return r.ByName(name).RemotePenaltyIso }
	if pen("nweight") < 1.9 || pen("lr") < 1.8 {
		t.Errorf("nweight/lr should be near 2×: %v %v", pen("nweight"), pen("lr"))
	}
	if pen("gmm") > 1.1 || pen("pca") > 1.1 {
		t.Errorf("gmm/pca should be < 10%%: %v %v", pen("gmm"), pen("pca"))
	}
	var sum float64
	for _, p := range r.Spark() {
		sum += p.RemotePenaltyIso
	}
	avg := sum / float64(len(r.Spark()))
	if avg < 1.1 || avg > 1.35 {
		t.Errorf("average remote penalty = %v, want ≈1.2", avg)
	}
}

func TestLCCalibration(t *testing.T) {
	r := NewRegistry()
	redis, mc := r.ByName("redis"), r.ByName("memcached")
	// Paper §IV-A: ≈30k and ≈100k ops/s.
	if redis.TargetOpsRate != 30e3 || mc.TargetOpsRate != 100e3 {
		t.Errorf("target rates: %v %v", redis.TargetOpsRate, mc.TargetOpsRate)
	}
	// R4: unloaded remote penalty tiny for in-memory caches.
	if redis.RemotePenaltyIso > 1.1 || mc.RemotePenaltyIso > 1.1 {
		t.Error("LC remote penalty should be small (R4)")
	}
	// R5: more resistant to interference.
	if redis.InterfSens >= 1 || mc.InterfSens >= 1 {
		t.Error("LC InterfSens should be < 1 (R5)")
	}
}

func TestProfileValidate(t *testing.T) {
	bad := []Profile{
		{},
		{Name: "x", Class: BestEffort},
		{Name: "x", Class: LatencyCritical, RemotePenaltyIso: 1, InterfSens: 1},
		{Name: "x", Class: BestEffort, BaseExecSec: 1, MissRatioIso: 2, RemotePenaltyIso: 1, InterfSens: 1},
		{Name: "x", Class: BestEffort, BaseExecSec: 1, WriteFraction: -0.1, RemotePenaltyIso: 1, InterfSens: 1},
		{Name: "x", Class: BestEffort, BaseExecSec: 1, RemotePenaltyIso: 0.5, InterfSens: 1},
		{Name: "x", Class: BestEffort, BaseExecSec: 1, RemotePenaltyIso: 1, InterfSens: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestDemandPerTier(t *testing.T) {
	r := NewRegistry()
	p := r.ByName("nweight")
	dl := p.Demand(memsys.TierLocal)
	dr := p.Demand(memsys.TierRemote)
	if dl.Tier != memsys.TierLocal || dr.Tier != memsys.TierRemote {
		t.Error("tier not propagated")
	}
	// Remote offered traffic is latency-bound: much lower than local.
	localBw := dl.AccessRate * dl.MissRatioIso * 128
	remoteBw := dr.AccessRate * dr.MissRatioIso * 128
	if math.Abs(localBw-p.LocalBwBps) > 1 {
		t.Errorf("local traffic = %v, want %v", localBw, p.LocalBwBps)
	}
	if math.Abs(remoteBw-p.RemoteBwBps) > 1 {
		t.Errorf("remote traffic = %v, want %v", remoteBw, p.RemoteBwBps)
	}
	if remoteBw >= localBw {
		t.Error("remote offered traffic should be below local")
	}
}

func TestBEInstanceLifecycle(t *testing.T) {
	r := NewRegistry()
	p := r.ByName("wordcount") // 35 s base
	in := NewInstance(1, p, memsys.TierLocal, 100, randutil.New(1))
	if in.Done() {
		t.Fatal("fresh instance already done")
	}
	now := 100.0
	ticks := 0
	for !in.Done() {
		now++
		in.Advance(now, 1, 1)
		ticks++
		if ticks > 1000 {
			t.Fatal("instance never finished")
		}
	}
	if ticks != 35 {
		t.Errorf("isolated local run took %d ticks, want 35", ticks)
	}
	if math.Abs(in.ExecTime(now)-35) > 1e-9 {
		t.Errorf("ExecTime = %v", in.ExecTime(now))
	}
	// Advancing a finished instance is a no-op.
	if in.Advance(now+1, 1, 1) {
		t.Error("finished instance re-completed")
	}
	d := in.Demand()
	if d.AccessRate != 0 || d.CPUCores != 0 {
		t.Error("finished instance should demand nothing")
	}
}

func TestBESlowdownScalesExecTime(t *testing.T) {
	r := NewRegistry()
	p := r.ByName("wordcount")
	in := NewInstance(1, p, memsys.TierLocal, 0, randutil.New(1))
	now := 0.0
	for !in.Done() {
		now++
		in.Advance(now, 1, 2) // constant 2× slowdown
	}
	if math.Abs(in.ExecTime(now)-70) > 1e-6 {
		t.Errorf("ExecTime under 2× slowdown = %v, want 70", in.ExecTime(now))
	}
}

func TestSubTickCompletionRefinement(t *testing.T) {
	p := &Profile{
		Name: "tiny", Class: BestEffort, BaseExecSec: 1.5,
		RemotePenaltyIso: 1, InterfSens: 1,
	}
	in := NewInstance(1, p, memsys.TierLocal, 0, randutil.New(1))
	in.Advance(1, 1, 1)
	if in.Done() {
		t.Fatal("should not be done after 1 s of a 1.5 s job")
	}
	in.Advance(2, 1, 1)
	if !in.Done() {
		t.Fatal("should be done after 2 s")
	}
	if math.Abs(in.DoneAt-1.5) > 1e-9 {
		t.Errorf("DoneAt = %v, want 1.5", in.DoneAt)
	}
}

func TestLCInstanceServesAndSamples(t *testing.T) {
	r := NewRegistry()
	p := r.ByName("redis")
	in := NewInstance(1, p, memsys.TierLocal, 0, randutil.New(7))
	now := 0.0
	for i := 0; i < 100; i++ {
		now++
		in.Advance(now, 1, 1)
	}
	if got := in.OpsServed(); math.Abs(got-100*p.TargetOpsRate) > 1 {
		t.Errorf("OpsServed = %v, want %v", got, 100*p.TargetOpsRate)
	}
	if in.LatencySampleCount() == 0 {
		t.Fatal("no latency samples collected")
	}
	p50 := in.TailLatency(50)
	p99 := in.TailLatency(99)
	p999 := in.TailLatency(99.9)
	if !(p50 < p99 && p99 < p999) {
		t.Errorf("percentiles not ordered: %v %v %v", p50, p99, p999)
	}
	// Median should be near the calibrated base (light load, no interference).
	if p50 < p.BaseP50Ms*0.7 || p50 > p.BaseP50Ms*2.5 {
		t.Errorf("p50 = %v, want near %v", p50, p.BaseP50Ms)
	}
}

func TestLCRemoteNearLocal(t *testing.T) {
	// R4/Fig. 3: unloaded remote tail latency is close to local.
	r := NewRegistry()
	p := r.ByName("memcached")
	run := func(tier memsys.Tier) float64 {
		in := NewInstance(1, p, tier, 0, randutil.New(3))
		for i := 1; i <= 200; i++ {
			in.Advance(float64(i), 1, 1)
		}
		return in.TailLatency(99)
	}
	local, remote := run(memsys.TierLocal), run(memsys.TierRemote)
	if remote < local {
		t.Logf("remote %v below local %v (sampling noise tolerated)", remote, local)
	}
	if remote > local*1.3 {
		t.Errorf("unloaded remote p99 should be near local: %v vs %v", remote, local)
	}
}

func TestLCSlowdownRaisesTail(t *testing.T) {
	r := NewRegistry()
	p := r.ByName("redis")
	run := func(slow float64) float64 {
		in := NewInstance(1, p, memsys.TierLocal, 0, randutil.New(5))
		for i := 1; i <= 200; i++ {
			in.Advance(float64(i), 1, slow)
		}
		return in.TailLatency(99)
	}
	if calm, loaded := run(1), run(4); loaded <= calm*1.5 {
		t.Errorf("interference should raise tail latency: %v vs %v", calm, loaded)
	}
}

func TestLCCompletion(t *testing.T) {
	p := &Profile{
		Name: "fastlc", Class: LatencyCritical,
		TotalOps: 1000, MaxOpsPerSec: 2000, TargetOpsRate: 500,
		BaseP50Ms: 1, LatSigma: 0.3,
		RemotePenaltyIso: 1, InterfSens: 0.5,
	}
	in := NewInstance(1, p, memsys.TierLocal, 0, randutil.New(1))
	now := 0.0
	for !in.Done() {
		now++
		in.Advance(now, 1, 1)
		if now > 100 {
			t.Fatal("LC run never completed")
		}
	}
	if math.Abs(in.ExecTime(now)-2) > 1e-9 { // 1000 ops at 500 ops/s
		t.Errorf("LC ExecTime = %v, want 2", in.ExecTime(now))
	}
}

func TestSetLoadFactor(t *testing.T) {
	r := NewRegistry()
	p := r.ByName("redis")
	in := NewInstance(1, p, memsys.TierLocal, 0, randutil.New(2))
	in.SetLoadFactor(1.5)
	in.Advance(1, 1, 1)
	if got := in.OpsServed(); math.Abs(got-1.5*p.TargetOpsRate) > 1 {
		t.Errorf("load factor 1.5: served %v, want %v", got, 1.5*p.TargetOpsRate)
	}
	// Saturation: offered load beyond capacity serves at capacity.
	in2 := NewInstance(2, p, memsys.TierLocal, 0, randutil.New(2))
	in2.SetLoadFactor(10)
	in2.Advance(1, 1, 1)
	if got := in2.OpsServed(); got > p.MaxOpsPerSec+1 {
		t.Errorf("saturated instance served %v > capacity %v", got, p.MaxOpsPerSec)
	}
}

func TestSetLoadFactorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-positive load factor")
		}
	}()
	r := NewRegistry()
	NewInstance(1, r.ByName("redis"), memsys.TierLocal, 0, randutil.New(1)).SetLoadFactor(0)
}

func TestInterferenceSensDamping(t *testing.T) {
	r := NewRegistry()
	redis := NewInstance(1, r.ByName("redis"), memsys.TierLocal, 0, randutil.New(1))
	// Raw slowdown 3 → effective 1 + 2×0.45 = 1.9 for redis.
	redis.Advance(1, 1, 3)
	want := 1 + 2*r.ByName("redis").InterfSens
	if math.Abs(redis.LastSlowdown-want) > 1e-9 {
		t.Errorf("effective slowdown = %v, want %v", redis.LastSlowdown, want)
	}
	spark := NewInstance(2, r.ByName("sort"), memsys.TierLocal, 0, randutil.New(1))
	spark.Advance(1, 1, 3)
	if math.Abs(spark.LastSlowdown-3) > 1e-9 {
		t.Errorf("BE effective slowdown = %v, want 3", spark.LastSlowdown)
	}
}

// Property: BE execution time under constant slowdown s is s × base.
func TestPropertyBEExecTimeLinear(t *testing.T) {
	r := NewRegistry()
	p := r.ByName("gmm")
	f := func(sRaw uint8) bool {
		s := 1 + float64(sRaw%40)/10 // 1.0 .. 4.9
		in := NewInstance(1, p, memsys.TierLocal, 0, randutil.New(1))
		now := 0.0
		for !in.Done() {
			now++
			in.Advance(now, 1, s)
			if now > 1e5 {
				return false
			}
		}
		want := p.BaseExecSec * s
		return math.Abs(in.ExecTime(now)-want) < 1e-6*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: slowdowns below 1 are clamped — no app ever speeds up.
func TestPropertySlowdownClamped(t *testing.T) {
	r := NewRegistry()
	p := r.ByName("lda")
	f := func(sRaw uint8) bool {
		s := float64(sRaw) / 255 // 0 .. 1
		in := NewInstance(1, p, memsys.TierLocal, 0, randutil.New(1))
		in.Advance(1, 1, s)
		return in.LastSlowdown >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestTailLatenciesMatchEagerExp drives an LC instance past the point where
// its reservoir starts replacing samples, under a slowdown that keeps
// changing, beside a reference that exponentiates every draw of the same
// stream, keeps the response times themselves and sorts them to read a
// percentile. Every percentile must agree to the last bit.
func TestTailLatenciesMatchEagerExp(t *testing.T) {
	p := longLC()
	for _, tier := range []memsys.Tier{memsys.TierLocal, memsys.TierRemote} {
		in := NewInstance(1, p, tier, 0, randutil.New(21))
		ref := randutil.New(21)
		var vals []float64
		seen := 0
		for tick := 1; tick <= 900; tick++ {
			raw := wavySlowdown(tick)
			in.Advance(float64(tick), 1, raw)
			mu := refLogMedian(p, tier, raw)
			for i := 0; i < latSamplesPerTick; i++ {
				x := math.Exp(ref.Normal(mu, p.LatSigma)) // one log-normal latency draw
				seen++
				if len(vals) < maxLatSamples {
					vals = append(vals, x)
				} else if j := ref.Intn(seen); j < maxLatSamples {
					vals[j] = x
				}
			}
			if tick != 1 && tick != 300 && tick != 900 {
				continue
			}
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			pcts := []float64{50, 99, 99.9, 100}
			got := in.TailLatencies(pcts...)
			for i, pct := range pcts {
				want := mathx.PercentileSorted(sorted, pct)
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Errorf("%v tick %d: p%v = %v, eager reference %v", tier, tick, pct, got[i], want)
				}
				if one := in.TailLatency(pct); one != got[i] {
					t.Errorf("%v tick %d: TailLatency(%v) = %v, TailLatencies %v", tier, tick, pct, one, got[i])
				}
			}
		}
		if in.LatencySampleCount() != maxLatSamples {
			t.Fatalf("reservoir holds %d samples, want it full", in.LatencySampleCount())
		}
	}
}

// longLC is an LC service that never finishes inside a test.
func longLC() *Profile {
	return &Profile{
		Name: "longlc", Class: LatencyCritical,
		TotalOps: 1e12, MaxOpsPerSec: 60e3, TargetOpsRate: 30e3,
		BaseP50Ms: 0.45, LatSigma: 0.55, RemoteLatFrac: 0.06,
		RemotePenaltyIso: 1, InterfSens: 0.5,
	}
}

// wavySlowdown is a raw slowdown that keeps changing from tick to tick.
func wavySlowdown(tick int) float64 { return 1 + 3*math.Abs(math.Sin(float64(tick)/17)) }

// refLogMedian is the log-median of one tick's response times, written out
// from the latency model (load factor 1).
func refLogMedian(p *Profile, tier memsys.Tier, raw float64) float64 {
	s := 1 + (raw-1)*p.InterfSens
	rate := math.Min(p.TargetOpsRate, p.MaxOpsPerSec/s)
	median := p.BaseP50Ms * s * (1 + 2*math.Pow(math.Min(rate*s/p.MaxOpsPerSec, 1), 3))
	if tier == memsys.TierRemote {
		median *= 1 + p.RemoteLatFrac
	}
	return math.Log(median)
}

// eagerReservoir is the sampler the pending log replaced: every tick draws
// its latSamplesPerTick log-latencies into the Algorithm-R reservoir at
// once.
type eagerReservoir struct {
	rng  *randutil.Source
	res  mathx.Vector
	seen int
}

func (e *eagerReservoir) tick(mu, sigma float64) {
	for i := 0; i < latSamplesPerTick; i++ {
		x := e.rng.Normal(mu, sigma)
		e.seen++
		if len(e.res) < maxLatSamples {
			e.res = append(e.res, x)
		} else if j := e.rng.Intn(e.seen); j < maxLatSamples {
			e.res[j] = x
		}
	}
}

// TestLatencyReservoirLazyMatchesEager runs LC instances on both tiers beside
// the eager sampler on the same stream. One never finishes, lives well past
// latFoldTicks (so full pending logs fold and replacement draws run) and is
// read either never mid-run or at random ticks, ticking on after each read;
// one finishes before its reservoir fills and is read once, at completion.
// At every read the reservoir, its count and its tails must match the
// eager sampler's to the last bit.
func TestLatencyReservoirLazyMatchesEager(t *testing.T) {
	short := longLC()
	short.Name, short.TotalOps = "shortlc", 30e3*400
	pcts := []float64{50, 99, 99.9, 100}
	picks := rand.New(rand.NewSource(31))
	for _, tier := range []memsys.Tier{memsys.TierLocal, memsys.TierRemote} {
		for _, c := range []struct {
			name        string
			p           *Profile
			ticks       int
			midRunReads bool
		}{
			{"fold-only", longLC(), 2*latFoldTicks + 100, false},
			{"random-reads", longLC(), 3 * latFoldTicks, true},
			{"finishes", short, 600, false},
		} {
			in := NewInstance(1, c.p, tier, 0, randutil.New(41))
			ref := &eagerReservoir{rng: randutil.New(41)}
			check := func(tick int) {
				t.Helper()
				got := in.TailLatencies(pcts...)
				if n := in.LatencySampleCount(); n != len(ref.res) {
					t.Fatalf("%v %s tick %d: %d samples, eager %d", tier, c.name, tick, n, len(ref.res))
				}
				if !in.Done() && cap(in.latReservoir) != maxLatSamples {
					t.Fatalf("%v %s tick %d: running instance's reservoir has cap %d, want it allocated full",
						tier, c.name, tick, cap(in.latReservoir))
				}
				for i, x := range in.latReservoir {
					if math.Float64bits(x) != math.Float64bits(ref.res[i]) {
						t.Fatalf("%v %s tick %d: reservoir[%d] = %v, eager %v", tier, c.name, tick, i, x, ref.res[i])
					}
				}
				for i, want := range mathx.QuantilesMapped(ref.res, math.Exp, pcts...) {
					if math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("%v %s tick %d: p%v = %v, eager %v", tier, c.name, tick, pcts[i], got[i], want)
					}
				}
			}
			next := 1 + picks.Intn(latFoldTicks)
			tick := 1
			for ; tick <= c.ticks && !in.Done(); tick++ {
				raw := wavySlowdown(tick)
				in.Advance(float64(tick), 1, raw)
				ref.tick(refLogMedian(c.p, tier, raw), c.p.LatSigma)
				if c.midRunReads && tick == next {
					check(tick)
					next += 1 + picks.Intn(latFoldTicks)
				}
			}
			check(tick - 1)
			switch {
			case c.name == "finishes" && (!in.Done() || cap(in.latReservoir) != len(ref.res)):
				t.Errorf("%v %s: done %v, reservoir cap %d for %d samples; want done, sized exactly",
					tier, c.name, in.Done(), cap(in.latReservoir), len(ref.res))
			case c.name != "finishes" && ref.seen <= maxLatSamples:
				t.Errorf("%v %s: %d draws never replaced a sample", tier, c.name, ref.seen)
			}
		}
	}
}
