package serve

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adrias/internal/core"
	"adrias/internal/faults"
)

// TestPlaceCloseShutdownRace is the regression test for the shutdown race:
// a request that passes the closed check but is enqueued after the drain
// loop's final sweep used to wait out its entire deadline. Hammer Place
// concurrently with Close (run under -race in CI): every caller must return
// promptly — a decision, ErrClosed, or ErrOverloaded — never a deadline.
func TestPlaceCloseShutdownRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		eng := &fakeEngine{}
		// A deliberately huge default timeout: if any request strands in the
		// queue, the test times out instead of quietly passing.
		svc := NewService(eng, Config{DefaultTimeout: time.Minute, QueueDepth: 64})

		const hammers = 8
		var wg sync.WaitGroup
		var deadline atomic.Int32
		start := make(chan struct{})
		for i := 0; i < hammers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 50; j++ {
					_, err := svc.Place(context.Background(), PlaceRequest{App: "gmm"})
					switch {
					case err == nil,
						errors.Is(err, ErrClosed),
						errors.Is(err, ErrOverloaded):
					case errors.Is(err, context.DeadlineExceeded):
						deadline.Add(1)
						return
					default:
						t.Errorf("unexpected error: %v", err)
						return
					}
				}
			}()
		}
		close(start)
		// Close races the hammers: the whole round must finish in far less
		// time than the one-minute request deadline.
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		if err := svc.Close(context.Background()); err != nil {
			t.Fatalf("round %d: drain: %v", round, err)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: placers stranded after drain (shutdown race)", round)
		}
		if deadline.Load() != 0 {
			t.Fatalf("round %d: %d requests waited out their deadline", round, deadline.Load())
		}
	}
}

// TestAdvanceFractionalCadence is the regression test for fractional-second
// drift: Advance used to truncate sub-second amounts, so fine-grained
// cadences silently injected no ambient load. The arrival stream must now be
// cadence-invariant: the same seed produces exactly the same arrival count
// whether time advances in steps of 1, 0.25, or 2.5 simulated seconds.
func TestAdvanceFractionalCadence(t *testing.T) {
	const horizon = 100.0
	count := func(step float64) uint64 {
		eng := tinyEngine(t, EngineConfig{Seed: 77, AmbientRate: 0.5})
		for sim := 0.0; sim < horizon; sim += step {
			eng.Advance(step)
		}
		return eng.Snapshot().AmbientStarted
	}
	whole := count(1)
	if whole == 0 {
		t.Fatal("no ambient arrivals over 100 s at rate 0.5")
	}
	if quarter := count(0.25); quarter != whole {
		t.Errorf("cadence 0.25 s: %d arrivals, cadence 1 s: %d — fractional remainders dropped", quarter, whole)
	}
	if coarse := count(2.5); coarse != whole {
		t.Errorf("cadence 2.5 s: %d arrivals, cadence 1 s: %d", coarse, whole)
	}
	// The historical bug: a sub-second-only cadence injected nothing at all.
	if half := count(0.5); half != whole {
		t.Errorf("cadence 0.5 s: %d arrivals, cadence 1 s: %d", half, whole)
	}
}

// TestEngineBreakerLifecycle drives a full injected predictor outage through
// the engine: predict-error decisions while the outage begins, a breaker
// trip, breaker-open decisions (cached or safe-local fallbacks) while open,
// degraded health, and recovery — the breaker closes and normal predicted
// decisions resume once the fault window ends.
func TestEngineBreakerLifecycle(t *testing.T) {
	spec, err := faults.ParseSpec("predict-error@0+30")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(spec, 1)
	eng := tinyEngine(t, EngineConfig{
		Seed:    5,
		Faults:  inj,
		Breaker: faults.BreakerConfig{Threshold: 2, Cooldown: 5},
	})
	ctx := context.Background()
	place := func() PlaceResult {
		t.Helper()
		res := eng.PlaceBatch(ctx, []PlaceRequest{{App: "gmm", DryRun: true}})
		if res[0].Err != nil {
			t.Fatalf("place: %v", res[0].Err)
		}
		return res[0]
	}

	// Outage active, breaker still closed: injected errors classify as
	// predict-error safe-local fallbacks.
	r := place()
	if r.Reason != core.ReasonPredictError || !r.Fallback {
		t.Fatalf("first outage decision = %+v, want predict-error fallback", r)
	}
	r = place() // second consecutive failure trips the breaker
	if eng.Breaker().State() != faults.Open {
		t.Fatalf("breaker = %v after %d failing batches", eng.Breaker().State(), 2)
	}

	// Open: decisions short-circuit with the breaker-open reason; health
	// reports degraded.
	r = place()
	if r.Reason != core.ReasonBreakerOpen || !r.Fallback {
		t.Fatalf("open-breaker decision = %+v, want breaker-open fallback", r)
	}
	s := eng.Snapshot()
	if !s.Degraded || s.Breaker != "open" {
		t.Fatalf("snapshot during outage = %+v", s)
	}

	// Ride out the fault window plus the cooldown; the half-open probe then
	// succeeds against the healed predictor and the breaker closes.
	eng.Advance(31) // outage over (30 s window)
	eng.Advance(5)  // cooldown elapsed
	r = place()
	if r.Reason == core.ReasonBreakerOpen || r.Reason == core.ReasonPredictError {
		t.Fatalf("probe decision = %+v, want a normal predicted decision", r)
	}
	if eng.Breaker().State() != faults.Closed {
		t.Fatalf("breaker = %v after recovery", eng.Breaker().State())
	}
	s = eng.Snapshot()
	if s.Degraded || s.Breaker != "closed" {
		t.Fatalf("snapshot after recovery = %+v", s)
	}
	if c := eng.Breaker().Counters(); c.Trips == 0 || c.Recoveries == 0 {
		t.Errorf("breaker lifecycle counters = %+v", c)
	}
}

// TestFaultsFireOnMemoHits: the prediction memo sits under the fault
// injector and the breaker, so a batch the memo could answer is still
// corrupted by an active predict-nan, still failed by an active
// predict-error, and still short-circuited by an open breaker.
func TestFaultsFireOnMemoHits(t *testing.T) {
	spec, err := faults.ParseSpec("predict-nan@10+10;predict-error@30+1000")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(spec, 1)
	eng := tinyEngine(t, EngineConfig{
		Seed:    5,
		Faults:  inj,
		Breaker: faults.BreakerConfig{Threshold: 3, Cooldown: 1e6},
	})
	ctx := context.Background()
	// place decides gmm (two BE queries) and reports how the memo answered.
	place := func() (r PlaceResult, hits, misses uint64) {
		t.Helper()
		h0, m0 := eng.memo.Hits.Load(), eng.memo.Misses.Load()
		res := eng.PlaceBatch(ctx, []PlaceRequest{{App: "gmm", DryRun: true}})
		if res[0].Err != nil {
			t.Fatalf("place: %v", res[0].Err)
		}
		return res[0], eng.memo.Hits.Load() - h0, eng.memo.Misses.Load() - m0
	}

	// Healthy: the second ask of the same window is answered by the memo.
	first, _, misses := place()
	if first.Reason != core.ReasonBESlack || misses != 2 {
		t.Fatalf("first decision = %+v with %d misses, want be-slack computed by the models", first, misses)
	}
	again, hits, _ := place()
	if hits != 2 || again.PredLocalS != first.PredLocalS || again.PredRemS != first.PredRemS {
		t.Fatalf("second decision = %+v with %d hits, want the first one's predictions from the memo", again, hits)
	}

	// predict-nan: corrupts computed and remembered predictions alike.
	eng.Advance(11)
	for i, wantHits := range []uint64{0, 2} {
		r, hits, _ := place()
		if r.Reason != core.ReasonPredictError || !r.Fallback || hits != wantHits {
			t.Errorf("nan window, ask %d: %+v with %d memo hits, want predict-error with %d", i, r, hits, wantHits)
		}
	}
	if n := inj.Injections(faults.PredictNaN); n != 2 {
		t.Errorf("predict-nan applied %d times, want 2 (once per batch, hit or miss)", n)
	}

	// Clean gap: the memo kept the true values, not the corrupted ones.
	eng.Advance(10)
	place()
	if r, hits, _ := place(); r.Reason != core.ReasonBESlack || hits != 2 {
		t.Errorf("after the nan window: %+v with %d memo hits, want a normal decision from the memo", r, hits)
	}

	// predict-error: every batch fails above the memo, which is not even
	// consulted; the third failure trips the breaker, and the open breaker
	// answers from its own last-good cache.
	eng.Advance(10)
	for i := 0; i < 3; i++ {
		if r, hits, misses := place(); r.Reason != core.ReasonPredictError || hits+misses != 0 {
			t.Errorf("outage ask %d: %+v (%d memo lookups), want predict-error without reaching the memo", i, r, hits+misses)
		}
	}
	if eng.Breaker().State() != faults.Open {
		t.Fatalf("breaker = %v after 3 failed batches", eng.Breaker().State())
	}
	if r, hits, misses := place(); r.Reason != core.ReasonBreakerOpen || !r.Fallback || r.PredLocalS <= 0 || hits+misses != 0 {
		t.Errorf("open breaker: %+v (%d memo lookups), want breaker-open on last-good predictions without reaching the memo", r, hits+misses)
	}
}

// TestEngineNaNNeverReachesDecision: with a predict-nan fault active, the
// decision path classifies the corrupted outputs as predict-error and no
// NaN/Inf leaks into results or the audit trail.
func TestEngineNaNNeverReachesDecision(t *testing.T) {
	spec, err := faults.ParseSpec("predict-nan@0+1000")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(spec, 1)
	eng := tinyEngine(t, EngineConfig{Seed: 6, Faults: inj, DisableBreaker: true})
	res := eng.PlaceBatch(context.Background(), []PlaceRequest{
		{App: "gmm", DryRun: true},
		{App: "redis", DryRun: true},
	})
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("place: %v", r.Err)
		}
		if r.Reason != core.ReasonPredictError || !r.Fallback {
			t.Errorf("decision = %+v, want predict-error fallback", r)
		}
		if math.IsNaN(r.PredLocalS) || math.IsInf(r.PredLocalS, 0) ||
			math.IsNaN(r.PredRemS) || math.IsInf(r.PredRemS, 0) {
			t.Errorf("non-finite prediction leaked into the result: %+v", r)
		}
	}
	if inj.Injections(faults.PredictNaN) == 0 {
		t.Error("NaN fault was never applied")
	}
}

// TestEngineFabricDegradedReason: with the link flapped, remote verdicts —
// including cold starts — degrade to local with the fabric-degraded reason,
// and the health snapshot reports the impaired fabric.
func TestEngineFabricDegradedReason(t *testing.T) {
	spec, err := faults.ParseSpec("fabric-flap@0+1000")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(spec, 1)
	eng := tinyEngine(t, EngineConfig{Seed: 7, Faults: inj})
	eng.Advance(1) // a tick applies the scheduled flap to the fabric
	s := eng.Snapshot()
	if !s.FabricDegraded || !s.Degraded {
		t.Fatalf("snapshot with flapped link = %+v", s)
	}
	// ibench-membw has no signature: normally a remote cold start.
	res := eng.PlaceBatch(context.Background(), []PlaceRequest{{App: "ibench-membw", DryRun: true}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if res[0].Tier.String() != "local" || res[0].Reason != core.ReasonFabricDegraded {
		t.Errorf("cold start on a downed link = %+v, want local/fabric-degraded", res[0])
	}
}

// TestEngineMetricsTypesAndSnapshot: the sigcache series are counter-typed
// (they are _total counters) and the engine block renders breaker and
// degraded series.
func TestEngineMetricsTypesAndSnapshot(t *testing.T) {
	eng := tinyEngine(t, EngineConfig{Seed: 8})
	m := NewMetrics()
	eng.RegisterMetrics(m)
	var buf strings.Builder
	m.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE adrias_serve_sigcache_hits_total counter",
		"# TYPE adrias_serve_sigcache_misses_total counter",
		"# TYPE adrias_serve_predict_memo_hits_total counter",
		"# TYPE adrias_serve_predict_memo_misses_total counter",
		"# TYPE adrias_serve_breaker_state gauge",
		"# TYPE adrias_serve_degraded gauge",
		"adrias_serve_breaker_trips_total 0",
		"adrias_serve_degraded 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
