package serve

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"adrias/internal/cluster"
	"adrias/internal/core"
	"adrias/internal/faults"
	"adrias/internal/memsys"
	"adrias/internal/workload"
)

// checkAdmissionInvariants asserts what must hold after any admission run,
// from inside the program (the benchmark's post-run /metrics check tests
// the same from outside): one decision per answered request
// (adrias_serve_decisions_total), no double finalization, every node's
// remote pool inside [0, capacity], and every deploy finalized by exactly
// one of a won commit or a commit downgrade. Call it once the run has
// quiesced.
func checkAdmissionInvariants(t *testing.T, eng *SystemEngine, answered, deployed uint64) {
	t.Helper()
	if got := eng.sloDecisions.Load(); got != answered {
		t.Errorf("decisions_total = %d, want %d requests answered", got, answered)
	}
	if got := eng.dupFinalizes.Load(); got != 0 {
		t.Errorf("finalize_dups = %d, want 0", got)
	}
	eng.mu.Lock()
	for i, c := range eng.nodes {
		capGB := c.Node().Config().RemotePoolGB
		if free := c.CapacityLeftGB(memsys.TierRemote); free < 0 || free > capGB {
			t.Errorf("node %d remote free %g GB outside [0, %g]", i, free, capGB)
		}
	}
	eng.mu.Unlock()
	if c, d := eng.commits.Load(), eng.downgrades.Load(); c+d != deployed {
		t.Errorf("placements %d != commits %d + downgrades %d", deployed, c, d)
	}
}

// TestSingleReplicaMatchesLiveDecide is the differential check of the one
// admission path at R = 1: the engine's decider reads the published view,
// never the live cluster, yet a seeded stream of dry-run batches over 200
// Advance steps must decide exactly what a reference orchestrator deciding
// on the live cluster (DecideBatchInto) decides — tier, node, both
// predictions bit for bit, reason, fallback and cold start — on the float
// models, on the int8 twin, and through a fabric-degraded fault window.
func TestSingleReplicaMatchesLiveDecide(t *testing.T) {
	cases := []struct {
		name      string
		quantized bool
		faults    string
	}{
		{name: "float"},
		{name: "int8", quantized: true},
		{name: "fabric-degraded", faults: "fabric-flap@40+50;fabric-bandwidth@120+40"},
	}
	apps := []string{"gmm", "pagerank", "kmeans", "wordcount", "nweight", "svm",
		"redis", "memcached", "ibench-membw", "ibench-l3", "nosuch"}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := EngineConfig{Seed: int64(71 + ci), QoSFactor: 2, AmbientRate: 0.3, Quantized: tc.quantized}
			if tc.faults != "" {
				spec, err := faults.ParseSpec(tc.faults)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = faults.NewInjector(spec, 1)
			}
			eng := tinyEngine(t, cfg)
			refPred := tiny.pred.Clone()
			ref := core.NewOrchestrator(refPred, tiny.watch, eng.cfg.Beta)
			for app, q := range eng.qosMs {
				ref.QoSMs[app] = q
			}
			if tc.quantized {
				ref.Infer = core.NewQuantPredictor(refPred)
			}
			ref.FabricDegraded = eng.cl.Node().Fabric().Degraded

			rng := rand.New(rand.NewSource(int64(ci) + 1))
			ctx := context.Background()
			var profiles []*workload.Profile
			var ds []core.Decision
			decisions, degraded := 0, 0
			for step := 0; step < 200; step++ {
				eng.Advance(1)
				reqs := make([]PlaceRequest, 1+rng.Intn(4))
				for i := range reqs {
					reqs[i] = PlaceRequest{App: apps[rng.Intn(len(apps))], DryRun: true}
				}
				got := eng.PlaceBatch(ctx, reqs)
				profiles = profiles[:0]
				for _, r := range reqs {
					if p := registry.ByName(r.App); p != nil {
						profiles = append(profiles, p)
					}
				}
				ds = append(ds[:0], make([]core.Decision, len(profiles))...)
				ref.DecideBatchInto(ctx, profiles, eng.cl, ds)
				k := 0
				for i, r := range got {
					if registry.ByName(reqs[i].App) == nil {
						if r.Err == nil {
							t.Fatalf("step %d: unknown app %q answered %+v", step, reqs[i].App, r)
						}
						continue
					}
					d := ds[k]
					k++
					decisions++
					if d.Reason == core.ReasonFabricDegraded {
						degraded++
					}
					if r.Err != nil || r.Tier != d.Tier || r.Node != d.Node ||
						math.Float64bits(r.PredLocalS) != math.Float64bits(d.PredLocal) ||
						math.Float64bits(r.PredRemS) != math.Float64bits(d.PredRem) ||
						r.Reason != d.Reason || r.Fallback != d.Fallback || r.ColdStart != d.ColdStart {
						t.Fatalf("step %d %s: R = 1 decided %+v, live reference %+v", step, d.App, r, d)
					}
				}
			}
			if tc.faults != "" && degraded == 0 {
				t.Error("the fault window degraded no decision")
			}
			checkAdmissionInvariants(t, eng, uint64(decisions), 0)
			t.Logf("%d decisions identical, %d fabric-degraded", decisions, degraded)
		})
	}
}

// TestSingleReplicaDeploysRaceAdvance drives the one-replica service with
// real deploys while Advance ticks the testbed underneath (under -race in
// CI) on a small remote pool, so claims decided against one view commit
// after a tick has moved the rack: every request is answered and the
// admission invariants hold.
func TestSingleReplicaDeploysRaceAdvance(t *testing.T) {
	ccfg := cluster.DefaultConfig()
	ccfg.Node.RemotePoolGB = 6
	eng := tinyEngine(t, EngineConfig{Seed: 73, Cluster: &ccfg, AmbientRate: 0.3})
	svc := NewService(eng, Config{Replicas: 1, MaxBatch: 4})
	defer closeAll(t, svc)

	stop := make(chan struct{})
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		for {
			select {
			case <-stop:
				return
			default:
				eng.Advance(1)
			}
		}
	}()
	const N = 64
	apps := []string{"ibench-membw", "gmm", "redis", "ibench-l3", "pagerank", "kmeans"}
	var deployed atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := PlaceRequest{App: apps[i%len(apps)], DryRun: i%4 == 3}
			if _, err := svc.Place(context.Background(), req); err != nil {
				t.Errorf("place %d: %v", i, err)
			} else if !req.DryRun {
				deployed.Add(1)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-ticked
	checkAdmissionInvariants(t, eng, svc.Metrics().ReqOK.Load(), deployed.Load())
	t.Logf("%d deploys: %d commits, %d conflicts, %d downgrades",
		deployed.Load(), eng.commits.Load(), eng.conflicts.Load(), eng.downgrades.Load())
}
