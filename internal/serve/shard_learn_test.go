package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"adrias/internal/core"
	"adrias/internal/learn"
	"adrias/internal/memsys"
	"adrias/internal/obs"
)

// TestShardSwapPropagation drives the full drift→retrain→shadow→swap
// lifecycle while four replica shards hammer the admission path, then
// proves the promoted generation reaches every shard within one batch:
// after the swap quiesces, the very next batch on each shard must be
// audited with ModelGen equal to the live generation — zero
// stale-generation decisions past the swap barrier (DESIGN.md §14).
func TestShardSwapPropagation(t *testing.T) {
	eng := tinyEngine(t, learnTestConfig())
	eng.audit = obs.NewAuditLog(512)
	lp := eng.Learner()
	if lp == nil {
		t.Fatal("learner not constructed")
	}

	const replicas = 4
	shards := make([]Engine, replicas)
	for i := range shards {
		shards[i] = eng.NewShard(i)
		if shards[i] == nil {
			t.Fatalf("NewShard(%d) returned nil with -learn armed", i)
		}
	}

	// Hammer: each shard decides dry-run batches concurrently while the
	// main goroutine serves real load and ticks the clock — the swap lands
	// mid-hammer, exercising the eager invalidation + re-clone under -race.
	apps := []string{"gmm", "pagerank", "kmeans", "wordcount"}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(sh Engine) {
			defer wg.Done()
			reqs := make([]PlaceRequest, 2)
			for j := range reqs {
				reqs[j] = PlaceRequest{App: apps[j], DryRun: true}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				sh.PlaceBatch(context.Background(), reqs)
				// Light cadence: enough traffic to land the swap mid-hammer
				// without starving the background candidate fit of CPU
				// (slowed an order of magnitude under -race).
				time.Sleep(5 * time.Millisecond)
			}
		}(shards[i])
	}

	ctx := context.Background()
	var st learn.Stats
	// A wider budget than the serial lifecycle test: the hammer contends for
	// CPU with the background fit, and a strict shadow margin may discard a
	// first candidate before one promotes.
	deadline := time.Now().Add(300 * time.Second)
	for round := 0; round < 1500 && time.Now().Before(deadline); round++ {
		reqs := []PlaceRequest{{App: apps[round%len(apps)]}}
		for _, r := range eng.PlaceBatch(ctx, reqs) {
			if r.Err != nil {
				t.Fatalf("placement failed: %v", r.Err)
			}
		}
		eng.Advance(60)
		st = lp.Snapshot()
		if st.Swaps >= 1 {
			break
		}
		if st.State == learn.StateTraining {
			time.Sleep(20 * time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	if st.Swaps < 1 {
		t.Fatalf("no model swap; final stats %+v", st)
	}
	gen := lp.Generation()
	if gen < 2 {
		t.Fatalf("generation after swap = %d, want ≥ 2", gen)
	}

	// Swap barrier: the hammer is quiesced, so each shard has at most one
	// already-decided in-flight batch behind it. A fresh audit log isolates
	// the post-barrier decisions, making the zero-stale assertion
	// unconditional.
	eng.audit = obs.NewAuditLog(64)
	for _, sh := range shards {
		reqs := []PlaceRequest{{App: "gmm", DryRun: true}, {App: "redis", DryRun: true}}
		for _, r := range sh.PlaceBatch(ctx, reqs) {
			if r.Err != nil {
				t.Fatalf("post-swap placement failed: %v", r.Err)
			}
		}
	}
	seen := make(map[int]bool)
	for _, rec := range eng.audit.Snapshot() {
		if rec.Replica == 0 {
			t.Errorf("sharded decision missing replica stamp: %+v", rec)
			continue
		}
		seen[rec.Replica] = true
		if rec.ModelGen != gen {
			t.Errorf("replica %d decided on generation %d after swap to %d",
				rec.Replica, rec.ModelGen, gen)
		}
	}
	for r := 1; r <= replicas; r++ {
		if !seen[r] {
			t.Errorf("no post-swap decision audited for replica %d", r)
		}
	}
	// Every shard was eagerly invalidated by the swap and re-cloned the
	// promoted stack exactly once per swap it observed.
	if got := eng.shardReclones.Load(); got < replicas {
		t.Errorf("shard reclones = %d, want ≥ %d (every replica re-clones after a swap)",
			got, replicas)
	}
	if got := eng.dupFinalizes.Load(); got != 0 {
		t.Errorf("dup finalizes = %d, want 0", got)
	}
}

// TestRetryDoubleFinalizeGuard: the eviction and drain paths can both reach
// the same retry item — a loser evicted from the full ring while its
// submitter's work-steal drain already popped it. The claim guard must let
// exactly one path deploy and close done; the second attempt is a counted
// no-op (a second close would panic, a second deploy would double-book the
// pool).
func TestRetryDoubleFinalizeGuard(t *testing.T) {
	eng := lastSliceEngine(t, 61)
	prof := registry.ByName("ibench-l3")
	var res PlaceResult
	it := &retryItem{claim: claim{
		prof: prof,
		d:    core.Decision{App: prof.Name, Class: prof.Class, Tier: memsys.TierRemote},
		res:  &res,
	}, done: make(chan struct{})}
	eng.downgradeLocal(it)
	if !itemDone(it) {
		t.Fatal("first finalize did not complete the item")
	}
	first := res
	eng.downgradeLocal(it) // second finalizer loses the claim
	if res.Tier != first.Tier || res.Reason != first.Reason {
		t.Errorf("second finalize mutated the result: %+v -> %+v", first, res)
	}
	if got := eng.dupFinalizes.Load(); got != 1 {
		t.Errorf("dup finalizes = %d, want 1", got)
	}
	if got := eng.downgrades.Load(); got != 1 {
		t.Errorf("downgrades = %d, want 1 (the losing path must not re-deploy)", got)
	}
}

// BenchmarkPlaceThroughputR4Learn is BenchmarkPlaceThroughputR4 with the
// online learning loop armed: the per-batch generation check on the shard
// hot path must not cost the scale-out tier its throughput
// (scripts/bench_gate.sh pins it at ≤1.05× the learn-off time).
func BenchmarkPlaceThroughputR4Learn(b *testing.B) {
	benchPlaceThroughputCfg(b, 4, EngineConfig{
		Seed: 41, Quantized: true, Nodes: 2, Learn: &learn.Config{},
	})
}
