package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"adrias/internal/cluster"
	"adrias/internal/core"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
)

// lastSliceEngine builds an engine whose remote pool holds exactly one
// iBench footprint (1 GB) — the canonical contended resource: every
// cold-start decision wants it, only one claim can commit.
func lastSliceEngine(tb testing.TB, seed int64) *SystemEngine {
	tb.Helper()
	ccfg := cluster.DefaultConfig()
	ccfg.Node.RemotePoolGB = 1
	return tinyEngine(tb, EngineConfig{Seed: seed, Cluster: &ccfg})
}

// TestCommitConflictDeterministic drives the claim/commit protocol by hand:
// four optimistic claims for the last 1 GB of remote headroom enter one
// sequencer batch. Exactly one commits; the other three are conflict
// losers, and each retry against the refreshed view finds no pool and
// downgrades to safe local with the commit-conflict reason. The counts are
// exact — conflicts, retries, and downgrades all equal R−1 — independent of
// scheduling, because the race is constructed, not run.
func TestCommitConflictDeterministic(t *testing.T) {
	eng := lastSliceEngine(t, 51)
	sh, ok := eng.NewShard(0).(*engineShard)
	if !ok {
		t.Fatal("NewShard did not return an engineShard")
	}
	prof := registry.ByName("ibench-membw") // 1 GB footprint
	const R = 4
	items := make([]*retryItem, R)
	results := make([]PlaceResult, R)
	for i := range items {
		items[i] = &retryItem{
			prof: prof,
			d:    core.Decision{App: prof.Name, Class: prof.Class, Tier: memsys.TierRemote, ColdStart: true},
			res:  &results[i], done: make(chan struct{}),
		}
	}
	losers := eng.commitClaims(items)
	if len(losers) != R-1 {
		t.Fatalf("losers = %d, want %d", len(losers), R-1)
	}
	if got := eng.conflicts.Load(); got != R-1 {
		t.Errorf("conflicts = %d, want %d", got, R-1)
	}
	winners := 0
	for _, it := range items {
		if itemDone(it) {
			winners++
			if it.res.Tier != memsys.TierRemote {
				t.Errorf("winner tier = %v, want remote", it.res.Tier)
			}
		}
	}
	if winners != 1 {
		t.Fatalf("winners = %d, want exactly 1", winners)
	}
	for _, it := range losers {
		sh.processRetry(it)
		if !itemDone(it) {
			t.Fatal("processRetry returned an unresolved item")
		}
		if it.res.Tier != memsys.TierLocal || !it.res.Fallback {
			t.Errorf("loser result = %+v, want local fallback", it.res)
		}
		if it.res.Reason != core.ReasonCommitConflict {
			t.Errorf("loser reason = %q, want %q", it.res.Reason, core.ReasonCommitConflict)
		}
	}
	if got := eng.commitRetries.Load(); got != R-1 {
		t.Errorf("commit retries = %d, want %d", got, R-1)
	}
	if got := eng.downgrades.Load(); got != R-1 {
		t.Errorf("downgrades = %d, want %d", got, R-1)
	}
	if got := eng.shardDecisions.Load(); got != R {
		t.Errorf("shard decisions = %d, want %d", got, R)
	}
}

// TestShardHammerLastSlice runs R replica shards concurrently (under -race
// in CI), all placing the same cold-start app against a pool that fits one.
// Whatever the interleaving: exactly one placement lands remote, every
// other request is answered local, and the conflict/retry/downgrade
// counters stay mutually consistent — every conflict loser is retried
// exactly once here (the refreshed view has no pool) and every retry
// downgrades with the audited commit-conflict reason.
func TestShardHammerLastSlice(t *testing.T) {
	eng := lastSliceEngine(t, 53)
	const R = 4
	shards := make([]Engine, R)
	for i := range shards {
		if shards[i] = eng.NewShard(i); shards[i] == nil {
			t.Fatal("NewShard returned nil without a learner")
		}
	}
	start := make(chan struct{})
	results := make([]PlaceResult, R)
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh Engine) {
			defer wg.Done()
			<-start
			results[i] = sh.PlaceBatch(context.Background(),
				[]PlaceRequest{{App: "ibench-membw"}})[0]
		}(i, sh)
	}
	close(start)
	wg.Wait()

	remote := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		switch r.Tier {
		case memsys.TierRemote:
			remote++
		case memsys.TierLocal:
			if !r.Fallback {
				t.Errorf("local result %d not marked fallback: %+v", i, r)
			}
			if r.Reason != core.ReasonCommitConflict && r.Reason != core.ReasonCapacity {
				t.Errorf("local result %d reason = %q", i, r.Reason)
			}
		}
	}
	if remote != 1 {
		t.Fatalf("remote winners = %d, want exactly 1", remote)
	}
	conflicts, retries, downgrades := eng.conflicts.Load(), eng.commitRetries.Load(), eng.downgrades.Load()
	lost := uint64(0)
	for _, r := range results {
		if r.Reason == core.ReasonCommitConflict {
			lost++
		}
	}
	if conflicts != retries || retries != downgrades || downgrades != lost {
		t.Errorf("counter drift: conflicts=%d retries=%d downgrades=%d commit-conflict results=%d",
			conflicts, retries, downgrades, lost)
	}
	if conflicts > R-1 {
		t.Errorf("conflicts = %d, cannot exceed %d losers", conflicts, R-1)
	}
	if got := eng.shardDecisions.Load(); got != R {
		t.Errorf("shard decisions = %d, want %d", got, R)
	}
	t.Logf("hammer: %d conflicts, %d retries, %d downgrades", conflicts, retries, downgrades)
}

// TestRetryRingDropOldest pins the bounded drop-oldest contract: the ring
// never holds more than retryRingCap items, a push into a full ring evicts
// the oldest loser back to the pusher, and pop preserves FIFO order over
// the survivors.
func TestRetryRingDropOldest(t *testing.T) {
	var r retryRing
	const extra = 44
	items := make([]*retryItem, retryRingCap+extra)
	var evicted []*retryItem
	for i := range items {
		items[i] = &retryItem{traceID: fmt.Sprint(i)}
		if ev := r.push(items[i]); ev != nil {
			evicted = append(evicted, ev)
		}
	}
	if len(evicted) != extra {
		t.Fatalf("evicted %d, want %d", len(evicted), extra)
	}
	for i, ev := range evicted {
		if ev != items[i] {
			t.Fatalf("eviction order: got item %s at %d, want %d", ev.traceID, i, i)
		}
	}
	for i := 0; i < retryRingCap; i++ {
		it := r.pop()
		if it == nil {
			t.Fatalf("ring empty after %d pops, want %d", i, retryRingCap)
		}
		if it != items[extra+i] {
			t.Fatalf("pop order: got %s at %d, want %d", it.traceID, i, extra+i)
		}
	}
	if r.pop() != nil {
		t.Error("ring not empty after draining")
	}
}

// TestRetryDropFinalizes: an item evicted from the full ring must still be
// finalized by the pusher (downgradeLocal) — its caller is blocked on the
// done channel and must get an answer — and the drop shows up on the
// exported counter.
func TestRetryDropFinalizes(t *testing.T) {
	eng := lastSliceEngine(t, 57)
	prof := registry.ByName("ibench-l3")
	var res PlaceResult
	it := &retryItem{
		prof: prof,
		d:    core.Decision{App: prof.Name, Class: prof.Class, Tier: memsys.TierRemote},
		res:  &res, done: make(chan struct{}),
	}
	// Simulate the pusher's eviction handling.
	eng.retryDrops.Add(1)
	eng.downgradeLocal(it)
	if !itemDone(it) {
		t.Fatal("evicted item not finalized")
	}
	if res.Tier != memsys.TierLocal || res.Reason != core.ReasonCommitConflict {
		t.Errorf("evicted item result = %+v, want local commit-conflict", res)
	}
	if got := eng.retryDrops.Load(); got != 1 {
		t.Errorf("retry drops = %d, want 1", got)
	}
}

// TestServiceReplicatedContention drives the full admission pipeline with
// four replica shards over a one-slice remote pool: every request must be
// answered, the placement mix must account for all of them, and the
// conflict counters must stay bounded by the contending population and
// mutually consistent. Also pins that the new commit/rack series render on
// /metrics.
func TestServiceReplicatedContention(t *testing.T) {
	eng := lastSliceEngine(t, 59)
	svc := NewService(eng, Config{Replicas: 4, MaxBatch: 4})
	defer closeAll(t, svc)
	eng.RegisterMetrics(svc.Metrics())

	const N = 32
	apps := []string{"ibench-membw", "gmm", "redis", "ibench-l3"}
	var wg sync.WaitGroup
	errs := make([]error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = svc.Place(context.Background(), PlaceRequest{App: apps[i%len(apps)]})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("place %d: %v", i, err)
		}
	}
	met := svc.Metrics()
	if got := met.PlacedLocal.Load() + met.PlacedRemote.Load(); got != N {
		t.Errorf("placement mix %d ≠ %d requests", got, N)
	}
	conflicts, retries, downgrades := eng.conflicts.Load(), eng.commitRetries.Load(), eng.downgrades.Load()
	if downgrades > retries || conflicts > uint64(N) {
		t.Errorf("unbounded conflict accounting: conflicts=%d retries=%d downgrades=%d",
			conflicts, retries, downgrades)
	}
	var sb strings.Builder
	met.WritePrometheus(&sb)
	out := sb.String()
	for _, series := range []string{
		"adrias_serve_commit_conflicts_total",
		"adrias_serve_commit_retries_total",
		"adrias_serve_commit_downgrades_total",
		"adrias_serve_retry_dropped_total",
		"adrias_serve_shard_decisions_total",
		"adrias_serve_cluster_nodes",
		"adrias_serve_cluster_view_version",
		`adrias_serve_node_remote_free_gb{node="0"}`,
	} {
		if !strings.Contains(out, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	t.Logf("contention: %d conflicts, %d retries, %d downgrades", conflicts, retries, downgrades)
}

// TestMultiNodeEngineSpreadsPlacements pins the rack path end to end: a
// 3-node engine publishes a view covering every node, placements carry the
// node they landed on, and cold starts claim the pool the view says has
// headroom.
func TestMultiNodeEngineSpreadsPlacements(t *testing.T) {
	eng := tinyEngine(t, EngineConfig{Seed: 61, Nodes: 3})
	v := eng.View()
	if len(v.Nodes) != 3 {
		t.Fatalf("view nodes = %d, want 3", len(v.Nodes))
	}
	if s := eng.Snapshot(); s.Nodes != 3 {
		t.Errorf("snapshot nodes = %d, want 3", s.Nodes)
	}
	sh := eng.NewShard(0)
	results := sh.PlaceBatch(context.Background(), []PlaceRequest{
		{App: "ibench-membw"}, {App: "gmm", DryRun: true},
	})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if r.Node < 0 || r.Node >= 3 {
			t.Errorf("result %d node = %d, outside the rack", i, r.Node)
		}
	}
	if !results[0].ColdStart || results[0].Tier != memsys.TierRemote {
		t.Errorf("cold start did not claim a remote pool: %+v", results[0])
	}
	after := eng.View()
	if after.Version <= v.Version {
		t.Errorf("view version did not advance on commit: %d → %d", v.Version, after.Version)
	}
	// The committed claim must be visible on the node the result names.
	if free := after.Nodes[results[0].Node].RemoteFreeGB; free >= v.Nodes[results[0].Node].RemoteFreeGB {
		t.Errorf("claimed pool did not shrink: %g → %g", v.Nodes[results[0].Node].RemoteFreeGB, free)
	}
}

// TestShardMemoCountsOnEngine: a shard's cloned predictor answers a repeated
// ask from its own memo, and counts it on the engine's counters — the ones
// /metrics renders for engine and shards together.
func TestShardMemoCountsOnEngine(t *testing.T) {
	eng := tinyEngine(t, EngineConfig{Seed: 43, Nodes: 2, Quantized: true})
	sh := eng.NewShard(0)
	reqs := []PlaceRequest{{App: "gmm", DryRun: true}}
	first := sh.PlaceBatch(context.Background(), reqs)[0]
	again := sh.PlaceBatch(context.Background(), reqs)[0]
	if first.Err != nil || first.PredLocalS <= 0 {
		t.Fatalf("first decision unusable: %+v", first)
	}
	if again.PredLocalS != first.PredLocalS || again.PredRemS != first.PredRemS || again.Tier != first.Tier {
		t.Errorf("repeated ask answered %+v, first %+v", again, first)
	}
	if h, m := eng.memo.Hits.Load(), eng.memo.Misses.Load(); h != 2 || m != 2 {
		t.Errorf("engine memo counters after a shard's miss then hit: %d hits / %d misses, want 2 / 2", h, m)
	}
}

// benchPlaceThroughput measures raw decide+commit throughput with R replica
// shards working one shared request stream of dry-run batches (batch of 8,
// the bench-gate shape). Dry runs exercise the full optimistic decide path
// — view load, node pick, batched prediction — without mutating the rack, so
// the numbers isolate placement-tier scaling from testbed churn. Every batch
// decides against a freshly published view whose windows differ by content
// from every earlier one (movedView), as after a tick, so each shard's
// prediction memo misses and the series keeps measuring inference-bound
// deciders — the regime its scaling and learn-overhead gates were set for.
func benchPlaceThroughput(b *testing.B, replicas int) {
	benchPlaceThroughputCfg(b, replicas, EngineConfig{Seed: 41, Quantized: true, Nodes: 2})
}

func benchPlaceThroughputCfg(b *testing.B, replicas int, cfg EngineConfig) {
	eng := tinyEngine(b, cfg)
	apps := []string{"gmm", "pagerank", "redis", "kmeans"}
	var next atomic.Int64
	var wg sync.WaitGroup
	base := eng.view.Load()
	b.ResetTimer()
	for r := 0; r < replicas; r++ {
		sh := eng.NewShard(r)
		if sh == nil {
			b.Fatal("NewShard returned nil")
		}
		wg.Add(1)
		go func(sh Engine) {
			defer wg.Done()
			reqs := make([]PlaceRequest, 8)
			for i := range reqs {
				reqs[i] = PlaceRequest{App: apps[i%len(apps)], DryRun: true}
			}
			for n := next.Add(1); n <= int64(b.N); n = next.Add(1) {
				eng.view.Store(movedView(base, n))
				sh.PlaceBatch(context.Background(), reqs)
			}
		}(sh)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(8*b.N)/b.Elapsed().Seconds(), "placements/s")
}

// movedView copies v with the newest cell of every node's window offset by
// n: a view no decider has seen, without the cost of a testbed tick.
func movedView(v *rackView, n int64) *rackView {
	out := *v
	out.win = make([][]mathx.Vector, len(v.win))
	for i, w := range v.win {
		out.win[i] = append([]mathx.Vector(nil), w...)
		last := len(w) - 1
		out.win[i][last] = w[last].Clone()
		out.win[i][last][0] += float64(n)
	}
	return &out
}

func BenchmarkPlaceThroughputR1(b *testing.B) { benchPlaceThroughput(b, 1) }
func BenchmarkPlaceThroughputR2(b *testing.B) { benchPlaceThroughput(b, 2) }
func BenchmarkPlaceThroughputR4(b *testing.B) { benchPlaceThroughput(b, 4) }

var _ ShardedEngine = (*SystemEngine)(nil)
var _ Engine = (*engineShard)(nil)
