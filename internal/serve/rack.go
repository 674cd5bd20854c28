// Rack-scale placement: N replica shards decide optimistically over one
// published ClusterView and commit claims through a single sequencer (the
// engine mutex), the arktos shared-state scheduling pattern applied to the
// paper's scalability sketch (§VII). A shard's decide path takes no lock —
// one atomic load of the view, its own cloned inference stack — so
// placement throughput scales with replicas; correctness is restored at
// commit time, where a remote claim re-validates the pool it decided
// against and losers retry from a bounded drop-oldest ring before
// downgrading to the audited safe local tier (reason commit-conflict).
package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adrias/internal/cluster"
	"adrias/internal/core"
	"adrias/internal/learn"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/obs"
	"adrias/internal/workload"
)

// rackView is the engine's published ClusterView: per-node occupancy plus
// the monitoring window each node's Watcher saw when the view was built.
// It is immutable once stored in SystemEngine.view — shards read it with
// one atomic load and never take the engine lock to decide.
type rackView struct {
	ver  uint64
	time float64
	occ  []cluster.NodeOccupancy
	win  [][]mathx.Vector // per-node history window; nil until the watcher is ready
}

// buildView snapshots the whole rack with fresh monitoring windows. Called
// under mu (or from the constructor before any concurrency exists); it is
// the only view path that reallocates windows, and it runs once per
// Advance, off the request path.
func (e *SystemEngine) buildView() *rackView {
	v := &rackView{
		ver:  e.viewVer,
		time: e.cl.Now(),
		occ:  make([]cluster.NodeOccupancy, len(e.nodes)),
		win:  make([][]mathx.Vector, len(e.nodes)),
	}
	for i, c := range e.nodes {
		v.occ[i] = c.Occupancy(i)
		v.win[i] = e.watch.Window(c)
	}
	return v
}

// republishOccupancy publishes a fresh occupancy snapshot after commits,
// reusing the current view's windows (occupancy moved; the tick did not).
// Called under mu.
func (e *SystemEngine) republishOccupancy() {
	old := e.view.Load()
	v := &rackView{ver: e.viewVer, occ: make([]cluster.NodeOccupancy, len(e.nodes))}
	if old != nil {
		v.time, v.win = old.time, old.win
	} else {
		v.win = make([][]mathx.Vector, len(e.nodes))
	}
	for i, c := range e.nodes {
		v.occ[i] = c.Occupancy(i)
	}
	e.view.Store(v)
}

// View returns the published rack-state snapshot in its wire shape.
func (e *SystemEngine) View() cluster.View {
	v := e.view.Load()
	if v == nil {
		return cluster.View{}
	}
	return cluster.View{Version: v.ver, Time: v.time, Nodes: v.occ}
}

// maxCommitRetries bounds how many times a conflict loser re-decides
// against a refreshed view before downgrading to the safe local tier.
const maxCommitRetries = 2

// retryRingCap bounds the conflict-loser retry ring (drop-oldest past it).
const retryRingCap = 256

// retryItem is one optimistic claim in flight through commit: decided by a
// shard, committed by the sequencer, on conflict re-decided from the ring.
// done is closed exactly once, when res is final; the owning shard blocks
// on it, so whichever goroutine finalized the item happens-before the read.
type retryItem struct {
	prof     *workload.Profile
	d        core.Decision
	traceID  string
	batch    int
	attempts int
	// gen/replica stamp the model generation that decided the claim and the
	// 1-based shard that owns it, carried through to the audit record even
	// when another replica's drain loop finalizes the item.
	gen     int
	replica int
	// win is the monitoring window the decision saw (immutable snapshot
	// rows), so a committed claim can register with the learning loop.
	win  []mathx.Vector
	res  *PlaceResult // the owner's result slot; written only by the finalizer
	done chan struct{}
	// finalized guards the deploy+publish+close sequence: eviction by a
	// pusher and the work-steal drain are disjoint under the ring mutex
	// today, but a close of an already-closed done would crash the whole
	// server, so finalization is claimed with one CAS and duplicate claims
	// are counted (adrias_serve_finalize_dups_total) instead of fatal.
	finalized atomic.Bool
}

// claimFinalize claims the right to finalize the item; exactly one caller
// wins. Claim only at the point of definite finalization (after a commit's
// CanFit check passes, or on entry to the downgrade path) — a claimed item
// that is not finalized would strand its owner on done forever.
func (it *retryItem) claimFinalize() bool { return it.finalized.CompareAndSwap(false, true) }

// retryRing is the bounded drop-oldest queue of commit-conflict losers.
// Mirrors the decision-log retention fix: the ring never grows past its
// capacity; pushing into a full ring evicts the oldest loser and returns it
// to the pusher, which must finalize it so its caller still gets an answer.
type retryRing struct {
	mu    sync.Mutex
	items []*retryItem
	start int
	n     int
}

func (r *retryRing) push(it *retryItem) (evicted *retryItem) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.items == nil {
		r.items = make([]*retryItem, retryRingCap)
	}
	if r.n == len(r.items) {
		evicted = r.items[r.start]
		r.items[r.start] = it
		r.start = (r.start + 1) % len(r.items)
		return evicted
	}
	r.items[(r.start+r.n)%len(r.items)] = it
	r.n++
	return nil
}

func (r *retryRing) pop() *retryItem {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return nil
	}
	it := r.items[r.start]
	r.items[r.start] = nil
	r.start = (r.start + 1) % len(r.items)
	r.n--
	return it
}

// engineShard is one placement replica: its own cloned inference stack and
// orchestrator scratch over the shared rack state. Safe to run concurrently
// with other shards and with the engine's own PlaceBatch; a single shard
// serves one batch at a time (the service gives each replica goroutine its
// own shard).
type engineShard struct {
	id   int
	eng  *SystemEngine
	orch *core.Orchestrator
	// base is the slot at the bottom of the shard's own inference stack; a
	// re-clone retargets it and leaves the wrappers above in place.
	base *core.SwappableInference

	// gen is the model generation the shard's cloned stack was built from
	// (1 when the learning loop is off). Atomic: the owning goroutine
	// re-stamps it on re-clone while /metrics reads it per scrape.
	gen atomic.Int64
	// stale is the eager swap signal: recordSwap sets it the moment a
	// candidate is promoted, so the shard re-clones at the top of its next
	// batch instead of discovering the mismatch by the generation compare.
	stale atomic.Bool

	// batch scratch, reused across batches.
	profiles []*workload.Profile
	idx      []int
	ds       []core.Decision
	items    []*retryItem
}

// NewShard mints replica decider id over this engine's rack state: a clone
// of the float models under the shard's own inference stack (inferStack —
// the injector and breaker are the engine's, shared) and an independent
// orchestrator scratch. The signature store is shared: it is internally
// locked, so in-situ captures on the commit path become visible to every
// shard immediately. With the online learning loop armed, the clone source
// is the loop's current live generation and the shard re-clones whenever a
// promotion moves it (maybeReclone), so hot-swap propagates to every replica
// within one batch.
func (e *SystemEngine) NewShard(id int) Engine {
	gen, pred := 1, e.orch.Pred
	if e.learner != nil {
		gen, pred = e.learner.Live()
	}
	clone := pred.Clone()
	orch := core.NewOrchestrator(clone, e.watch, e.cfg.Beta)
	orch.QoSMs = e.orch.QoSMs // read-only after engine construction
	s := &engineShard{id: id, eng: e, orch: orch}
	s.base, orch.Infer = e.inferStack(clone)
	s.gen.Store(int64(gen))
	e.shardMu.Lock()
	e.shards = append(e.shards, s)
	e.shardMu.Unlock()
	return s
}

// maybeReclone retargets the shard's inference stack at a fresh clone of the
// promoted live generation when the learning loop has moved past the one
// this shard cloned. The fast path — no swap since the last batch — is one
// atomic flag load and one atomic generation compare. The re-clone itself
// runs under the engine lock: cloning must not overlap a concurrent
// promotion or the loop's shadow evaluation on the same model instances, and
// it happens at most once per promotion per shard, off the steady-state path.
func (s *engineShard) maybeReclone() {
	e := s.eng
	if e.learner == nil {
		return
	}
	if !s.stale.Load() && int(s.gen.Load()) == e.learner.Generation() {
		return
	}
	e.mu.Lock()
	s.stale.Store(false)
	gen, pred := e.learner.Live()
	clone := pred.Clone()
	bottom := e.bottomInference(clone)
	e.mu.Unlock()
	s.orch.Pred = clone
	s.base.Store(bottom)
	s.gen.Store(int64(gen))
	e.shardReclones.Add(1)
}

// PlaceBatch implements Engine for one replica: optimistic decide against
// the published view (no engine lock), then a single sequencer commit for
// the whole batch's claims; conflict losers resolve through the retry ring
// before this returns, so results are always complete.
func (s *engineShard) PlaceBatch(ctx context.Context, reqs []PlaceRequest) []PlaceResult {
	e := s.eng
	// Generation check once per decide batch: a promotion since the last
	// batch re-clones the stack before deciding, so no batch is ever
	// decided on a generation older than the one in flight at swap time.
	s.maybeReclone()
	gen := int(s.gen.Load())
	if e.learner == nil {
		gen = 0 // match the engine path: no loop, no generation stamp
	}
	results := make([]PlaceResult, len(reqs))
	if cap(s.profiles) < len(reqs) {
		s.profiles = make([]*workload.Profile, 0, len(reqs))
		s.idx = make([]int, 0, len(reqs))
		s.ds = make([]core.Decision, len(reqs))
	}
	profiles, idx := s.profiles[:0], s.idx[:0]
	for i, r := range reqs {
		results[i] = PlaceResult{App: r.App, TraceID: r.TraceID}
		p := e.reg.ByName(r.App)
		if p == nil {
			results[i].Err = fmt.Errorf("%w: %q", ErrUnknownApp, r.App)
			continue
		}
		results[i].Class = p.Class
		profiles = append(profiles, p)
		idx = append(idx, i)
	}
	s.profiles, s.idx = profiles, idx
	if len(profiles) == 0 {
		return results
	}

	// Optimistic decide: one atomic load, no lock. The batch anchors to one
	// candidate node — the healthiest remote pool by occupancy order — so it
	// shares that node's history window and one Ŝ forecast, exactly like the
	// single-node batched path.
	view := e.view.Load()
	node := pickNode(view)
	ds := s.ds[:len(profiles)]
	s.orch.DecideBatchWindow(ctx, profiles, view.win[node],
		view.occ[node].RemoteFreeGB, view.occ[node].FabricDegraded, node, ds)

	// Claims: dry runs finalize immediately (nothing to commit); the rest go
	// through the sequencer as one batch.
	items := s.items[:0]
	for k, i := range idx {
		if reqs[i].DryRun {
			finalizeResult(&results[i], ds[k])
			e.shardDecisions.Add(1)
			e.auditShardDecision(reqs[i].TraceID, ds[k], len(profiles), gen, s.id+1)
			continue
		}
		items = append(items, &retryItem{
			prof: profiles[k], d: ds[k], traceID: reqs[i].TraceID,
			batch: len(profiles), gen: gen, replica: s.id + 1,
			win: view.win[node], res: &results[i], done: make(chan struct{}),
		})
	}
	s.items = items[:0] // keep capacity; items escape to the ring below
	if len(items) == 0 {
		return results
	}
	losers := e.commitClaims(items)

	// Losers go to the shared bounded ring; this shard then drains the ring
	// — processing any replica's losers, not just its own — until its own
	// items resolve. A popped item always resolves before processRetry
	// returns (no re-queue), so blocking on done cannot deadlock; an evicted
	// item is finalized here by the pusher, so its owner always wakes.
	for _, it := range losers {
		if ev := e.retry.push(it); ev != nil {
			e.retryDrops.Add(1)
			e.downgradeLocal(ev)
		}
	}
	for _, it := range losers {
		for !itemDone(it) {
			if other := e.retry.pop(); other != nil {
				s.processRetry(other)
			} else {
				<-it.done
			}
		}
	}
	return results
}

func itemDone(it *retryItem) bool {
	select {
	case <-it.done:
		return true
	default:
		return false
	}
}

// pickNode anchors a batch to one candidate node: the healthiest remote
// pool by occupancy order among nodes with a full monitoring window. Node 0
// is the fallback when no node qualifies (warming up, every fabric down).
func pickNode(v *rackView) int {
	best := -1
	for i := range v.occ {
		if v.win[i] == nil || v.occ[i].FabricDegraded {
			continue
		}
		if best < 0 || v.occ[i].MoreRemoteHeadroom(v.occ[best]) {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// commitClaims is the single sequencer: one lock acquisition commits a
// replica's whole batch of optimistic claims. A remote claim re-validates
// its pool against the live node — failure means another replica consumed
// the headroom since the view was published (every committed deploy bumps
// the view version), i.e. the claim's version check lost; it is returned
// as a conflict loser, unfinalized. Local claims always commit. The
// occupancy view is republished once per committed batch.
func (e *SystemEngine) commitClaims(items []*retryItem) []*retryItem {
	var losers []*retryItem
	e.mu.Lock()
	defer e.mu.Unlock()
	committed := false
	for _, it := range items {
		c := e.nodes[it.d.Node]
		if it.d.Tier == memsys.TierRemote && !c.CanFit(it.prof, memsys.TierRemote) {
			e.conflicts.Add(1)
			losers = append(losers, it)
			continue
		}
		if !it.claimFinalize() {
			e.dupFinalizes.Add(1)
			continue
		}
		in := c.Deploy(it.prof, it.d.Tier)
		e.viewVer++
		committed = true
		e.learnPlacementLocked(it, in)
		e.finalizeItemLocked(it)
	}
	if committed {
		e.republishOccupancy()
	}
	return losers
}

// learnPlacementLocked registers one committed shard claim with the online
// learning loop so its realized outcome joins back to the decision — the
// sharded counterpart of the engine path's per-batch OnBatch. Called under
// mu, never on the dry-run path.
func (e *SystemEngine) learnPlacementLocked(it *retryItem, in *workload.Instance) {
	if e.learner == nil || in == nil || in.Profile.Class == workload.Interference || len(it.win) == 0 {
		return
	}
	e.learner.OnBatch(it.win, []learn.Placement{{
		InstID:    in.ID,
		TraceID:   it.traceID,
		App:       it.d.App,
		Class:     in.Profile.Class,
		Tier:      in.Tier, // the tier actually deployed, capacity fallbacks included
		PredLocal: it.d.PredLocal,
		PredRem:   it.d.PredRem,
		Gen:       it.gen,
	}})
}

// commitOne commits a single retried claim; reports whether it won.
func (e *SystemEngine) commitOne(it *retryItem) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.nodes[it.d.Node]
	if it.d.Tier == memsys.TierRemote && !c.CanFit(it.prof, memsys.TierRemote) {
		e.conflicts.Add(1)
		return false
	}
	if !it.claimFinalize() {
		e.dupFinalizes.Add(1)
		return true // already resolved elsewhere; treat as won
	}
	in := c.Deploy(it.prof, it.d.Tier)
	e.viewVer++
	e.republishOccupancy()
	e.learnPlacementLocked(it, in)
	e.finalizeItemLocked(it)
	return true
}

// processRetry resolves one conflict loser: re-decide the pool against the
// refreshed view and recommit, up to maxCommitRetries attempts, then
// downgrade to the safe local tier with reason commit-conflict. The item is
// always finalized before this returns — it never re-enters the ring.
func (s *engineShard) processRetry(it *retryItem) {
	e := s.eng
	for {
		it.attempts++
		e.commitRetries.Add(1)
		view := e.View()
		n := view.BestRemotePool(it.prof.FootprintGB)
		if n < 0 || it.attempts > maxCommitRetries {
			e.downgradeLocal(it)
			return
		}
		it.d.Node = n
		if e.commitOne(it) {
			return
		}
	}
}

// downgradeLocal finalizes a loser on the safe local tier of the least-
// loaded node, audited with the commit-conflict reason. Local deploys
// always commit, so this terminates every retry path.
func (e *SystemEngine) downgradeLocal(it *retryItem) {
	if !it.claimFinalize() {
		// Already finalized by a commit or another downgrade path — the
		// guard keeps the deploy and the done close from ever running twice.
		e.dupFinalizes.Add(1)
		return
	}
	it.d.Tier = memsys.TierLocal
	it.d.Fallback = true
	it.d.Reason = core.ReasonCommitConflict
	if n := e.View().LeastLoadedNode(); n >= 0 {
		it.d.Node = n
	}
	e.downgrades.Add(1)
	e.mu.Lock()
	in := e.nodes[it.d.Node].Deploy(it.prof, memsys.TierLocal)
	e.viewVer++
	e.republishOccupancy()
	e.learnPlacementLocked(it, in)
	e.finalizeItemLocked(it)
	e.mu.Unlock()
}

// finalizeItemLocked publishes a committed claim: result slot, audit log,
// bus, wide event, then the done close that releases the owning shard.
// Called under mu — only for real commits, so the wide-event record here
// mirrors the engine path's emitted-at-deploy rule.
func (e *SystemEngine) finalizeItemLocked(it *retryItem) {
	finalizeResult(it.res, it.d)
	e.shardDecisions.Add(1)
	e.auditShardDecision(it.traceID, it.d, it.batch, it.gen, it.replica)
	if e.events != nil {
		d := it.d
		e.events.Record(obs.WideEvent{
			Kind:        "admission",
			TraceID:     it.traceID,
			Time:        time.Now(),
			SimTime:     e.SimNow(),
			App:         d.App,
			Class:       d.Class.String(),
			Tier:        d.Tier.String(),
			Node:        d.Node,
			Reason:      d.Reason,
			PredLocalS:  d.PredLocal,
			PredRemoteS: d.PredRem,
			ColdStart:   d.ColdStart,
			Fallback:    d.Fallback,
			BatchSize:   it.batch,
			ModelGen:    it.gen,
			SLOState:    e.sloStateLabel(),
		})
	}
	close(it.done)
}

// finalizeResult copies a decision into a result slot (identity fields —
// App, Class, TraceID — were set by the owning shard at admission).
func finalizeResult(r *PlaceResult, d core.Decision) {
	r.Tier = d.Tier
	r.Node = d.Node
	r.PredLocalS = d.PredLocal
	r.PredRemS = d.PredRem
	r.ColdStart = d.ColdStart
	r.Fallback = d.Fallback
	r.Reason = d.Reason
}

// auditShardDecision records one shard decision on the audit log, the SLO
// counters, and the bus (all concurrency-safe), stamped with the deciding
// shard's model generation and 1-based replica id. Uses the lock-free
// SimNow mirror so dry-run finalizers need not take the engine lock.
func (e *SystemEngine) auditShardDecision(traceID string, d core.Decision, batch, gen, replica int) {
	e.countDecision(d.Reason)
	if e.audit != nil {
		e.audit.Record(obs.DecisionRecord{
			TraceID:     traceID,
			Time:        time.Now(),
			SimTime:     e.SimNow(),
			App:         d.App,
			Class:       d.Class.String(),
			Tier:        d.Tier.String(),
			Node:        d.Node,
			PredLocalS:  d.PredLocal,
			PredRemoteS: d.PredRem,
			Beta:        e.cfg.Beta,
			QoSMs:       e.orch.QoSMs[d.App],
			ColdStart:   d.ColdStart,
			Fallback:    d.Fallback,
			Reason:      d.Reason,
			BatchSize:   batch,
			ModelGen:    gen,
			Replica:     replica,
			SLOState:    e.sloStateLabel(),
		})
	}
	if e.cfg.Bus != nil {
		_, _ = e.cfg.Bus.Publish("orchestrator.decisions", decisionEvent{
			TraceID: traceID, App: d.App, Class: d.Class.String(),
			Tier: d.Tier.String(), Node: d.Node, PredLocal: d.PredLocal,
			PredRem: d.PredRem, ColdStart: d.ColdStart, Reason: d.Reason,
			ModelGen: gen,
		})
	}
}
