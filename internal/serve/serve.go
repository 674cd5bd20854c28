// Package serve exposes the Adrias orchestrator as a long-lived placement
// service — the admission front-end of the paper's Fig. 7 deployment, where
// arriving applications ask the orchestrator for a memory tier before they
// start. The service accepts concurrent placement requests and feeds them
// to the engine in work-conserving batches: a batch is whatever has queued
// up while the previous one was being decided, so an isolated request is
// served at once and batches grow exactly when the engine is the bottleneck
// (one Ŝ forecast and one batched model call per class instead of up to
// three inferences per request). Only a lone request less than a millisecond
// behind the previous batch waits, for company, until the millisecond is up.
//
// The admission pipeline is:
//
//	Place(ctx) → bounded queue → batcher → Engine.PlaceBatch
//
// with per-request deadlines (context propagation end to end), explicit
// backpressure when the queue is full (ErrOverloaded, an HTTP 429), and a
// graceful drain on Close that serves everything already admitted before
// shutting down. NewHandler wraps the service in an HTTP/JSON API with
// /healthz and Prometheus-style /metrics.
package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"adrias/internal/memsys"
	"adrias/internal/obs"
	"adrias/internal/workload"
)

// Service errors. Handlers map them to HTTP statuses: ErrOverloaded → 429,
// ErrClosed → 503, ErrUnknownApp → 400; context.DeadlineExceeded → 504.
var (
	// ErrOverloaded is returned when the admission queue is full — the
	// service's explicit backpressure signal.
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrClosed is returned once draining has begun.
	ErrClosed = errors.New("serve: service draining")
	// ErrUnknownApp is returned for applications absent from the registry.
	ErrUnknownApp = errors.New("serve: unknown application")
)

// PlaceRequest asks for a memory-tier placement of one application.
type PlaceRequest struct {
	App string
	// DryRun decides without deploying the application onto the testbed.
	DryRun bool
	// TraceID identifies the request across /debug/traces and
	// /debug/decisions. Place mints one when empty; callers may supply
	// their own to correlate with an external tracing system.
	TraceID string
}

// PlaceResult is one placement decision.
type PlaceResult struct {
	App        string
	Class      workload.Class
	Tier       memsys.Tier
	Node       int     // rack node the placement targets (0 in single-node runs)
	PredLocalS float64 // predicted perf on local (0 when not predicted)
	PredRemS   float64 // predicted perf on remote
	ColdStart  bool    // the app had no signature; deployed remote + captured
	Fallback   bool    // prediction failed or pool full; safe default won
	Reason     string  // which decision rule produced the tier
	BatchSize  int     // number of requests decided in the same batch
	TraceID    string  // the request's trace ID (see PlaceRequest.TraceID)
	Err        error   // per-request failure (e.g. unknown application)
}

// Engine computes placement decisions for a coalesced batch of admitted
// requests. results[i] answers reqs[i]. reqs is the caller's scratch, valid
// only until PlaceBatch returns — an engine must not retain it. ctx carries
// the batch's obs.SpanRecorder (when tracing) and is otherwise advisory —
// per-request deadlines are enforced by the service, not the engine.
type Engine interface {
	PlaceBatch(ctx context.Context, reqs []PlaceRequest) []PlaceResult
}

// ShardedEngine is an Engine that can mint per-replica deciders. Each shard
// is an Engine safe to run concurrently with its siblings (typically by
// deciding optimistically over a shared snapshot and committing through a
// sequencer). NewShard may return nil when sharding is unavailable, in
// which case the service falls back to routing that replica through the
// shared engine. SystemEngine always shards: with the online learning loop
// armed its shards are generation-aware, re-cloning from the promoted live
// predictor within one batch of a hot swap (DESIGN.md §14).
type ShardedEngine interface {
	Engine
	NewShard(id int) Engine
}

// Config tunes the admission pipeline. The zero value selects the defaults.
type Config struct {
	// MaxBatch caps the batch size (default 64; 1 degenerates to
	// one-inference-per-request, the unbatched baseline).
	MaxBatch int
	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrOverloaded (default 256).
	QueueDepth int
	// DefaultTimeout is applied to requests whose context carries no
	// deadline, so nothing can wait unboundedly (default 2 s).
	DefaultTimeout time.Duration
	// TraceCapacity bounds the /debug/traces ring (default 512).
	TraceCapacity int
	// AuditCapacity bounds the /debug/decisions ring (default 1024).
	AuditCapacity int
	// Replicas sets how many batcher goroutines pull from the admission
	// queue (default 1). With a ShardedEngine each replica gets its own
	// decider shard, so batches decide concurrently over the shared rack
	// state and placement throughput scales with replicas.
	Replicas int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.TraceCapacity <= 0 {
		c.TraceCapacity = 512
	}
	if c.AuditCapacity <= 0 {
		c.AuditCapacity = 1024
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	return c
}

// pending is one admitted request waiting for its batch to be served.
type pending struct {
	ctx  context.Context
	req  PlaceRequest
	enq  time.Time        // admission time: anchors queue_wait and the trace
	done chan PlaceResult // buffered(1): the batcher never blocks on delivery
}

// Service is the batching admission front-end over an Engine. Safe for
// concurrent use.
type Service struct {
	cfg Config
	eng Engine
	met *Metrics
	tel *Telemetry

	queue     chan *pending
	quit      chan struct{}
	drained   chan struct{}
	closeOnce sync.Once
	closed    atomic.Bool
}

// NewService starts the admission batcher over eng.
func NewService(eng Engine, cfg Config) *Service {
	return newService(eng, cfg, loneSpacing)
}

// newService lets tests choose the lone-batch spacing.
func newService(eng Engine, cfg Config, spacing time.Duration) *Service {
	cfg = cfg.withDefaults()
	met := NewMetrics()
	s := &Service{
		cfg:     cfg,
		eng:     eng,
		met:     met,
		tel:     newTelemetry(met, cfg.TraceCapacity, cfg.AuditCapacity),
		queue:   make(chan *pending, cfg.QueueDepth),
		quit:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	s.met.queueDepth = func() int { return len(s.queue) }
	// Replica batchers: each pulls from the shared admission queue with its
	// own decider shard when the engine can mint one; otherwise replicas
	// share eng (safe — engines serialize internally) and scale only the
	// batching, not the inference. drained closes after every replica has
	// finished its final drain sweep.
	var wg sync.WaitGroup
	for i := 0; i < cfg.Replicas; i++ {
		worker := eng
		if sh, ok := eng.(ShardedEngine); ok && cfg.Replicas > 1 {
			if shard := sh.NewShard(i); shard != nil {
				worker = shard
			}
		}
		b := s.newBatcher(worker, spacing)
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.run()
		}()
	}
	go func() {
		wg.Wait()
		close(s.drained)
	}()
	return s
}

// Metrics returns the service's metric set (shared, live).
func (s *Service) Metrics() *Metrics { return s.met }

// Telemetry returns the service's observability surfaces (shared, live).
func (s *Service) Telemetry() *Telemetry { return s.tel }

// Place admits one placement request: it enqueues, waits for the batcher,
// and returns the decision. It returns ErrOverloaded immediately when the
// queue is full, ErrClosed once draining has begun, and the context error
// as soon as the request's deadline expires — even if the request is still
// queued (the batcher discards expired entries without running them).
func (s *Service) Place(ctx context.Context, req PlaceRequest) (PlaceResult, error) {
	start := time.Now()
	if s.closed.Load() {
		s.met.ReqClosed.Add(1)
		return PlaceResult{}, ErrClosed
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		s.met.ReqDeadline.Add(1)
		return PlaceResult{}, err
	}
	if req.TraceID == "" {
		req.TraceID = obs.NewTraceID()
	}
	p := &pending{ctx: ctx, req: req, enq: start, done: make(chan PlaceResult, 1)}
	select {
	case s.queue <- p:
	default:
		s.met.ReqOverload.Add(1)
		return PlaceResult{}, ErrOverloaded
	}
	deliver := func(r PlaceResult) (PlaceResult, error) {
		s.met.Latency.ObserveDuration(time.Since(start))
		if r.Err != nil {
			s.met.ReqError.Add(1)
			return r, r.Err
		}
		s.met.ReqOK.Add(1)
		if r.Tier == memsys.TierRemote {
			s.met.PlacedRemote.Add(1)
		} else {
			s.met.PlacedLocal.Add(1)
		}
		if r.ColdStart {
			s.met.ColdStarts.Add(1)
		}
		if r.Fallback {
			s.met.Fallbacks.Add(1)
		}
		return r, nil
	}
	select {
	case r := <-p.done:
		return deliver(r)
	case <-s.drained:
		// Shutdown race: this request passed the closed check but may have
		// been enqueued after the drain loop's final sweep — nobody will
		// ever serve it. The batcher delivers results (buffered, never
		// blocking) before it closes drained, so a still-empty done channel
		// here means the request was truly stranded: fail fast with
		// ErrClosed instead of letting the caller wait out its deadline.
		select {
		case r := <-p.done:
			return deliver(r)
		default:
			s.met.ReqClosed.Add(1)
			return PlaceResult{}, ErrClosed
		}
	case <-ctx.Done():
		s.met.ReqDeadline.Add(1)
		s.met.Latency.ObserveDuration(time.Since(start))
		return PlaceResult{}, ctx.Err()
	}
}

// Close begins the graceful drain: no new requests are accepted, everything
// already queued is still decided, and Close returns when the batcher has
// exited (or ctx expires first, in which case the drain continues in the
// background).
func (s *Service) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		close(s.quit)
	})
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// batcher is one replica's admission loop and the scratch it reuses from
// batch to batch: a batch is often one request, so its cost is per request.
type batcher struct {
	s   *Service
	eng Engine // a per-replica shard, or the shared engine when sharding is unavailable

	batch, live []*pending
	reqs        []PlaceRequest
	rec         *obs.SpanRecorder
	ctx         context.Context // carries rec
	shared      []obs.Span

	spacing      time.Duration // loneSpacing, or a test's
	lastDispatch time.Time     // when the previous batch went to the engine
}

func (s *Service) newBatcher(eng Engine, spacing time.Duration) *batcher {
	rec := obs.NewSpanRecorder()
	return &batcher{s: s, eng: eng, spacing: spacing, rec: rec, ctx: obs.WithRecorder(context.Background(), rec)}
}

// run serves batches until quit, then decides everything already admitted
// and returns. drained is closed by the service once every replica's drain
// sweep has returned.
func (b *batcher) run() {
	for {
		select {
		case p := <-b.s.queue:
			b.serveBatch(p)
		case <-b.s.quit:
			for {
				select {
				case p := <-b.s.queue:
					b.serveBatch(p)
				default:
					return
				}
			}
		}
	}
}

// loneSpacing is the least time from the dispatch of one batch to that of a
// single-request batch after it: the shortest wait the Go runtime times with
// every P idle (it parks in epoll_wait, whose timeout is whole milliseconds).
const loneSpacing = time.Millisecond

// collect gathers a batch: the first request plus whatever is already
// queued, capped at MaxBatch. Arrivals queue while the engine runs the
// previous batch, so batches grow on their own exactly when the engine is
// the bottleneck. Only a lone request can be held: until the spacing has
// passed since the previous dispatch, a second request arrives, or the drain
// begins. An arrival after a quiet millisecond (the paper's pattern) never
// waits; one caller sending back to back is paced to one request per timer
// quantum, or its throughput is whatever the host's scheduler gives its
// tight loop from one second to the next (DESIGN.md §8).
func (b *batcher) collect(first *pending) []*pending {
	b.batch = append(b.batch[:0], first)
	wait := b.spacing - time.Since(b.lastDispatch)
	for len(b.batch) < b.s.cfg.MaxBatch {
		select {
		case p := <-b.s.queue:
			b.batch = append(b.batch, p)
			continue
		default:
		}
		if len(b.batch) > 1 || wait <= 0 {
			break
		}
		timer := time.NewTimer(wait)
		select {
		case p := <-b.s.queue:
			b.batch = append(b.batch, p)
		case <-b.s.quit:
		case <-timer.C:
		}
		timer.Stop()
		wait = 0
	}
	return b.batch
}

// serveBatch collects a batch behind first, discards its expired requests,
// runs the rest through the engine in one call, and delivers the results.
//
// Tracing: the engine call runs under one SpanRecorder for the whole batch
// (the model stages execute once per batch, so their spans are shared by
// every trace in it); queue_wait and coalesce are per-request, measured
// here. One assembled Trace per live request lands in the tracer ring.
func (b *batcher) serveBatch(first *pending) {
	s := b.s
	collectStart := time.Now()
	b.live, b.reqs = b.live[:0], b.reqs[:0]
	for _, p := range b.collect(first) {
		if p.ctx.Err() != nil {
			// The caller has already been released by its context; do not
			// spend model time on it.
			s.met.Expired.Add(1)
			continue
		}
		b.live = append(b.live, p)
		b.reqs = append(b.reqs, p.req)
	}
	if len(b.live) == 0 {
		return
	}
	s.met.Batches.Add(1)
	s.met.BatchedReqs.Add(uint64(len(b.live)))
	dispatch := time.Now()
	b.lastDispatch = dispatch
	for _, p := range b.live {
		s.met.QueueWait.ObserveDuration(dispatch.Sub(p.enq))
	}
	coalesce := obs.Span{Name: "coalesce", Start: collectStart, Dur: dispatch.Sub(collectStart)}
	b.rec.Reset()
	results := b.eng.PlaceBatch(b.ctx, b.reqs)
	b.shared = b.rec.AppendTo(b.shared[:0])
	for i, p := range b.live {
		r := results[i]
		r.BatchSize = len(b.live)
		r.TraceID = p.req.TraceID
		// Retained by the tracer ring, so allocated per request.
		stages := make([]obs.Span, 0, len(b.shared)+2)
		stages = append(stages,
			obs.Span{Name: "queue_wait", Start: p.enq, Dur: dispatch.Sub(p.enq)},
			coalesce)
		stages = append(stages, b.shared...)
		s.tel.Tracer.Record(obs.Trace{ID: p.req.TraceID, App: p.req.App, Start: p.enq, Stages: stages})
		p.done <- r
	}
}
