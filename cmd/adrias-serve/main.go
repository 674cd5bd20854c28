// Command adrias-serve exposes the Adrias orchestrator as a long-lived
// placement service: an HTTP/JSON API over the batching admission pipeline
// of internal/serve, backed by a trained predictor and a live simulated
// testbed that keeps advancing (with ambient load) while the server runs.
//
//	POST /v1/place        {"app":"gmm","dry_run":false,"deadline_ms":250}
//	GET  /healthz
//	GET  /metrics         (Prometheus text exposition: serve, bus, models,
//	                       thymesis and Go runtime series)
//	GET  /debug/traces    (request traces with per-stage spans + percentiles)
//	GET  /debug/decisions (placement audit log: predictions, β, QoS, reason)
//	GET  /debug/slo       (SLO burn rates, error budgets, alert states)
//	GET  /debug/events    (wide-event admission log, sampled)
//
// Usage:
//
//	adrias-serve [-listen 127.0.0.1:7700] [-models dir] [-beta 0.8]
//	             [-max-batch 64] [-queue 256] [-timeout 2s] [-tick 1s]
//	             [-sim-per-tick 1] [-ambient 0.08] [-drain 10s] [-seed 1]
//	             [-debug-addr 127.0.0.1:7701] [-bus-addr 127.0.0.1:7601]
//	             [-fault-spec "predict-error@4+40;fabric-flap@8+24"]
//	             [-breaker-threshold 5] [-breaker-cooldown 10] [-no-breaker]
//	             [-quantized] [-learn] [-learn-drift-threshold 0.35]
//	             [-learn-min-outcomes 64] [-learn-shadow-warmup 32]
//	             [-learn-cooldown 300] [-ambient-ramp-to 0.6]
//	             [-ambient-ramp-sec 300] [-replicas 1] [-nodes 1]
//	             [-slo-spec "downgrade-rate:budget=0.05,fast=15/60@2"]
//	             [-event-log events.jsonl] [-event-sample 1]
//
// Without -models the fast offline phase trains a small model set first
// (≈0.7 s on two cores). -debug-addr opens a second listener with the pprof surface
// (/debug/pprof/). -bus-addr serves the in-process event bus over TCP so
// external subscribers can follow decisions and monitoring samples live.
// SIGINT/SIGTERM stops intake, drains admitted requests, and exits.
//
// -fault-spec arms the deterministic fault injector (chaos mode): a
// semicolon-separated schedule of kind@start+duration[=param] events in
// simulated seconds relative to serving start — see internal/faults. The
// service keeps answering through injected faults on the graceful-degradation
// path (circuit breaker + cached/safe-local fallbacks), reporting "degraded"
// on /healthz while impaired.
//
// -learn arms the online model-lifecycle loop (DESIGN.md §13): realized
// outcomes are joined back to their audited decisions, rolling prediction
// error above -learn-drift-threshold triggers a background retrain, the
// candidate shadow-evaluates on live admissions, and a winning candidate is
// hot-swapped in — with the int8 twin re-derived when -quantized. Promotions
// appear in /debug/decisions ("model-swap") and on bus topic
// "model.generations". -ambient-ramp-to/-ambient-ramp-sec shift the ambient
// load after start, the induced-drift program the smoke test uses.
//
// -replicas runs N placement deciders over a shared versioned rack-state
// view (DESIGN.md §14): each replica decides optimistically without the
// engine lock and commits its claims through a single sequencer; losers of
// the commit race retry against the refreshed view and downgrade to safe
// local with reason "commit-conflict" when the headroom is gone. -nodes
// sizes the simulated rack — each node carries its own ThymesisFlow fabric
// and remote pool, and placements choose which pool to claim (responses and
// /debug/decisions carry the node). -learn composes with -replicas > 1:
// each replica shard stamps the model generation it cloned from and
// re-clones from the promoted live predictor within one batch of a hot
// swap, so /debug/decisions records carry the generation ("model_gen") and
// the deciding replica ("replica") per decision.
//
// The service always evaluates its SLO catalog (DESIGN.md §15) off the
// testbed tick — admission latency, queue wait, downgrade rate,
// commit-conflict rate, predict-error rate, breaker-open time — with
// Google-SRE multi-window burn-rate alerting. Alert transitions are
// published on bus topic "obs.alerts", counted on /metrics
// (adrias_slo_*), and served as JSON at /debug/slo. -slo-spec overrides
// budgets, windows, burn thresholds, and latency thresholds per objective
// (obs.ParseSLOSpec syntax). Every committed admission additionally emits
// one wide event into a ring behind /debug/events; -event-log appends the
// same records as JSONL, -event-sample keeps one in N.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adrias"
	"adrias/internal/bus"
	"adrias/internal/faults"
	"adrias/internal/learn"
	"adrias/internal/models"
	"adrias/internal/obs"
	"adrias/internal/profiling"
	"adrias/internal/serve"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7700", "HTTP listen address (host:port)")
	modelsDir := flag.String("models", "", "directory of pre-trained models (empty: train fast models now)")
	beta := flag.Float64("beta", 0.8, "BE slack parameter β (must be > 0)")
	qosFactor := flag.Float64("qos-factor", 20, "LC p99 target = BaseP50Ms × factor (0 disables LC offloading)")
	maxBatch := flag.Int("max-batch", 64, "max requests per coalesced batch")
	queueDepth := flag.Int("queue", 256, "admission queue depth (full queue → 429)")
	timeout := flag.Duration("timeout", 2*time.Second, "default per-request deadline")
	tick := flag.Duration("tick", time.Second, "wall-clock interval between testbed advances")
	simPerTick := flag.Float64("sim-per-tick", 1, "simulated seconds per advance")
	ambient := flag.Float64("ambient", 0.08, "ambient arrivals per simulated second")
	drain := flag.Duration("drain", 10*time.Second, "graceful-drain budget on shutdown")
	seed := flag.Int64("seed", 1, "testbed and ambient-load seed")
	debugAddr := flag.String("debug-addr", "", "pprof listen address (empty: disabled)")
	busAddr := flag.String("bus-addr", "", "TCP bus listen address for live decision/sample subscribers (empty: in-process only)")
	faultSpec := flag.String("fault-spec", "", "fault-injection schedule, e.g. \"predict-error@4+40;fabric-flap@8+24\" (empty: no injection)")
	faultSeed := flag.Int64("fault-seed", 1, "fault injector seed (NaN coin flips, replayable)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive predictor failures that trip the circuit breaker (0: default 5)")
	breakerCooldown := flag.Float64("breaker-cooldown", 0, "simulated seconds an open breaker waits before half-open probing (0: default 10)")
	noBreaker := flag.Bool("no-breaker", false, "disable the predictor circuit breaker (faults hit the decision path raw)")
	quantized := flag.Bool("quantized", false, "serve placements from the int8 quantized inference twin")
	learnOn := flag.Bool("learn", false, "run the online learning loop: outcome capture, drift-triggered retrain, shadow eval, hot swap")
	learnDriftThreshold := flag.Float64("learn-drift-threshold", 0, "mean relative prediction error that arms a retrain (0: default 0.35)")
	learnDriftWindow := flag.Int("learn-drift-window", 0, "rolling prediction-error window per tier (0: default 256)")
	learnMinOutcomes := flag.Int("learn-min-outcomes", 0, "buffered outcomes of a class required before it retrains (0: default 64)")
	learnShadowWarmup := flag.Int("learn-shadow-warmup", 0, "shadow comparisons before the promote/discard verdict (0: default 32)")
	learnShadowMargin := flag.Float64("learn-shadow-margin", 0, "relative slack the candidate gets in the verdict (0: must strictly win)")
	learnCooldown := flag.Float64("learn-cooldown", 0, "simulated seconds between lifecycle rounds (0: default 300)")
	learnBuffer := flag.Int("learn-buffer", 0, "training ring capacity in outcomes (0: default 4096)")
	learnEpochs := flag.Int("learn-epochs", 0, "candidate fit epochs (0: inherit the live model's configuration)")
	ambientRampTo := flag.Float64("ambient-ramp-to", 0, "ambient rate to ramp toward after serving starts (0: no ramp)")
	ambientRampSec := flag.Float64("ambient-ramp-sec", 0, "simulated seconds over which the ambient ramp completes")
	replicas := flag.Int("replicas", 1, "replica placement deciders over the shared rack-state view")
	rackNodes := flag.Int("nodes", 1, "simulated rack size: nodes with their own fabric and remote pool")
	sloSpec := flag.String("slo-spec", "", "per-objective SLO overrides, e.g. \"downgrade-rate:budget=0.05,fast=15/60@2,slow=120/480@1\" (empty: defaults)")
	eventLog := flag.String("event-log", "", "append committed-admission wide events as JSONL to this file (empty: ring only)")
	eventSample := flag.Int("event-sample", 1, "record one admission wide event in N (1: every admission)")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "adrias-serve: "+format+"\n", args...)
		os.Exit(2)
	}
	if *beta <= 0 {
		fail("-beta must be > 0 (got %v)", *beta)
	}
	if _, _, err := net.SplitHostPort(*listen); err != nil {
		fail("invalid -listen address %q: %v", *listen, err)
	}
	if *maxBatch < 1 {
		fail("-max-batch must be ≥ 1 (got %d)", *maxBatch)
	}
	if *queueDepth < 1 {
		fail("-queue must be ≥ 1 (got %d)", *queueDepth)
	}
	if *tick <= 0 || *simPerTick <= 0 {
		fail("-tick and -sim-per-tick must be > 0")
	}
	if *ambient < 0 {
		fail("-ambient must be ≥ 0 (got %v)", *ambient)
	}
	if *ambientRampTo > 0 && *ambientRampSec <= 0 {
		fail("-ambient-ramp-to requires -ambient-ramp-sec > 0")
	}
	if *replicas < 1 {
		fail("-replicas must be ≥ 1 (got %d)", *replicas)
	}
	if *rackNodes < 1 {
		fail("-nodes must be ≥ 1 (got %d)", *rackNodes)
	}
	if *eventSample < 1 {
		fail("-event-sample must be ≥ 1 (got %d)", *eventSample)
	}
	var learnCfg *learn.Config
	if *learnOn {
		learnCfg = &learn.Config{
			DriftThreshold: *learnDriftThreshold,
			DriftWindow:    *learnDriftWindow,
			MinOutcomes:    *learnMinOutcomes,
			ShadowWarmup:   *learnShadowWarmup,
			ShadowMargin:   *learnShadowMargin,
			CooldownSec:    *learnCooldown,
			BufferCap:      *learnBuffer,
			Epochs:         *learnEpochs,
		}
	}
	var injector *faults.Injector
	if *faultSpec != "" {
		spec, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			fail("%v", err)
		}
		injector = faults.NewInjector(spec, *faultSeed)
	}

	var sys *adrias.System
	var err error
	if *modelsDir != "" {
		sys = adrias.NewSystem(adrias.FastOptions())
		if err := sys.LoadModels(*modelsDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("loaded models from %s\n", *modelsDir)
	} else {
		fmt.Println("no -models dir given; training fast models (≈0.7 s)...")
		start := time.Now()
		sys, err = adrias.Train(adrias.FastOptions())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trained in %.1fs\n", time.Since(start).Seconds())
	}

	// Every decision and monitoring sample is published on an in-process
	// bus; -bus-addr additionally serves it over TCP for live subscribers.
	events := bus.New()
	var eventLogW *os.File
	if *eventLog != "" {
		f, err := os.OpenFile(*eventLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fail("-event-log: %v", err)
		}
		eventLogW = f
		defer f.Close()
	}
	var sinkW io.Writer
	if eventLogW != nil {
		sinkW = eventLogW
	}
	sink := obs.NewEventSink(1024, *eventSample, sinkW)
	eng := serve.NewSystemEngine(sys.Pred, sys.Watch, sys.Registry, serve.EngineConfig{
		Beta:        *beta,
		QoSFactor:   *qosFactor,
		AmbientRate: *ambient,
		Seed:        *seed,
		Nodes:       *rackNodes,
		Bus:         events,
		Events:      sink,
		Faults:      injector,
		Breaker: faults.BreakerConfig{
			Threshold: *breakerThreshold,
			Cooldown:  *breakerCooldown,
		},
		DisableBreaker: *noBreaker,
		Quantized:      *quantized,
		Learn:          learnCfg,
		AmbientRampTo:  *ambientRampTo,
		AmbientRampSec: *ambientRampSec,
	})
	if learnCfg != nil {
		fmt.Println("online learning loop armed (drift-triggered retrain, shadow eval, hot swap)")
	}
	svc := serve.NewService(eng, serve.Config{
		MaxBatch:       *maxBatch,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *timeout,
		Replicas:       *replicas,
	})
	if *replicas > 1 || *rackNodes > 1 {
		fmt.Printf("scale-out placement: %d replica deciders over a %d-node rack\n", *replicas, *rackNodes)
		if learnCfg != nil {
			fmt.Println("generation-aware shards: replicas re-clone from promoted models within one batch")
		}
	}
	eng.RegisterMetrics(svc.Metrics())
	// One registry feeds /metrics: serve + runtime series are pre-registered
	// by the service; add the testbed fabric, the bus, and model inference.
	tel := svc.Telemetry()
	eng.RegisterObs(tel)
	slo, err := serve.BuildSLO(serve.SLOConfig{Spec: *sloSpec}, svc.Metrics(), eng)
	if err != nil {
		fail("%v", err)
	}
	eng.AttachSLO(slo)
	tel.AttachSLO(slo)
	tel.AttachEvents(sink)
	events.RegisterMetrics(tel.Registry)
	models.RegisterMetrics(tel.Registry)
	if injector != nil {
		injector.RegisterMetrics(tel.Registry)
		fmt.Printf("chaos mode: fault schedule %q armed (seed %d)\n", *faultSpec, *faultSeed)
	}

	if *busAddr != "" {
		busSrv, err := bus.NewServer(events, *busAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer busSrv.Close()
		fmt.Printf("event bus on tcp://%s (topics orchestrator.decisions, watcher.samples, model.generations, cluster.view, obs.alerts)\n", busSrv.Addr())
	}
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		go func() {
			if err := http.Serve(dln, profiling.DebugHandler()); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(os.Stderr, "debug listener: %v\n", err)
			}
		}()
		defer dln.Close()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", dln.Addr())
	}

	httpSrv := &http.Server{Addr: *listen, Handler: serve.NewHandler(svc, eng)}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("placement service on http://%s (POST /v1/place, /healthz, /metrics, /debug/traces, /debug/decisions, /debug/slo, /debug/events)\n",
		ln.Addr())
	if eventLogW != nil {
		fmt.Printf("wide-event log appending to %s (1 in %d sampled)\n", *eventLog, *eventSample)
	}

	// Advance the testbed against the wall clock until shutdown.
	tickerDone := make(chan struct{})
	tickerStop := make(chan struct{})
	go func() {
		defer close(tickerDone)
		t := time.NewTicker(*tick)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				eng.Advance(*simPerTick)
			case <-tickerStop:
				return
			}
		}
	}()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("\n%s: draining (budget %s)...\n", sig, *drain)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop intake first so queued requests are decided, then close listeners.
	if err := svc.Close(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "drain: %v\n", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
	}
	close(tickerStop)
	<-tickerDone

	m := svc.Metrics()
	s := eng.Snapshot()
	fmt.Printf("served %d ok / %d error (%d local, %d remote, %d cold starts); sim time %.0fs, %d completed\n",
		m.ReqOK.Load(), m.ReqError.Load(), m.PlacedLocal.Load(), m.PlacedRemote.Load(),
		m.ColdStarts.Load(), s.SimTime, s.Completed)
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
