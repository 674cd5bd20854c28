package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"adrias"
	"adrias/internal/core"
	"adrias/internal/serve"
	"adrias/internal/workload"
)

// metricDef declares one reported metric; BENCHMARK.json lists the same
// names, units and directions (metrics_test.go keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening, share of the parent's median
}

// endToEnd is the --trace 0 metric set, reported by every workload. On the
// server workloads be_slowdown is what a caller can read off the answers
// (predicted times) and qos_ok_frac is the share of requests that met the
// latency limit; on replay-quality both are realized outcomes. See
// README.md for each definition per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.10},
	{"p99_ms", "ms", "lower", 0.25},
	{"goodput_rps", "1/s", "higher", 0.10},
	{"be_slowdown", "ratio", "lower", 0.10},
	{"qos_ok_frac", "fraction", "higher", 0.05},
}

// perLayer is the --trace 1 metric set, in reporting order.
var perLayer = []metricDef{
	// serve: the request tree at the workload's own concurrency and stack…
	{"serve.handler_us", "us", "lower", 0},
	{"serve.place_us", "us", "lower", 0},
	{"serve.http_self_us", "us", "lower", 0},
	{"serve.coalesce_wait_us", "us", "lower", 0},
	{"serve.engine_self_us", "us", "lower", 0},
	// …fixed-shape calls, the same on every workload…
	{"serve.engine_b1_us", "us", "lower", 0},
	{"serve.engine_b2_us", "us", "lower", 0},
	{"serve.engine_b8_us", "us", "lower", 0},
	{"serve.engine_quant_b1_us", "us", "lower", 0},
	{"serve.shard_place_b1_us", "us", "lower", 0},
	{"serve.shard_commit_us", "us", "lower", 0},
	{"serve.advance_us", "us", "lower", 0},
	{"serve.advance5_rack_us", "us", "lower", 0},
	// …and counts from the real server's /metrics and /proc (0 on
	// replay-quality, which boots no server).
	{"serve.batch_mean", "count", "higher", 0},
	{"serve.queue_wait_mean_us", "us", "lower", 0},
	{"serve.conflict_frac", "fraction", "lower", 0},
	{"serve.retry_count", "count", "lower", 0},
	{"serve.downgrade_count", "count", "lower", 0},
	{"serve.finalize_dups", "count", "lower", 0},
	{"serve.overload_429", "count", "lower", 0},
	{"serve.expired", "count", "lower", 0},
	{"serve.sigcache_hit_frac", "fraction", "higher", 0},
	{"serve.alloc_b_per_req", "B", "lower", 0},
	{"serve.gc_pause_us_per_s", "us/s", "lower", 0},
	{"serve.cpu_us_per_req", "us", "lower", 0},
	{"serve.rss_mb", "MB", "lower", 0},
	// core
	{"core.window_us", "us", "lower", 0},
	{"core.decide_b1_us", "us", "lower", 0},
	{"core.decide_b2_us", "us", "lower", 0},
	{"core.decide_b8_us", "us", "lower", 0},
	{"core.decide_self_us", "us", "lower", 0},
	{"core.decide_single_us", "us", "lower", 0},
	{"core.predict_float_q2_us", "us", "lower", 0},
	{"core.predict_quant_q2_us", "us", "lower", 0},
	{"core.predict_quant_q16_us", "us", "lower", 0},
	{"core.quant_flip_frac", "fraction", "lower", 0},
	{"core.offload_frac", "fraction", "higher", 0},
	// models
	{"models.sys_predict_us", "us", "lower", 0},
	{"models.sys_quant_predict_us", "us", "lower", 0},
	{"models.perf_q2_us", "us", "lower", 0},
	{"models.perf_q4_us", "us", "lower", 0},
	{"models.perf_q16_us", "us", "lower", 0},
	{"models.perf_quant_q2_us", "us", "lower", 0},
	{"models.perf_quant_q16_us", "us", "lower", 0},
	{"models.sig_has_ns", "ns", "lower", 0},
	{"models.sys_fit_s", "s", "lower", 0},
	{"models.perf_fit_s", "s", "lower", 0},
	{"models.sigs_build_s", "s", "lower", 0},
	{"models.clone_quant_ms", "ms", "lower", 0},
	{"models.sys_r2", "R2", "higher", 0},
	{"models.be_r2", "R2", "higher", 0},
	{"models.lc_r2", "R2", "higher", 0},
	// nn, mathx
	{"nn.lstm_fwd_b1_us", "us", "lower", 0},
	{"nn.lstm_fwd_b8_us", "us", "lower", 0},
	{"nn.train_step_us", "us", "lower", 0},
	{"mathx.mulnt_ns", "ns", "lower", 0},
	{"mathx.quant_gemm_ns", "ns", "lower", 0},
	{"mathx.flop_per_decide", "flop", "lower", 0},
	// the simulated testbed
	{"cluster.tick_us", "us", "lower", 0},
	{"cluster.deploy_us", "us", "lower", 0},
	{"memsys.tick_us", "us", "lower", 0},
	{"thymesis.tick_ns", "ns", "lower", 0},
	{"sim.events_per_s", "1/s", "higher", 0},
	{"sim.sim_s_per_s", "sim-s/s", "higher", 0},
	{"scenario.run_ms", "ms", "lower", 0},
	{"scenario.corpus_s", "s", "lower", 0},
	// record sinks and wrappers
	{"obs.audit_record_ns", "ns", "lower", 0},
	{"obs.event_record_ns", "ns", "lower", 0},
	{"obs.trace_record_ns", "ns", "lower", 0},
	{"obs.metrics_render_us", "us", "lower", 0},
	{"bus.publish_ns", "ns", "lower", 0},
	{"learn.onbatch_us", "us", "lower", 0},
	{"faults.guard_overhead_ns", "ns", "lower", 0},
	// the harness itself
	{"net.loopback_us", "us", "lower", 0},
	{"gen.late_p99_us", "us", "lower", 0},
	{"trace.overhead_frac", "fraction", "lower", 0},
	{"trace.reconcile_frac", "fraction", "higher", 0},
}

// traceTree is the span tree of one request, child → parent.
var traceTree = map[string]string{
	"serve.place":         "serve.handler",
	"serve.engine":        "serve.place",
	"core.decide":         "serve.engine",
	"core.window":         "core.decide",
	"models.sig_has":      "core.decide",
	"models.sys_predict":  "core.decide",
	"models.perf_predict": "core.decide",
}

// traceWindowShare is the part of --seconds the traced run spends driving
// the real server (for the /metrics and /proc counts and the untraced
// end-to-end median); the rest of the run is the in-process probes.
const traceWindowShare = 0.4

// serverCountMetrics are the metrics serverCounts derives; replay-quality,
// which boots no server, reports them as 0.
var serverCountMetrics = []string{"serve.batch_mean", "serve.queue_wait_mean_us", "serve.conflict_frac", "serve.retry_count",
	"serve.downgrade_count", "serve.finalize_dups", "serve.overload_429", "serve.expired", "serve.sigcache_hit_frac",
	"serve.alloc_b_per_req", "serve.gc_pause_us_per_s", "serve.cpu_us_per_req", "serve.rss_mb", "gen.late_p99_us"}

// serverCounts drives the real server for a short window, tracing off, and
// derives the count metrics from the /metrics and /proc readings taken
// before and after it. It returns the window's end-to-end median in µs.
func (lp *layerProbes) serverCounts(w *workloadDef, seed int64, window time.Duration) (float64, error) {
	if err := buildServer(); err != nil {
		return 0, err
	}
	srv, err := startServer(w.serverArgs)
	if err != nil {
		return 0, err
	}
	run, err := driveServer(srv, w, workload.NewRegistry(), seed, window)
	if serr := srv.stop(); err == nil && serr != nil {
		lp.res.violate("%v", serr)
	}
	if err != nil {
		return 0, err
	}
	res := lp.res
	res.attempted, res.failed = run.win.attempted, run.win.failed
	if run.win.failed > 0 {
		res.correct = false
		res.notef("failures: %v", run.gen.reasons)
	}
	checkServerInvariants(res, run, w)

	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	reqs := run.delta(`adrias_serve_requests_total{outcome="ok"}`)
	wall := run.wallA.Sub(run.wallB).Seconds()
	deploys := 0.0
	if w.deployEvery > 0 {
		deploys = reqs / float64(w.deployEvery)
	}
	lp.set("serve.batch_mean", div(run.delta("adrias_serve_batched_requests_total"), run.delta("adrias_serve_batches_total")))
	lp.set("serve.queue_wait_mean_us", 1e6*div(run.delta("adrias_serve_queue_wait_seconds_sum"), run.delta("adrias_serve_queue_wait_seconds_count")))
	lp.set("serve.conflict_frac", div(run.delta("adrias_serve_commit_conflicts_total"), deploys))
	lp.set("serve.retry_count", run.delta("adrias_serve_commit_retries_total"))
	lp.set("serve.downgrade_count", run.delta("adrias_serve_commit_downgrades_total"))
	lp.set("serve.finalize_dups", run.after["adrias_serve_finalize_dups_total"])
	lp.set("serve.overload_429", run.delta(`adrias_serve_requests_total{outcome="overload"}`))
	lp.set("serve.expired", run.delta("adrias_serve_expired_in_queue_total"))
	hits, misses := run.delta("adrias_serve_sigcache_hits_total"), run.delta("adrias_serve_sigcache_misses_total")
	lp.set("serve.sigcache_hit_frac", div(hits, hits+misses))
	lp.set("serve.alloc_b_per_req", div(run.delta("adrias_go_alloc_bytes_total"), reqs))
	lp.set("serve.gc_pause_us_per_s", div(run.delta("adrias_go_gc_pause_ns_total")/1e3, wall))
	lp.set("serve.cpu_us_per_req", div(float64(run.procA.cpu-run.procB.cpu)/1e3, reqs))
	lp.set("serve.rss_mb", run.procA.rssMB)
	lp.set("gen.late_p99_us", latePercentile(run.gen.late, 0.99))
	res.notef("server window (tracing off): %d requests, p50 %.4f ms, p99 %.4f ms, goodput %.1f/s; generator CPU %.1f us per request",
		run.win.attempted, run.win.p50Ms, run.win.p99Ms, run.win.goodput, float64(run.genCPU)/1e3/float64(len(run.gen.samples)))
	return run.win.p50Ms * 1e3, nil
}

// cannedPlace is the /v1/place answer the loopback stub gives: the shape
// and size of a real one.
const cannedPlace = `{"app":"gmm","class":"BE","tier":"local","pred_local_s":101.5,"pred_remote_s":131.25,"reason":"be-slack","batch_size":1,"trace_id":"00000000-000001"}` + "\n"

// runStub is the -stub-serve mode: a net/http server that announces itself
// like adrias-serve, reports ready, and answers every placement with
// cannedPlace without doing any work. It exits cleanly on SIGTERM.
func runStub() int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/place", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, cannedPlace)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, `{"status":"ok","ready":true}`)
	})
	srv := &http.Server{Handler: mux}
	fmt.Printf("placement service on http://%s (loopback stub)\n", ln.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // makes Serve return
	}()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// loopbackUs measures what surrounds the handler on the way to a caller:
// the generator's own client code, the kernel's loopback TCP and net/http's
// connection handling, across two processes as in the real runs. It drives
// the stub (this binary in -stub-serve mode) with conc closed-loop callers.
// It is measured on its own, not as a difference, so that loopback +
// handler can be checked against the end-to-end median.
func (lp *layerProbes) loopbackUs(conc int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	stub, err := startProcess(self, []string{"-stub-serve"})
	if err != nil {
		return 0, err
	}
	conns := make([]*conn, conc)
	bodies := make([][]byte, conc)
	for i := range conns {
		conns[i] = &conn{addr: stub.addr}
		defer conns[i].close()
	}
	req := renderRequest(stub.addr, "gmm", true)
	bad := lp.tr.concurrent("net.loopback", "", conc, probeCalls, func(w, _ int) bool {
		status, b, err := conns[w].roundTrip(req, bodies[w])
		bodies[w] = b
		return err == nil && status == http.StatusOK
	})
	if err := stub.stop(); err != nil {
		return 0, err
	}
	if bad > 0 {
		return 0, fmt.Errorf("loopback stub: %d of %d calls failed", bad, probeCalls)
	}
	return lp.us("net.loopback"), nil
}

// runTrace is the traced run of one workload: the per-layer metrics, taken
// from outside the program by timing calls into each layer's public
// functions on the inputs the workload's seed generates.
func runTrace(w *workloadDef, seed int64, seconds int) (runResult, error) {
	res := runResult{correct: true}
	lp := &layerProbes{
		tr: newTracer(), seed: seed, rng: rand.New(rand.NewSource(seed)), ctx: context.Background(),
		res: &res, m: map[string]float64{},
	}
	// The real server first, while this process holds nothing else: with
	// the trained system on the heap the generator's own GC ran its sends
	// 0.4 ms later at p99.
	var e2eUs float64
	var err error
	if !w.replay {
		window := time.Duration(float64(seconds) * traceWindowShare * float64(time.Second))
		if e2eUs, err = lp.serverCounts(w, seed, window); err != nil {
			return res, err
		}
	}
	sys, err := adrias.Train(adrias.FastOptions())
	if err != nil {
		return res, err
	}
	lp.sys, lp.spec = sys, sys.Opts.Window
	lp.in = newLayerInputs(sys.Registry, seed)

	if err := lp.probeTraining(); err != nil {
		return res, err
	}
	a, err := newStack(sys, serve.EngineConfig{}, 1)
	if err != nil {
		return res, err
	}
	defer a.close()
	aq, err := newStack(sys, serve.EngineConfig{Quantized: true}, 1)
	if err != nil {
		return res, err
	}
	defer aq.close()
	rack, err := newStack(sys, serve.EngineConfig{Quantized: true, Nodes: 2, AmbientRate: 0.02}, 2)
	if err != nil {
		return res, err
	}
	defer rack.close()

	// The benchmark's own orchestrator over its own warmed testbed.
	c := warmCluster(sys.Registry, lp.spec.HistTicks, lp.rng)
	newOrch := func(quant bool) *core.Orchestrator {
		o := core.NewOrchestrator(sys.Pred, core.NewWatcher(lp.spec), replayBeta)
		for app, q := range replayQoS(sys.Registry) {
			o.QoSMs[app] = q
		}
		o.Capture = false
		if quant {
			o.Infer = core.NewQuantPredictor(sys.Pred)
		}
		return o
	}
	shape := shapeFor(w)
	lp.probeTree(a, rack, newOrch(shape.rack), c, shape)
	lp.probeServe(a, aq, rack)
	lp.probeCore(newOrch(false), c)
	lp.probeKernels()
	if err := lp.probeTestbed(c); err != nil {
		return res, err
	}
	lp.probeObs(a, core.NewWatcher(lp.spec).Window(c))
	if err := lp.probeQuality(seed); err != nil {
		return res, err
	}

	// Harness metrics. The blocking path of a served request is the
	// loopback plus the handler (whose self times telescope to its total);
	// a replay's host time is testbed runs plus unbatched Decides.
	if w.replay {
		e2eUs = lp.tr.medianNs("replay.decide") / 1e3
		lp.set("net.loopback_us", 0)
		lp.set("trace.reconcile_frac", lp.replayReconcile)
		res.attempted = lp.tr.count("replay.decide")
		for _, name := range serverCountMetrics {
			lp.set(name, 0) // no server on this workload
		}
	} else {
		loop, err := lp.loopbackUs(shape.conc)
		if err != nil {
			return res, err
		}
		lp.set("net.loopback_us", loop)
		lp.set("trace.reconcile_frac", (loop+lp.m["serve.handler_us"])/e2eUs)
	}
	res.notef("end-to-end median %.1f us; explained ÷ measured = %.3f", e2eUs, lp.m["trace.reconcile_frac"])

	var missing []string
	for _, d := range perLayer {
		v, ok := lp.m[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		res.metrics = append(res.metrics, metric{d.name, d.unit, v})
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return res, fmt.Errorf("traced run produced no value for %v", missing)
	}
	path, err := lp.tr.write(w.name, seed, traceTree, res.metrics)
	if err != nil {
		return res, err
	}
	res.notef("spans written to %s", path)
	return res, nil
}
