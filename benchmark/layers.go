package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"adrias"
	"adrias/internal/bus"
	"adrias/internal/cluster"
	"adrias/internal/core"
	"adrias/internal/dataset"
	"adrias/internal/faults"
	"adrias/internal/learn"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/models"
	"adrias/internal/nn"
	"adrias/internal/obs"
	"adrias/internal/randutil"
	"adrias/internal/scenario"
	"adrias/internal/serve"
	"adrias/internal/sim"
	"adrias/internal/thymesis"
	"adrias/internal/workload"
)

// Probe sizes. probeCalls is the floor the issue sets for a per-layer
// median; the two probes that sleep out the 2 ms coalescing window and the
// millisecond-scale ones run fewer calls so the traced run stays short —
// their medians are set by a timer or by fixed work, not by noise.
const (
	probeCalls    = 2000
	windowedCalls = 500 // handler/place at one caller: ~2.4 ms each
	trainSteps    = 150 // one minibatch step: ~4 ms each
	scenarioRuns  = 60  // one 900 s scenario: ~10 ms each
	nsReps        = 64  // inner repetitions for nanosecond-scale calls
	rackRunning   = 12  // instances held running for the testbed probes
)

// stack is the serving stack as cmd/adrias-serve wires it, built in this
// process so each layer's public functions can be called directly.
type stack struct {
	eng *serve.SystemEngine
	svc *serve.Service
	h   http.Handler
	tel *serve.Telemetry
	bus *bus.Bus
}

// newStack mirrors adrias-serve's main: engine, service, metrics, SLO,
// wide-event sink, bus and model instrumentation all attached.
func newStack(sys *adrias.System, cfg serve.EngineConfig, replicas int) (*stack, error) {
	events := bus.New()
	sink := obs.NewEventSink(1024, 1, nil)
	cfg.Beta, cfg.QoSFactor, cfg.Seed = replayBeta, replayQoSFactor, 1
	cfg.Bus, cfg.Events = events, sink
	eng := serve.NewSystemEngine(sys.Pred, sys.Watch, sys.Registry, cfg)
	svc := serve.NewService(eng, serve.Config{Replicas: replicas})
	eng.RegisterMetrics(svc.Metrics())
	tel := svc.Telemetry()
	eng.RegisterObs(tel)
	slo, err := serve.BuildSLO(serve.SLOConfig{}, svc.Metrics(), eng)
	if err != nil {
		return nil, err
	}
	eng.AttachSLO(slo)
	tel.AttachSLO(slo)
	tel.AttachEvents(sink)
	events.RegisterMetrics(tel.Registry)
	models.RegisterMetrics(tel.Registry)
	return &stack{eng: eng, svc: svc, h: serve.NewHandler(svc, eng), tel: tel, bus: events}, nil
}

func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.svc.Close(ctx)
	s.bus.Close()
}

// respWriter is the cheapest http.ResponseWriter that still keeps what the
// handler wrote, so the timed ServeHTTP call measures the handler.
type respWriter struct {
	hdr  http.Header
	code int
	buf  []byte
}

func (w *respWriter) Header() http.Header         { return w.hdr }
func (w *respWriter) WriteHeader(code int)        { w.code = code }
func (w *respWriter) Write(b []byte) (int, error) { w.buf = append(w.buf, b...); return len(b), nil }

// timedSpan is one call timed off the tracer's goroutine.
type timedSpan struct {
	start, end time.Time
	req        int
}

// concurrent runs fn from conc goroutines in closed loop, n calls in all,
// and files the timings under name. fn reports whether the call's output
// was sound; unsound calls are returned as a count.
func (t *tracer) concurrent(name, parent string, conc, n int, fn func(worker, i int) bool) (bad int) {
	per := n / conc
	out := make([][]timedSpan, conc)
	bads := make([]int, conc)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				i := k*conc + w
				start := time.Now()
				ok := fn(w, i)
				out[w] = append(out[w], timedSpan{start, time.Now(), i})
				if !ok {
					bads[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range out {
		bad += bads[w]
		for _, s := range out[w] {
			t.record(name, parent, s.req, 1, s.start, s.end)
		}
	}
	return bad
}

// layerInputs is what the probes are fed: the seed's application sequence
// (the same one the workload sends) resolved against the registry.
type layerInputs struct {
	plan     *plan
	profiles []*workload.Profile // per plan application
	bodies   [][]byte            // dry-run /v1/place bodies per application
}

func newLayerInputs(reg *workload.Registry, seed int64) *layerInputs {
	in := &layerInputs{plan: newPlan(reg, seed, 0, 0, 0)}
	for _, a := range in.plan.apps {
		in.profiles = append(in.profiles, reg.ByName(a.name))
		in.bodies = append(in.bodies, []byte(fmt.Sprintf(`{"app":%q,"dry_run":true}`, a.name)))
	}
	return in
}

// appAt is the application index of request i.
func (in *layerInputs) appAt(i int) int { return int(in.plan.seq[i%len(in.plan.seq)]) }

// reqs fills dst with b consecutive requests starting at position i.
func (in *layerInputs) reqs(dst []serve.PlaceRequest, i, b int, dryRun bool) []serve.PlaceRequest {
	dst = dst[:0]
	for k := 0; k < b; k++ {
		dst = append(dst, serve.PlaceRequest{App: in.plan.apps[in.appAt(i*b+k)].name, DryRun: dryRun, TraceID: "bench"})
	}
	return dst
}

// profs fills dst with the profiles of the same b requests.
func (in *layerInputs) profs(dst []*workload.Profile, i, b int) []*workload.Profile {
	dst = dst[:0]
	for k := 0; k < b; k++ {
		dst = append(dst, in.profiles[in.appAt(i*b+k)])
	}
	return dst
}

// queries appends the prediction queries DecideBatch would ask for p.
func queries(dst []core.PerfQuery, p *workload.Profile) []core.PerfQuery {
	if p.Class == workload.LatencyCritical {
		return append(dst, core.PerfQuery{Name: p.Name, Class: core.ClassLC, Tier: memsys.TierRemote})
	}
	return append(dst,
		core.PerfQuery{Name: p.Name, Class: core.ClassBE, Tier: memsys.TierLocal},
		core.PerfQuery{Name: p.Name, Class: core.ClassBE, Tier: memsys.TierRemote})
}

// perfSamples turns queries into the samples PredictEach takes.
func perfSamples(qs []core.PerfQuery, window []mathx.Vector, fut mathx.Vector) []models.PerfSample {
	out := make([]models.PerfSample, len(qs))
	for i, q := range qs {
		out[i] = models.PerfSample{App: q.Name, Past: window, FuturePred: fut}
		if q.Tier == memsys.TierRemote {
			out[i].Remote = 1
		}
	}
	return out
}

// warmCluster builds a testbed like the engine's node 0 — one seed
// deployment, the watcher's window filled — and tops it up to rackRunning
// instances, so the window the probes read is a busy node's.
func warmCluster(reg *workload.Registry, histTicks int, rng *rand.Rand) *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Seed = 1
	c := cluster.New(cfg)
	c.Run(float64(histTicks + 10))
	topUp(c, reg, rng)
	c.Run(c.Now() + float64(histTicks))
	topUp(c, reg, rng)
	return c
}

// topUp deploys seeded examined applications, alternating tiers, until
// rackRunning instances run.
func topUp(c *cluster.Cluster, reg *workload.Registry, rng *rand.Rand) {
	apps := append(append([]*workload.Profile(nil), reg.Spark()...), reg.LC()...)
	for len(c.Running()) < rackRunning {
		tier := memsys.TierLocal
		if len(c.Running())%2 == 1 {
			tier = memsys.TierRemote
		}
		c.Deploy(apps[rng.Intn(len(apps))], tier)
	}
}

// lstmFlops counts multiply-adds ×2 of one LSTM layer over T steps: four
// gates, each an (in+hidden)→hidden product.
func lstmFlops(in, hidden, T int) float64 {
	return float64(T) * 2 * 4 * float64(hidden) * float64(in+hidden)
}

// denseFlops counts one in→out dense product.
func denseFlops(in, out int) float64 { return 2 * float64(in) * float64(out) }

// flopPerDecide is the floating-point work of one best-effort decision at
// batch 1, computed from the configured tensor shapes (not measured): one
// Ŝ forecast (two LSTM layers + head), the perf model's two encoders once
// each, and its head once per tier.
func flopPerDecide(o adrias.Options) float64 {
	M := memsys.NumMetrics
	T := o.Window.HistTicks / o.Window.Stride
	s, p := o.Sys, o.Perf
	sysF := lstmFlops(M, s.Hidden, T) + lstmFlops(s.Hidden, s.Hidden, T) +
		denseFlops(s.Hidden+M, s.BlockDim) + 2*denseFlops(s.BlockDim, s.BlockDim) + denseFlops(s.BlockDim, M)
	enc := lstmFlops(M, p.Hidden, T) + lstmFlops(p.Hidden, p.Hidden, T)
	head := denseFlops(2*p.Hidden+1+M, p.BlockDim) + 2*denseFlops(p.BlockDim, p.BlockDim) + denseFlops(p.BlockDim, 1)
	return sysF + 2*enc + 2*head
}

// layerProbes holds the state the probe groups share.
type layerProbes struct {
	tr   *tracer
	seed int64
	sys  *adrias.System
	in   *layerInputs
	rng  *rand.Rand
	ctx  context.Context
	spec models.PerfDatasetSpec
	res  *runResult
	m    map[string]float64 // metric name → value
	// be and lc are the perf models' sample sets (splitPerfSamples).
	be, lc perfSplit
	// replayReconcile is the share of the mini replay's host time that the
	// testbed and Decide medians explain (probeQuality).
	replayReconcile float64
}

func (lp *layerProbes) set(name string, v float64) { lp.m[name] = v }

// us and ns read a probe's median in the metric's unit.
func (lp *layerProbes) us(span string) float64 { return lp.tr.medianNs(span) / 1e3 }
func (lp *layerProbes) ns(span string) float64 { return lp.tr.medianNs(span) }

// perfSplit is one performance model's sample set with its train/test split.
type perfSplit struct {
	samples     []models.PerfSample
	train, test []int
}

// splitPerfSamples rebuilds the BE and LC sample sets and their splits the
// way adrias.TrainOn builds them (same public calls, same seeds), so the
// fit can be re-timed on the real training set and the models graded on
// the samples they were not trained on. Keep in step with TrainOn.
func (lp *layerProbes) splitPerfSamples() error {
	o, reg := lp.sys.Opts, lp.sys.Registry
	var be, lc []models.PerfSample
	for _, s := range models.BuildPerfSamples(lp.sys.Results, o.Window) {
		if s.Class == workload.BestEffort {
			be = append(be, s)
		} else {
			lc = append(lc, s)
		}
	}
	if o.LCCorpus != nil {
		lcResults, err := scenario.RunCorpus(*o.LCCorpus, reg, nil)
		if err != nil {
			return err
		}
		for _, s := range models.BuildPerfSamples(lcResults, o.Window) {
			if s.Class == workload.LatencyCritical {
				lc = append(lc, s)
			}
		}
	}
	capTo := func(samples []models.PerfSample, seed int64) []models.PerfSample {
		if o.MaxPerfSamples <= 0 || len(samples) <= o.MaxPerfSamples {
			return samples
		}
		idx, _ := dataset.Split(len(samples), float64(o.MaxPerfSamples)/float64(len(samples)), seed)
		out := make([]models.PerfSample, 0, len(idx))
		for _, i := range idx {
			out = append(out, samples[i])
		}
		return out
	}
	lp.be.samples, lp.lc.samples = capTo(be, o.Seed+11), capTo(lc, o.Seed+12)
	lp.be.train, lp.be.test = dataset.Split(len(lp.be.samples), o.TrainFrac, o.Seed+1)
	lp.lc.train, lp.lc.test = dataset.Split(len(lp.lc.samples), o.TrainFrac, o.Seed+2)
	models.AttachPredictions(lp.be.samples, lp.sys.Pred.Sys)
	models.AttachPredictions(lp.lc.samples, lp.sys.Pred.Sys)
	return nil
}

// probeTraining times the offline phase's pieces by running the same public
// calls adrias.Train makes, on the same inputs → setup_s on every workload.
func (lp *layerProbes) probeTraining() error {
	o := lp.sys.Opts
	reg := lp.sys.Registry
	var err error
	lp.tr.call("scenario.corpus", "", 0, 1, func() { _, err = scenario.RunCorpus(o.Corpus, reg, nil) })
	if err != nil {
		return err
	}
	lp.set("scenario.corpus_s", lp.ns("scenario.corpus")/1e9)

	lp.tr.call("models.sys_fit", "", 0, 1, func() {
		err = models.NewSysStateModel(o.Sys).Fit(lp.sys.Windows, lp.sys.TrainIdx)
	})
	if err != nil {
		return err
	}
	lp.set("models.sys_fit_s", lp.ns("models.sys_fit")/1e9)

	var sigs *models.SignatureStore
	lp.tr.call("models.sigs_build", "", 0, 1, func() {
		sigs, err = models.BuildSignatures(reg, o.Window.HistTicks/o.Window.Stride, o.Seed+100)
	})
	if err != nil {
		return err
	}
	lp.set("models.sigs_build_s", lp.ns("models.sigs_build")/1e9)

	if err := lp.splitPerfSamples(); err != nil {
		return err
	}
	be, trainIdx := lp.be.samples, lp.be.train
	lp.tr.call("models.perf_fit", "", 0, 1, func() { err = models.NewPerfModel(o.Perf, sigs).Fit(be, trainIdx) })
	if err != nil {
		return err
	}
	lp.set("models.perf_fit_s", lp.ns("models.perf_fit")/1e9)

	// One minibatch step of the Ŝ model: Fit with one epoch over one batch.
	step := o.Sys
	step.Epochs = 1
	idx := lp.sys.TrainIdx[:step.Batch]
	fresh := make([]*models.SysStateModel, trainSteps)
	for i := range fresh {
		fresh[i] = models.NewSysStateModel(step)
	}
	lp.tr.calls("nn.train_step", "", trainSteps, 1, func(i int) { err = fresh[i].Fit(lp.sys.Windows, idx) })
	if err != nil {
		return err
	}
	lp.set("nn.train_step_us", lp.us("nn.train_step"))

	// What one replica shard builds per promotion: float clones + int8 twins.
	pred := lp.sys.Pred
	lp.tr.calls("models.clone_quant", "", 20, 1, func(int) {
		clone := &core.Predictor{Sys: pred.Sys.Clone(), BE: pred.BE.Clone(), LC: pred.LC.Clone(), Sigs: pred.Sigs}
		_ = core.NewQuantPredictor(clone)
	})
	lp.set("models.clone_quant_ms", lp.ns("models.clone_quant")/1e6)
	return nil
}

// treeShape says how a workload exercises the request tree.
type treeShape struct {
	conc     int  // concurrent callers of the handler and of Place
	rack     bool // sharded 2-node int8 stack (mixed-rack) instead of the default one
	handlerN int  // handler and Place calls: fewer when each sleeps out the window
}

func shapeFor(w *workloadDef) treeShape {
	s := treeShape{conc: 1, handlerN: windowedCalls}
	if !w.replay && w.rate == 0 {
		s.conc = w.conns
	}
	if s.conc > 1 {
		s.handlerN = probeCalls
	}
	s.rack = w.nodes > 1
	return s
}

// probeTree times the request tree — handler ⊃ place ⊃ engine ⊃ decide ⊃
// {window, sig_has, sys_predict, perf_predict} — as separate calls on the
// same generated requests, with the workload's own concurrency and stack.
func (lp *layerProbes) probeTree(a, rack *stack, orch *core.Orchestrator, c *cluster.Cluster, shape treeShape) {
	tr, in := lp.tr, lp.in
	st := a
	if shape.rack {
		st = rack
	}
	writers := make([]*respWriter, shape.conc)
	for i := range writers {
		writers[i] = &respWriter{hdr: http.Header{}}
	}
	handler := func(w, i int) bool {
		rw := writers[w]
		rw.buf, rw.code = rw.buf[:0], 0
		req, _ := http.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(in.bodies[in.appAt(i)]))
		st.h.ServeHTTP(rw, req)
		return rw.code == http.StatusOK
	}
	// Tracing off first, then on: the difference is the recorder's cost.
	tr.on = false
	bad := tr.concurrent("serve.handler.untraced", "", shape.conc, shape.handlerN, handler)
	tr.on = true
	bad += tr.concurrent("serve.handler", "", shape.conc, shape.handlerN, handler)
	bad += tr.concurrent("serve.place", "serve.handler", shape.conc, shape.handlerN, func(_, i int) bool {
		r, err := st.svc.Place(lp.ctx, serve.PlaceRequest{App: in.plan.apps[in.appAt(i)].name, DryRun: true})
		return err == nil && r.Err == nil
	})
	if bad > 0 {
		lp.res.violate("%d in-process handler/place calls failed", bad)
	}

	b := shape.conc
	reqs := make([]serve.PlaceRequest, 0, b)
	results := make([]serve.PlaceResult, b)
	if shape.rack {
		shard := rack.eng.NewShard(90)
		tr.calls("serve.engine", "serve.place", probeCalls, 1, func(i int) { shard.PlaceBatch(lp.ctx, in.reqs(reqs, i, b, true)) })
	} else {
		tr.calls("serve.engine", "serve.place", probeCalls, 1, func(i int) {
			st.eng.PlaceBatchInto(lp.ctx, in.reqs(reqs, i, b, true), results[:b])
		})
	}

	profs := make([]*workload.Profile, 0, b)
	ds := make([]core.Decision, b)
	tr.calls("core.decide", "serve.engine", probeCalls, 1, func(i int) {
		orch.DecideBatchInto(lp.ctx, in.profs(profs, i, b), c, ds)
	})
	watch := core.NewWatcher(lp.spec)
	tr.calls("core.window", "core.decide", probeCalls, 1, func(int) { watch.WindowInto(c) })
	sigs := lp.sys.Pred.Sigs
	tr.calls("models.sig_has", "core.decide", probeCalls, 1, func(i int) {
		for _, p := range in.profs(profs, i, b) {
			sigs.Has(p.Name)
		}
	})
	window := watch.WindowInto(c)
	var fut mathx.Vector
	qpred := core.NewQuantPredictor(lp.sys.Pred)
	qfut := mathx.NewVector(memsys.NumMetrics)
	if shape.rack {
		tr.calls("models.sys_predict", "core.decide", probeCalls, 1, func(int) { qpred.Sys.PredictInto(qfut, window) })
		fut = qfut
	} else {
		tr.calls("models.sys_predict", "core.decide", probeCalls, 1, func(int) { fut = lp.sys.Pred.Sys.Predict(window) })
	}
	var qs []core.PerfQuery
	preds, errs := mathx.NewVector(2*b), make([]error, 2*b)
	tr.calls("models.perf_predict", "core.decide", probeCalls, 1, func(i int) {
		var beQ, lcQ []core.PerfQuery
		qs = qs[:0]
		for _, p := range in.profs(profs, i, b) {
			qs = queries(qs, p)
		}
		for _, q := range qs {
			if q.Class == core.ClassLC {
				lcQ = append(lcQ, q)
			} else {
				beQ = append(beQ, q)
			}
		}
		for _, grp := range []struct {
			qs    []core.PerfQuery
			float *models.PerfModel
			quant *models.QuantPerfModel
		}{{beQ, lp.sys.Pred.BE, qpred.BE}, {lcQ, lp.sys.Pred.LC, qpred.LC}} {
			if len(grp.qs) == 0 {
				continue
			}
			s := perfSamples(grp.qs, window, fut)
			if shape.rack {
				grp.quant.PredictEachInto(s, models.FuturePredicted, preds[:len(s)], errs[:len(s)])
			} else {
				grp.float.PredictEach(s, models.FuturePredicted)
			}
		}
	})

	handlerUs, placeUs, engineUs, decideUs := lp.us("serve.handler"), lp.us("serve.place"), lp.us("serve.engine"), lp.us("core.decide")
	children := lp.us("core.window") + lp.us("models.sig_has") + lp.us("models.sys_predict") + lp.us("models.perf_predict")
	lp.set("serve.handler_us", handlerUs)
	lp.set("serve.place_us", placeUs)
	lp.set("serve.http_self_us", handlerUs-placeUs)
	lp.set("serve.coalesce_wait_us", placeUs-engineUs)
	lp.set("serve.engine_self_us", engineUs-decideUs)
	lp.set("core.decide_self_us", decideUs-children)
	lp.set("trace.overhead_frac", lp.us("serve.handler")/lp.us("serve.handler.untraced")-1)
	lp.res.notef("request tree at %d caller(s), batch %d: handler %.1f ⊃ place %.1f ⊃ engine %.1f ⊃ decide %.1f ⊃ {window %.1f, sig_has %.2f, sys_predict %.1f, perf_predict %.1f} us",
		shape.conc, b, handlerUs, placeUs, engineUs, decideUs,
		lp.us("core.window"), lp.us("models.sig_has"), lp.us("models.sys_predict"), lp.us("models.perf_predict"))
}

// probeServe times the engine at fixed batch sizes, the shard path, its
// commit, and Advance on both racks.
func (lp *layerProbes) probeServe(a, aq, rack *stack) {
	tr, in := lp.tr, lp.in
	reqs := make([]serve.PlaceRequest, 0, 8)
	results := make([]serve.PlaceResult, 8)
	for _, b := range []int{1, 2, 8} {
		b := b
		name := fmt.Sprintf("serve.engine_b%d", b)
		tr.calls(name, "", probeCalls, 1, func(i int) { a.eng.PlaceBatchInto(lp.ctx, in.reqs(reqs, i, b, true), results[:b]) })
		lp.set(name+"_us", lp.us(name))
	}
	tr.calls("serve.engine_quant_b1", "", probeCalls, 1, func(i int) {
		aq.eng.PlaceBatchInto(lp.ctx, in.reqs(reqs, i, 1, true), results[:1])
	})
	lp.set("serve.engine_quant_b1_us", lp.us("serve.engine_quant_b1"))

	tr.calls("serve.advance", "", probeCalls, 1, func(int) { a.eng.Advance(1) })
	lp.set("serve.advance_us", lp.us("serve.advance"))

	// The rack at mixed-rack's own rates: Advance(5) per step and a deploying
	// batch on 3 steps in 10 (0.06 per simulated second), a dry-run batch
	// next to each for the difference. The probe covers 30× the simulated
	// time of a run, long enough for an unlucky application sequence to tip
	// the rack into overload (99 running on seed 2), so deploys pause while
	// more than twice the usual population runs.
	shard := rack.eng.NewShard(91)
	running, looks := 0, 0
	steps := probeCalls * 10 / 3
	for i := 0; i < steps; i++ {
		tr.call("serve.advance5_rack", "", i, 1, func() { rack.eng.Advance(5) })
		if i%10 != 0 && i%10 != 3 && i%10 != 6 {
			continue
		}
		n := rack.eng.Snapshot().Running
		running, looks = running+n, looks+1
		if n > 2*rackRunning {
			continue
		}
		tr.call("serve.shard_place_b1", "", i, 1, func() { shard.PlaceBatch(lp.ctx, in.reqs(reqs, i, 1, true)) })
		tr.call("serve.shard_deploy_b1", "", i, 1, func() { shard.PlaceBatch(lp.ctx, in.reqs(reqs, i, 1, false)) })
	}
	lp.set("serve.shard_place_b1_us", lp.us("serve.shard_place_b1"))
	lp.set("serve.shard_commit_us", lp.us("serve.shard_deploy_b1")-lp.us("serve.shard_place_b1"))
	lp.set("serve.advance5_rack_us", lp.us("serve.advance5_rack"))
	lp.res.notef("rack probe: %.1f instances running on average over %d Advance(5) steps, %d deploys",
		float64(running)/float64(looks), steps, tr.count("serve.shard_deploy_b1"))
}

// probeCore times the orchestrator and the predictor at fixed shapes.
func (lp *layerProbes) probeCore(orch *core.Orchestrator, c *cluster.Cluster) {
	tr, in := lp.tr, lp.in
	profs := make([]*workload.Profile, 0, 8)
	ds := make([]core.Decision, 8)
	for _, b := range []int{1, 2, 8} {
		b := b
		name := fmt.Sprintf("core.decide_b%d", b)
		tr.calls(name, "", probeCalls, 1, func(i int) { orch.DecideBatchInto(lp.ctx, in.profs(profs, i, b), c, ds[:b]) })
		lp.set(name+"_us", lp.us(name))
	}
	tr.calls("core.decide_single", "", probeCalls, 1, func(i int) { orch.Decide(in.profiles[in.appAt(i)], c) })
	lp.set("core.decide_single_us", lp.us("core.decide_single"))

	watch := core.NewWatcher(lp.spec)
	tr.calls("core.window_fixed", "", probeCalls, 1, func(int) { watch.WindowInto(c) })
	lp.set("core.window_us", lp.us("core.window_fixed"))
	window := watch.WindowInto(c)

	// Fixed query shapes over best-effort applications: q2 is one
	// application on both tiers, q16 is eight.
	be := lp.sys.Registry.Spark()
	var q16 []core.PerfQuery
	for _, p := range be[:8] {
		q16 = queries(q16, p)
	}
	qpred := core.NewQuantPredictor(lp.sys.Pred)
	tr.calls("core.predict_float_q2", "", probeCalls, 1, func(int) { lp.sys.Pred.PredictPerfBatch(lp.ctx, q16[:2], window) })
	tr.calls("core.predict_quant_q2", "", probeCalls, 1, func(int) { qpred.PredictPerfBatch(lp.ctx, q16[:2], window) })
	tr.calls("core.predict_quant_q16", "", probeCalls, 1, func(int) { qpred.PredictPerfBatch(lp.ctx, q16, window) })
	for _, n := range []string{"core.predict_float_q2", "core.predict_quant_q2", "core.predict_quant_q16"} {
		lp.set(n+"_us", lp.us(n))
	}

	// The breaker wrapper's own cost: the same int8 q2 batch through a
	// closed breaker, minus the bare call.
	guarded := faults.NewGuardedPredictor(qpred, faults.NewBreaker(faults.BreakerConfig{Clock: func() float64 { return 0 }}))
	tr.calls("faults.guarded_q2", "", probeCalls, 1, func(int) { guarded.PredictPerfBatch(lp.ctx, q16[:2], window) })
	lp.set("faults.guard_overhead_ns", lp.ns("faults.guarded_q2")-lp.ns("core.predict_quant_q2"))

	// models: the two forecasts and the perf model at fixed shapes.
	sysM, beM := lp.sys.Pred.Sys, lp.sys.Pred.BE
	var fut mathx.Vector
	tr.calls("models.sys_predict_fixed", "", probeCalls, 1, func(int) { fut = sysM.Predict(window) })
	lp.set("models.sys_predict_us", lp.us("models.sys_predict_fixed"))
	qfut := mathx.NewVector(memsys.NumMetrics)
	tr.calls("models.sys_quant_predict", "", probeCalls, 1, func(int) { qpred.Sys.PredictInto(qfut, window) })
	lp.set("models.sys_quant_predict_us", lp.us("models.sys_quant_predict"))
	samples := perfSamples(q16, window, fut)
	for _, q := range []int{2, 4, 16} {
		q := q
		name := fmt.Sprintf("models.perf_q%d", q)
		tr.calls(name, "", probeCalls, 1, func(int) { beM.PredictEach(samples[:q], models.FuturePredicted) })
		lp.set(name+"_us", lp.us(name))
	}
	preds, errs := mathx.NewVector(16), make([]error, 16)
	for _, q := range []int{2, 16} {
		q := q
		name := fmt.Sprintf("models.perf_quant_q%d", q)
		tr.calls(name, "", probeCalls, 1, func(int) {
			qpred.BE.PredictEachInto(samples[:q], models.FuturePredicted, preds[:q], errs[:q])
		})
		lp.set(name+"_us", lp.us(name))
	}
	sigs := lp.sys.Pred.Sigs
	tr.calls("models.sig_has_fixed", "", probeCalls, nsReps, func(i int) {
		for k := 0; k < nsReps; k++ {
			sigs.Has(in.plan.apps[in.appAt(i+k)].name)
		}
	})
	lp.set("models.sig_has_ns", lp.ns("models.sig_has_fixed"))
}

// probeKernels times the LSTM forward and the two matrix kernels at the
// serving shape: the Ŝ model's hidden size, T = window steps.
func (lp *layerProbes) probeKernels() {
	tr := lp.tr
	o := lp.sys.Opts
	M, H, T := memsys.NumMetrics, o.Sys.Hidden, o.Window.HistTicks/o.Window.Stride
	rng := randutil.New(7)
	lstm := nn.NewLSTM(M, H, rng)
	for _, b := range []int{1, 8} {
		xs := make([]*mathx.Matrix, T)
		for t := range xs {
			xs[t] = mathx.NewMatrix(b, M)
			for i := range xs[t].Data {
				xs[t].Data[i] = lp.rng.NormFloat64()
			}
		}
		name := fmt.Sprintf("nn.lstm_fwd_b%d", b)
		tr.calls(name, "", probeCalls, 1, func(int) { lstm.ForwardSeqBatch(xs, false) })
		lp.set(name+"_us", lp.us(name))
	}
	// The recurrent product of one LSTM step at batch 1: [1×H]·[4H×H]ᵀ.
	a, w, dst := mathx.NewMatrix(1, H), mathx.NewMatrix(4*H, H), mathx.NewMatrix(1, 4*H)
	for i := range a.Data {
		a.Data[i] = lp.rng.NormFloat64()
	}
	for i := range w.Data {
		w.Data[i] = lp.rng.NormFloat64()
	}
	tr.calls("mathx.mulnt", "", probeCalls, nsReps, func(int) {
		for k := 0; k < nsReps; k++ {
			mathx.MulNT(dst, a, w)
		}
	})
	lp.set("mathx.mulnt_ns", lp.ns("mathx.mulnt"))
	qw := mathx.QuantizeWeightsPerRow(w)
	qa := mathx.NewQuantMatrix(1, H)
	mathx.QuantizeRowsAffine(qa, a)
	tr.calls("mathx.quant_gemm", "", probeCalls, nsReps, func(int) {
		for k := 0; k < nsReps; k++ {
			mathx.QuantMulNT(dst, qa, qw)
		}
	})
	lp.set("mathx.quant_gemm_ns", lp.ns("mathx.quant_gemm"))
	lp.set("mathx.flop_per_decide", flopPerDecide(o))
}

// probeTestbed times the simulated testbed from the tick up to a scenario.
func (lp *layerProbes) probeTestbed(c *cluster.Cluster) error {
	tr, reg := lp.tr, lp.sys.Registry
	// Completions thin the population, so it is topped up to rackRunning
	// outside the timed region every 50 ticks.
	for i := 0; i < probeCalls; i++ {
		if i%50 == 0 {
			topUp(c, reg, lp.rng)
		}
		tr.call("cluster.tick", "", i, 1, func() { c.Run(c.Now() + 1) })
	}
	lp.set("cluster.tick_us", lp.us("cluster.tick"))

	// Deploy onto throwaway testbeds, renewed (untimed) before they fill.
	apps := reg.Spark()
	var scratch *cluster.Cluster
	for i := 0; i < probeCalls; i++ {
		if i%32 == 0 {
			scratch = cluster.New(cluster.DefaultConfig())
		}
		tr.call("cluster.deploy", "", i, 1, func() { scratch.Deploy(apps[i%len(apps)], memsys.Tier(i%2)) })
	}
	lp.set("cluster.deploy_us", lp.us("cluster.deploy"))

	demands := make([]memsys.Demand, 0, rackRunning)
	var remote []float64
	for i := 0; i < rackRunning; i++ {
		in := workload.NewInstance(i+1, apps[i%len(apps)], memsys.Tier(i%2), 0, randutil.New(int64(i)))
		d := in.Demand()
		demands = append(demands, d)
		if d.Tier == memsys.TierRemote {
			remote = append(remote, d.AccessRate*d.MissRatioIso*memsys.DefaultConfig().LineBytes)
		}
	}
	node := memsys.NewNode(memsys.DefaultConfig(), thymesis.DefaultConfig())
	tr.calls("memsys.tick", "", probeCalls, 1, func(int) { node.Tick(demands, 1) })
	lp.set("memsys.tick_us", lp.us("memsys.tick"))
	fab := thymesis.New(thymesis.DefaultConfig())
	tr.calls("thymesis.tick", "", probeCalls, nsReps, func(int) {
		for k := 0; k < nsReps; k++ {
			fab.Tick(remote, 0.7, 1)
		}
	})
	lp.set("thymesis.tick_ns", lp.ns("thymesis.tick"))

	const events = 200000
	eng := sim.NewEngine(1)
	for i := 0; i < events; i++ {
		eng.Schedule(float64(i%1000)+0.5, "e", func(*sim.Engine) {})
	}
	ns := tr.call("sim.run", "", 0, 1, func() { eng.Run(1000) })
	lp.set("sim.events_per_s", float64(eng.EventsFired())/(ns/1e9))

	var err error
	seeds := scenarioSeeds(lp.seed, scenarioRuns)
	tr.calls("scenario.run", "", scenarioRuns, 1, func(i int) {
		_, e := scenario.Run(scenario.Config{
			Seed: seeds[i], DurationSec: replayDuration, SpawnMin: replaySpawnMin, SpawnMax: replaySpawnMax,
			IBenchShare: replayIBench, KeepHistory: true,
		}, reg, core.NewRandomInterference(core.AllLocal{}, seeds[i]^0xfeed).Decide)
		if e != nil {
			err = e
		}
	})
	lp.set("scenario.run_ms", lp.ns("scenario.run")/1e6)
	return err
}

// probeObs times the record sinks every committed admission feeds.
func (lp *layerProbes) probeObs(a *stack, window []mathx.Vector) {
	tr := lp.tr
	now := time.Now()
	audit := obs.NewAuditLog(1024)
	rec := obs.DecisionRecord{TraceID: "bench", Time: now, SimTime: 100, App: "gmm", Class: "BE", Tier: "remote",
		PredLocalS: 100, PredRemoteS: 110, Beta: replayBeta, Reason: core.ReasonBESlack, BatchSize: 1}
	tr.calls("obs.audit_record", "", probeCalls, nsReps, func(int) {
		for k := 0; k < nsReps; k++ {
			audit.Record(rec)
		}
	})
	lp.set("obs.audit_record_ns", lp.ns("obs.audit_record"))
	sink := obs.NewEventSink(1024, 1, nil)
	ev := obs.WideEvent{Kind: "admission", TraceID: "bench", Time: now, SimTime: 100, App: "gmm", Class: "BE", Tier: "remote",
		Reason: core.ReasonBESlack, PredLocalS: 100, PredRemoteS: 110, BatchSize: 1}
	tr.calls("obs.event_record", "", probeCalls, nsReps, func(int) {
		for k := 0; k < nsReps; k++ {
			sink.Record(ev)
		}
	})
	lp.set("obs.event_record_ns", lp.ns("obs.event_record"))
	tracer := obs.NewTracer(512)
	stages := []obs.Span{{Name: "queue_wait", Start: now, Dur: time.Millisecond}, {Name: "coalesce", Start: now, Dur: time.Millisecond},
		{Name: "signature_lookup", Start: now}, {Name: "sysstate_predict", Start: now}, {Name: "perf_predict", Start: now}, {Name: "decide", Start: now}}
	tr.calls("obs.trace_record", "", probeCalls, nsReps, func(int) {
		for k := 0; k < nsReps; k++ {
			tracer.Record(obs.Trace{ID: "bench", App: "gmm", Start: now, Stages: stages})
		}
	})
	lp.set("obs.trace_record_ns", lp.ns("obs.trace_record"))
	tr.calls("obs.metrics_render", "", probeCalls, 1, func(int) { a.tel.Registry.WritePrometheus(io.Discard) })
	lp.set("obs.metrics_render_us", lp.us("obs.metrics_render"))

	type decisionEvent struct {
		TraceID   string  `json:"trace_id,omitempty"`
		App       string  `json:"app"`
		Class     string  `json:"class"`
		Tier      string  `json:"tier"`
		PredLocal float64 `json:"pred_local,omitempty"`
		PredRem   float64 `json:"pred_remote,omitempty"`
		Reason    string  `json:"reason,omitempty"`
	}
	b := bus.New()
	defer b.Close()
	msg := decisionEvent{"bench", "gmm", "BE", "remote", 100, 110, core.ReasonBESlack}
	tr.calls("bus.publish", "", probeCalls, nsReps, func(int) {
		for k := 0; k < nsReps; k++ {
			_, _ = b.Publish("orchestrator.decisions", msg)
		}
	})
	lp.set("bus.publish_ns", lp.ns("bus.publish"))

	loop := learn.New(learn.Config{}, learn.Deps{
		Base: core.NewSwappableInference(lp.sys.Pred), Live: lp.sys.Pred, Beta: replayBeta,
		QoSMs: replayQoS(lp.sys.Registry), SimNow: func() float64 { return 100 },
	})
	place := []learn.Placement{{TraceID: "bench", App: "gmm", Class: workload.BestEffort, Tier: memsys.TierRemote, PredLocal: 100, PredRem: 110}}
	tr.calls("learn.onbatch", "", probeCalls, 1, func(i int) {
		place[0].InstID = i + 1
		loop.OnBatch(window, place)
	})
	lp.set("learn.onbatch_us", lp.us("learn.onbatch"))
}

// probeQuality grades the models on what they were not trained on — the
// repo's own held-out definition, the test split of the training corpus:
// R² of the Ŝ model and of both perf models with the deployable {past
// window, Ŝ} inputs, and the share of held-out decisions whose tier flips
// when the same query goes through the int8 twin. It also replays a few
// fresh scenarios for the simulation rate, and reconciles the replay's host
// time against the testbed and Decide medians.
func (lp *layerProbes) probeQuality(seed int64) error {
	sysM := lp.sys
	lp.set("models.sys_r2", sysM.Pred.Sys.Evaluate(sysM.Windows, sysM.TestIdx).R2Avg)
	beEval, err := sysM.Pred.BE.EvaluateWith(lp.be.samples, lp.be.test, models.FuturePredicted)
	if err != nil {
		return err
	}
	lcEval, err := sysM.Pred.LC.EvaluateWith(lp.lc.samples, lp.lc.test, models.FuturePredicted)
	if err != nil {
		return err
	}
	lp.set("models.be_r2", beEval.R2)
	lp.set("models.lc_r2", lcEval.R2)

	qpred := core.NewQuantPredictor(sysM.Pred)
	qos := replayQoS(sysM.Registry)
	flips, decided := 0, 0
	var qs []core.PerfQuery
	for _, split := range []perfSplit{lp.be, lp.lc} {
		for _, i := range split.test {
			smp := &split.samples[i]
			qs = queries(qs[:0], sysM.Registry.ByName(smp.App))
			fp, fe := sysM.Pred.PredictPerfBatch(lp.ctx, qs, smp.Past)
			qp, qe := qpred.PredictPerfBatch(lp.ctx, qs, smp.Past)
			if firstError(fe) != nil || firstError(qe) != nil {
				continue
			}
			decided++
			if smp.Class == workload.LatencyCritical {
				q, ok := qos[smp.App]
				if core.DecideLC(q, ok, fp[0]) != core.DecideLC(q, ok, qp[0]) {
					flips++
				}
			} else if core.DecideBE(replayBeta, fp[0], fp[1]) != core.DecideBE(replayBeta, qp[0], qp[1]) {
				flips++
			}
		}
	}
	lp.set("core.quant_flip_frac", frac(flips, decided))
	lp.res.notef("held-out: %d Ŝ windows, %d BE / %d LC samples; %d of %d decisions flip under int8",
		len(sysM.TestIdx), len(lp.be.test), len(lp.lc.test), flips, decided)

	var out *replayOutcome
	ns := lp.tr.call("replay.mini", "", 0, 1, func() { out, err = runReplay(sysM, scenarioSeeds(seed, scenarioRuns)) })
	if err != nil {
		return err
	}
	var simSec float64
	for _, g := range out.groups {
		simSec += g.simSec
		for _, d := range g.decide {
			lp.tr.durs["replay.decide"] = append(lp.tr.durs["replay.decide"], float64(d))
		}
	}
	lp.set("sim.sim_s_per_s", simSec/(ns/1e9))
	lp.set("core.offload_frac", frac(out.adrias.remoteN, out.adrias.examN))
	// A replayed pair is two testbed runs plus the Adrias pass's decisions.
	explained := 2*float64(scenarioRuns)*lp.m["scenario.run_ms"]*1e6 + float64(lp.tr.count("replay.decide"))*lp.m["core.decide_single_us"]*1e3
	lp.replayReconcile = explained / ns
	lp.res.notef("mini replay: %d scenarios x 2 in %.3f s; 2 x scenario.run_ms + decisions x core.decide_single_us explains %.1f%% of it (Decide alone %.1f%%)",
		scenarioRuns, ns/1e9, 100*lp.replayReconcile, 100*float64(lp.tr.count("replay.decide"))*lp.m["core.decide_single_us"]*1e3/ns)
	return nil
}

func firstError(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
