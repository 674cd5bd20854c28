package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"adrias"
	"adrias/internal/memsys"
	"adrias/internal/workload"
)

// metric is one named figure of a run.
type metric struct {
	name  string
	unit  string
	value float64
}

// runResult is what one benchmark run reports.
type runResult struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	// notes are printed for the reader and not part of the result line.
	notes []string
}

func (r *runResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// violate records one failed output check: the run is not correct, and the
// check counts as a failed operation.
func (r *runResult) violate(format string, args ...any) {
	r.correct = false
	r.failed++
	r.notef("VIOLATION: "+format, args...)
}

// endToEndMetrics orders a run's end-to-end values as the endToEnd table
// declares them, with the table's units.
func endToEndMetrics(v map[string]float64) []metric {
	out := make([]metric, 0, len(endToEnd))
	for _, d := range endToEnd {
		out = append(out, metric{d.name, d.unit, v[d.name]})
	}
	return out
}

// setupRepeats is how many times a run sets up; setup_s is the median. The
// last set-up is the one the run then measures.
const setupRepeats = 3

// bootMedian boots the server setupRepeats times, stopping all but the
// last, and returns the last together with the median set-up time.
func bootMedian(args []string) (*server, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		srv, err := startServer(args)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, srv.setup.Seconds())
		if i == setupRepeats-1 {
			return srv, median(times), nil
		}
		if err := srv.stop(); err != nil {
			return nil, 0, err
		}
	}
}

// serverRun is one measured window against a booted server, with the
// /metrics and /proc readings taken just outside it.
type serverRun struct {
	gen            genResult
	win            windowStats
	before, after  scrape
	procB, procA   procStat
	wallB, wallA   time.Time
	status200Total int
	genCPU         time.Duration // this process's CPU time over the load
}

// selfCPU is this process's user + system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// driveServer runs the workload's traffic against srv for warmup+window.
// The scrapes bracket the whole load (warm-up included): nothing touches
// /metrics while requests are in flight.
func driveServer(srv *server, w *workloadDef, reg *workload.Registry, seed int64, window time.Duration) (*serverRun, error) {
	p := newPlan(reg, seed, w.deployEvery, w.rate, warmup+window)
	run := &serverRun{}
	var err error
	if run.before, err = srv.metrics(); err != nil {
		return nil, err
	}
	if run.procB, err = srv.proc(); err != nil {
		return nil, err
	}
	run.wallB = time.Now()
	cpu0 := selfCPU()
	run.gen = runLoad(genConfig{addr: srv.addr, conns: w.conns, nodes: w.nodes, warmup: warmup, window: window}, p)
	run.wallA = time.Now()
	run.genCPU = selfCPU() - cpu0
	if run.procA, err = srv.proc(); err != nil {
		return nil, err
	}
	if run.after, err = srv.metrics(); err != nil {
		return nil, err
	}
	run.win = aggregate(run.gen.samples, window)
	for _, s := range run.gen.samples {
		if s.ok {
			run.status200Total++
		}
	}
	return run, nil
}

// delta is after − before for one /metrics series.
func (r *serverRun) delta(series string) float64 { return r.after[series] - r.before[series] }

// checkServerInvariants asserts, from /metrics, what must hold after a
// workload: every request finalized once, one decision per answer, and no
// remote pool over-committed.
func checkServerInvariants(res *runResult, run *serverRun, w *workloadDef) {
	if d := run.after["adrias_serve_finalize_dups_total"]; d != 0 {
		res.violate("finalize_dups_total = %v, want 0", d)
	}
	okReqs := run.delta(`adrias_serve_requests_total{outcome="ok"}`)
	if dec := run.delta("adrias_serve_decisions_total"); dec != okReqs {
		res.violate("decisions %v != requests answered ok %v", dec, okReqs)
	}
	if int(okReqs) != run.status200Total {
		res.violate("server answered %v ok, generator saw %d valid 200s", okReqs, run.status200Total)
	}
	capGB := memsys.DefaultConfig().RemotePoolGB
	for n := 0; n < w.nodes; n++ {
		series := fmt.Sprintf(`adrias_serve_node_remote_free_gb{node="%d"}`, n)
		free, ok := run.after[series]
		if !ok {
			res.violate("missing %s", series)
		} else if free < 0 || free > capGB {
			res.violate("%s = %v outside [0, %v]", series, free, capGB)
		}
	}
}

// runServerE2E is one end-to-end run of a server workload, tracing off.
func runServerE2E(w *workloadDef, seed int64, window time.Duration) (runResult, error) {
	res := runResult{correct: true}
	if err := buildServer(); err != nil {
		return res, err
	}
	srv, setup, err := bootMedian(w.serverArgs)
	if err != nil {
		return res, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = srv.stop()
		}
	}()
	run, err := driveServer(srv, w, workload.NewRegistry(), seed, window)
	if err != nil {
		return res, err
	}
	stopped = true
	if err := srv.stop(); err != nil {
		res.violate("%v", err)
	}

	ws := run.win
	res.attempted, res.failed = ws.attempted, ws.failed
	if ws.failed > 0 {
		res.correct = false
		res.notef("failures: %v", run.gen.reasons)
	}
	checkServerInvariants(&res, run, w)
	q := run.gen.quality
	res.metrics = endToEndMetrics(map[string]float64{
		"setup_s": setup, "p50_ms": ws.p50Ms, "p99_ms": ws.p99Ms, "goodput_rps": ws.goodput,
		"be_slowdown": q.beRatio / float64(q.beN),
		"qos_ok_frac": frac(ws.attempted-ws.failed-ws.late, ws.attempted),
	})
	res.notef("samples %d (failed %d, late %d) in %d slices; tail percentile reported as p99: %.4f; %.4f of valid answers placed remote",
		ws.attempted, ws.failed, ws.late, len(ws.slices), ws.tailPct, frac(run.gen.remote, run.gen.valid))
	for i, s := range ws.slices {
		res.notef("  slice %d: n=%d p50=%.4f ms p99=%.4f ms goodput=%.1f/s", i, s.n, s.p50Ms, s.p99Ms, s.goodput)
	}
	res.notef("testbed after the load: %.0f instances running, simulated time %.0f s",
		run.after["adrias_serve_running_instances"], run.after["adrias_serve_sim_time_seconds"])
	res.notef("CPU per request over the load: server %.1f us, generator %.1f us (both share %d cores)",
		float64(run.procA.cpu-run.procB.cpu)/1e3/float64(len(run.gen.samples)), float64(run.genCPU)/1e3/float64(len(run.gen.samples)), runtime.NumCPU())
	if len(run.gen.late) > 0 {
		res.notef("open-loop generator lateness p50 %.1f p90 %.1f p99: %.1f us", latePercentile(run.gen.late, 0.5), latePercentile(run.gen.late, 0.9), latePercentile(run.gen.late, 0.99))
	}
	return res, nil
}

// replayStats turns the replay's groups into the latency/throughput figures
// the same way server windows are summarised: per group, then the midmean.
func replayStats(out *replayOutcome) windowStats {
	var ws windowStats
	for _, g := range out.groups {
		samples := make([]sample, len(g.decide))
		for i, d := range g.decide {
			samples[i] = sample{latency: d, ok: true}
			if d > latencyLimit {
				ws.late++
			}
		}
		ws.slices = append(ws.slices, summariseSlice(samples, g.wall.Seconds()))
		ws.attempted += len(samples)
	}
	ws.fold()
	return ws
}

// runReplayE2E is one end-to-end run of replay-quality.
func runReplayE2E(seed int64, seconds int) (runResult, error) {
	res := runResult{correct: true}
	var sys *adrias.System
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, err := adrias.Train(adrias.FastOptions())
		if err != nil {
			return res, err
		}
		times = append(times, time.Since(t0).Seconds())
		sys = s
	}
	out, err := runReplay(sys, scenarioSeeds(seed, seconds*replayPerSecond))
	if err != nil {
		return res, err
	}
	ws := replayStats(out)
	res.attempted = ws.attempted
	slow := beSlowdown(out.adrias, out.allLocal)
	offload := frac(out.adrias.remoteN, out.adrias.examN)
	qosOK := 1 - frac(out.adrias.lcViol, out.adrias.lcN)
	for name, v := range map[string]float64{"be_slowdown": slow, "offload_frac": offload, "qos_ok_frac": qosOK} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.violate("%s is not finite", name)
		}
	}
	if out.allLocal.remoteN != 0 {
		res.violate("all-local pass placed %d examined applications remote", out.allLocal.remoteN)
	}
	if out.adrias.examN != ws.attempted {
		res.violate("adrias pass completed %d examined runs but decided %d", out.adrias.examN, ws.attempted)
	}
	res.metrics = endToEndMetrics(map[string]float64{
		"setup_s": median(times), "p50_ms": ws.p50Ms, "p99_ms": ws.p99Ms, "goodput_rps": ws.goodput,
		"be_slowdown": slow, "qos_ok_frac": qosOK,
	})
	var wall, sim float64
	for i, g := range out.groups {
		wall += g.wall.Seconds()
		sim += g.simSec
		st := ws.slices[i]
		res.notef("  group %d: decisions=%d p50=%.4f ms p99=%.4f ms placements=%.1f/s wall=%.3fs", i, st.n, st.p50Ms, st.p99Ms, st.goodput, g.wall.Seconds())
	}
	res.notef("replayed %d scenarios x 2 schedulers in %.2f s host time: %.0f sim-s/s; %d Adrias decisions (late %d); tail percentile reported as p99: %.4f",
		seconds*replayPerSecond, wall, sim/wall, ws.attempted, ws.late, ws.tailPct)
	res.notef("Adrias placed %.4f of examined runs remote; LC runs %d, QoS violations %d (all-local: %d of %d)",
		offload, out.adrias.lcN, out.adrias.lcViol, out.allLocal.lcViol, out.allLocal.lcN)
	return res, nil
}
