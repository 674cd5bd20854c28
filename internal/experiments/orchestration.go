package experiments

import (
	"fmt"
	"sort"

	"adrias/internal/core"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/scenario"
	"adrias/internal/workload"
)

// evalOutcome aggregates one scheduler's behaviour over the evaluation
// scenarios.
type evalOutcome struct {
	name        string
	beExec      map[string][]float64 // app → exec times
	beLocal     map[string]int
	beRemote    map[string]int
	lcRuns      []scenario.AppRun
	lcRemote    int
	lcTotal     int
	fabricBytes float64
}

func newEvalOutcome(name string) *evalOutcome {
	return &evalOutcome{
		name:     name,
		beExec:   map[string][]float64{},
		beLocal:  map[string]int{},
		beRemote: map[string]int{},
	}
}

// wrapInterference places iBench arrivals with a shared-seed random stream
// so every scheduler faces the identical interference pattern, and defers
// examined applications to the scheduler under test.
func wrapInterference(sched core.Scheduler, seed int64) scenario.Decider {
	return core.NewRandomInterference(sched, seed).Decide
}

// runEval executes the evaluation scenarios under one scheduler.
func (s *Suite) runEval(sched core.Scheduler) (*evalOutcome, error) {
	out := newEvalOutcome(sched.Name())
	for i := 0; i < s.Scale.EvalScenarios; i++ {
		spawnMax := s.Scale.EvalSpawnMax
		if spawnMax <= 5 {
			spawnMax = 30
		}
		cfg := scenario.Config{
			Seed:        s.Scale.EvalSeed + int64(i),
			DurationSec: s.Scale.EvalDur,
			SpawnMin:    5,
			SpawnMax:    spawnMax,
			IBenchShare: 0.35,
			KeepHistory: true,
		}
		if orch, ok := sched.(*core.Orchestrator); ok {
			cfg.OnComplete = orch.OnComplete
		}
		res, err := scenario.Run(cfg, s.reg, wrapInterference(sched, 0xfeed+int64(i)))
		if err != nil {
			return nil, err
		}
		for _, run := range res.Runs {
			switch run.Class {
			case workload.BestEffort:
				out.beExec[run.Name] = append(out.beExec[run.Name], run.ExecTime)
				if run.Tier == memsys.TierRemote {
					out.beRemote[run.Name]++
				} else {
					out.beLocal[run.Name]++
				}
			case workload.LatencyCritical:
				out.lcRuns = append(out.lcRuns, run)
				out.lcTotal++
				if run.Tier == memsys.TierRemote {
					out.lcRemote++
				}
			}
		}
		out.fabricBytes += res.FabricBytes
	}
	return out, nil
}

// offloadFraction returns the share of BE deployments placed on remote.
func (o *evalOutcome) offloadFraction() float64 {
	var local, remote int
	for _, n := range o.beLocal {
		local += n
	}
	for _, n := range o.beRemote {
		remote += n
	}
	if local+remote == 0 {
		return 0
	}
	return float64(remote) / float64(local+remote)
}

// medianDropVs returns the mean over apps of (median_self/median_ref − 1),
// summed in app-name order so the float result does not depend on map
// iteration order.
func (o *evalOutcome) medianDropVs(ref *evalOutcome) float64 {
	apps := make([]string, 0, len(o.beExec))
	for app := range o.beExec {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	var drops []float64
	for _, app := range apps {
		times := o.beExec[app]
		rt, ok := ref.beExec[app]
		if !ok || len(times) < 2 || len(rt) < 2 {
			continue
		}
		drops = append(drops, medianOf(times)/medianOf(rt)-1)
	}
	if len(drops) == 0 {
		return 0
	}
	return mathx.Mean(drops)
}

// Fig16 reproduces the BE orchestration comparison: execution-time impact
// and local/remote placement counts under Random, Round-Robin, All-Local
// and Adrias with β ∈ {1.0 … 0.6}.
func (s *Suite) Fig16() (*Report, error) {
	r := &Report{
		ID:    "fig16",
		Title: "BE orchestration: schedulers vs Adrias β sweep",
		Paper: "Random/RR worst; β∈{1,.9} ≈ All-Local; β=.8 → ≈10% offload at ≈0.5% drop; β=.7 → ≈35% at ≈15%; β=.6 over-offloads",
	}
	sys, err := s.System()
	if err != nil {
		return nil, err
	}
	qos, err := s.QoSLevels()
	if err != nil {
		return nil, err
	}

	outcomes := map[string]*evalOutcome{}
	order := []string{}
	run := func(name string, sched core.Scheduler) error {
		o, err := s.runEval(sched)
		if err != nil {
			return err
		}
		o.name = name
		outcomes[name] = o
		order = append(order, name)
		return nil
	}
	if err := run("all-local", core.AllLocal{}); err != nil {
		return nil, err
	}
	if err := run("random", core.NewRandom(0x5eed)); err != nil {
		return nil, err
	}
	if err := run("round-robin", core.NewRoundRobin()); err != nil {
		return nil, err
	}
	betaName := func(b float64) string { return fmt.Sprintf("adrias β=%.1f", b) }
	for _, beta := range s.Scale.Betas {
		orch := sys.Orchestrator(beta)
		// A mid-loose QoS level so LC apps behave as in the BE study.
		for app, levels := range qos {
			orch.QoSMs[app] = levels[1]
		}
		if err := run(betaName(beta), orch); err != nil {
			return nil, err
		}
	}

	ref := outcomes["all-local"]
	r.Addf("%-16s %10s %12s %12s", "scheduler", "offload", "Δmedian", "fabric GB")
	for _, name := range order {
		o := outcomes[name]
		r.Addf("%-16s %9.1f%% %+11.1f%% %12.2f",
			name, o.offloadFraction()*100, o.medianDropVs(ref)*100, o.fabricBytes/1e9)
	}

	// Shape checks.
	adr8 := outcomes[betaName(0.8)]
	adr7 := outcomes[betaName(0.7)]
	adr6 := outcomes[betaName(0.6)]
	adr10 := outcomes[betaName(1.0)]
	rand := outcomes["random"]
	rr := outcomes["round-robin"]

	r.Checkf(rand.medianDropVs(ref) > adr8.medianDropVs(ref) &&
		rr.medianDropVs(ref) > adr8.medianDropVs(ref),
		"naive-schedulers-worst",
		"random %+.1f%%, RR %+.1f%% vs adrias β=0.8 %+.1f%%",
		rand.medianDropVs(ref)*100, rr.medianDropVs(ref)*100, adr8.medianDropVs(ref)*100)

	// The rule is monotone for fixed predictions (unit-tested in core);
	// across live runs each β changes the cluster trajectory the next
	// predictions see, so allow modest feedback-induced wobble.
	fr := func(o *evalOutcome) float64 { return o.offloadFraction() }
	monotone := fr(adr10) <= fr(outcomes[betaName(0.9)])+0.08 &&
		fr(outcomes[betaName(0.9)]) <= fr(adr8)+0.08 &&
		fr(adr8) <= fr(adr7)+0.08 && fr(adr7) <= fr(adr6)+0.08
	r.Checkf(monotone, "beta-monotone-offload",
		"offload fraction rises as β drops: %.2f %.2f %.2f %.2f %.2f",
		fr(adr10), fr(outcomes[betaName(0.9)]), fr(adr8), fr(adr7), fr(adr6))

	r.Checkf(fr(adr10) < 0.35, "high-beta-conservative",
		"β=1.0 offloads %.0f%% (paper: ≈ all-local)", fr(adr10)*100)
	r.Checkf(fr(adr7) > 0.10, "mid-beta-utilizes-remote",
		"β=0.7 offloads %.0f%% (paper ≈35%%)", fr(adr7)*100)
	r.Checkf(adr8.medianDropVs(ref) < adr6.medianDropVs(ref)+0.02,
		"lower-beta-costs-more",
		"β=0.8 drop %+.1f%% ≤ β=0.6 drop %+.1f%%",
		adr8.medianDropVs(ref)*100, adr6.medianDropVs(ref)*100)
	r.Checkf(adr8.medianDropVs(ref) < 0.15, "slack-respected",
		"β=0.8 average median drop %+.1f%% (paper ≈0.5%%)", adr8.medianDropVs(ref)*100)
	return r, nil
}

// Fig17 reproduces the LC QoS study: violations and offload counts for
// Redis and Memcached under five QoS levels.
func (s *Suite) Fig17() (*Report, error) {
	r := &Report{
		ID:    "fig17",
		Title: "LC orchestration: QoS violations and offloads",
		Paper: "Adrias ≈ All-Local violations at loose QoS while offloading ≈1/3; Random/RR violate most",
	}
	sys, err := s.System()
	if err != nil {
		return nil, err
	}
	qos, err := s.QoSLevels()
	if err != nil {
		return nil, err
	}
	if len(qos) == 0 {
		return nil, fmt.Errorf("experiments: no QoS levels derivable from corpus")
	}

	violations := func(runs []scenario.AppRun, level int) map[string]int {
		v := map[string]int{}
		for _, run := range runs {
			levels, ok := qos[run.Name]
			if !ok {
				continue
			}
			if run.P99Ms > levels[level] {
				v[run.Name]++
			}
		}
		return v
	}
	total := func(m map[string]int) int {
		t := 0
		for _, n := range m {
			t += n
		}
		return t
	}

	baselines := map[string]*evalOutcome{}
	for name, sched := range map[string]core.Scheduler{
		"all-local":   core.AllLocal{},
		"random":      core.NewRandom(0x5eed),
		"round-robin": core.NewRoundRobin(),
	} {
		o, err := s.runEval(sched)
		if err != nil {
			return nil, err
		}
		baselines[name] = o
	}

	levels := len(qos[firstKey(qos)])
	adriasPassesLoose := true
	adriasOffloadsLoose := false
	r.Addf("%-14s %8s %12s %10s %10s", "scheduler", "QoS lvl", "violations", "LC runs", "offloaded")
	for level := 0; level < levels; level++ {
		for _, name := range []string{"random", "round-robin", "all-local"} {
			o := baselines[name]
			r.Addf("%-14s %8d %12d %10d %10d",
				name, level, total(violations(o.lcRuns, level)), o.lcTotal, o.lcRemote)
		}
		orch := sys.Orchestrator(0.8)
		for app, lv := range qos {
			orch.QoSMs[app] = lv[level]
		}
		o, err := s.runEval(orch)
		if err != nil {
			return nil, err
		}
		adrViol := total(violations(o.lcRuns, level))
		allLocalViol := total(violations(baselines["all-local"].lcRuns, level))
		randViol := total(violations(baselines["random"].lcRuns, level))
		r.Addf("%-14s %8d %12d %10d %10d", "adrias", level, adrViol, o.lcTotal, o.lcRemote)
		if level <= 1 {
			// Loose levels: Adrias should track All-Local while offloading.
			if float64(adrViol) > float64(allLocalViol)+0.25*float64(o.lcTotal) ||
				adrViol > randViol {
				adriasPassesLoose = false
			}
			if float64(o.lcRemote) > 0.1*float64(o.lcTotal) {
				adriasOffloadsLoose = true
			}
		}
	}
	r.Checkf(adriasPassesLoose, "loose-qos-safe",
		"at loose QoS Adrias stays near All-Local violations and below Random")
	r.Checkf(adriasOffloadsLoose, "loose-qos-utilizes-remote",
		"at loose QoS Adrias offloads a meaningful share of LC runs")
	return r, nil
}

// Traffic reproduces the data-traffic comparison: bytes moved over the
// fabric under each scheduler.
func (s *Suite) Traffic() (*Report, error) {
	r := &Report{
		ID:    "traffic",
		Title: "Fabric data traffic by scheduler",
		Paper: "Adrias moves 45% less data than Random (β=0.8) and 23% less than Round-Robin (β=0.7); favors light apps for remote",
	}
	sys, err := s.System()
	if err != nil {
		return nil, err
	}
	qos, err := s.QoSLevels()
	if err != nil {
		return nil, err
	}
	mk := func(beta float64) *core.Orchestrator {
		orch := sys.Orchestrator(beta)
		for app, lv := range qos {
			orch.QoSMs[app] = lv[1]
		}
		return orch
	}
	randO, err := s.runEval(core.NewRandom(0x5eed))
	if err != nil {
		return nil, err
	}
	rrO, err := s.runEval(core.NewRoundRobin())
	if err != nil {
		return nil, err
	}
	adr8, err := s.runEval(mk(0.8))
	if err != nil {
		return nil, err
	}
	adr7, err := s.runEval(mk(0.7))
	if err != nil {
		return nil, err
	}
	rows := []*evalOutcome{randO, rrO, adr8, adr7}
	names := []string{"random", "round-robin", "adrias β=0.8", "adrias β=0.7"}
	r.Addf("%-14s %12s %10s", "scheduler", "fabric GB", "offload")
	for i, o := range rows {
		r.Addf("%-14s %12.2f %9.1f%%", names[i], o.fabricBytes/1e9, o.offloadFraction()*100)
	}
	r.Checkf(adr8.fabricBytes < randO.fabricBytes, "less-than-random",
		"β=0.8 moves %.2f GB vs random %.2f GB (paper −45%%)",
		adr8.fabricBytes/1e9, randO.fabricBytes/1e9)
	r.Checkf(adr7.fabricBytes < rrO.fabricBytes, "less-than-rr",
		"β=0.7 moves %.2f GB vs round-robin %.2f GB (paper −23%%)",
		adr7.fabricBytes/1e9, rrO.fabricBytes/1e9)
	// Traffic per offloaded deployment: Adrias should favor lighter apps.
	perOffload := func(o *evalOutcome) float64 {
		n := 0
		for _, c := range o.beRemote {
			n += c
		}
		n += o.lcRemote
		if n == 0 {
			return 0
		}
		return o.fabricBytes / float64(n)
	}
	r.Checkf(perOffload(adr7) < perOffload(randO)*1.15, "light-apps-favored",
		"bytes per offloaded app: adrias β=0.7 %.2f GB vs random %.2f GB",
		perOffload(adr7)/1e9, perOffload(randO)/1e9)
	return r, nil
}

func firstKey(m map[string][]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys[0]
}
