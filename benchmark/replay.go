package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"adrias"
	"adrias/internal/cluster"
	"adrias/internal/core"
	"adrias/internal/memsys"
	"adrias/internal/scenario"
	"adrias/internal/workload"
)

// Replay constants. The scenario shape is the repo's own evaluation shape
// (experiments.Fast: 900 s, spawn interval U(5,30), 35 % iBench arrivals);
// β and the QoS factor are adrias-serve's defaults.
const (
	replayBeta      = 0.8
	replayQoSFactor = 20
	replayDuration  = 900
	replaySpawnMin  = 5
	replaySpawnMax  = 30
	replayIBench    = 0.35
	// replayPerSecond fixes the work: scenarios replayed per second of
	// --seconds. Calibrated here so the replay (both passes) takes about
	// 0.8 × --seconds; frozen, because the quality figures depend on it.
	replayPerSecond = 40
)

// timedScheduler times every Decide of the scheduler it wraps. It sits
// inside the random-interference wrapper, so only examined applications
// reach it — exactly the calls the orchestrator makes in production.
type timedScheduler struct {
	inner core.Scheduler
	lat   []time.Duration
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Decide(p *workload.Profile, c *cluster.Cluster) memsys.Tier {
	t0 := time.Now()
	tier := t.inner.Decide(p, c)
	t.lat = append(t.lat, time.Since(t0))
	return tier
}

// replayPass is one scheduler's outcome over a set of scenarios.
type replayPass struct {
	beExec  map[string][]float64 // BE app → execution times
	examN   int                  // examined-application runs
	remoteN int                  // … of which ran on remote memory
	lcN     int
	lcViol  int // LC runs whose realized p99 broke their QoS
}

func newReplayPass() *replayPass { return &replayPass{beExec: map[string][]float64{}} }

func (rp *replayPass) absorb(res scenario.Result, qos map[string]float64) {
	for _, run := range res.Runs {
		switch run.Class {
		case workload.BestEffort:
			rp.beExec[run.Name] = append(rp.beExec[run.Name], run.ExecTime)
		case workload.LatencyCritical:
			rp.lcN++
			if q, ok := qos[run.Name]; ok && run.P99Ms > q {
				rp.lcViol++
			}
		default:
			continue
		}
		rp.examN++
		if run.Tier == memsys.TierRemote {
			rp.remoteN++
		}
	}
}

// replayQoS is the per-LC-application p99 target, as adrias-serve sets it.
func replayQoS(reg *adrias.Registry) map[string]float64 {
	qos := map[string]float64{}
	for _, p := range reg.LC() {
		qos[p.Name] = p.BaseP50Ms * replayQoSFactor
	}
	return qos
}

// scenarioSeeds draws n distinct held-out scenario seeds from the benchmark
// seed. Training uses 2000–2007 and 7000–7007; these start at 100000.
func scenarioSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i, v := range rng.Perm(1 << 16)[:n] {
		out[i] = 100000 + int64(v)
	}
	return out
}

// replayGroup is the timing of one slice of the replay: a share of the
// scenarios, each run under all-local and then under Adrias.
type replayGroup struct {
	wall   time.Duration
	decide []time.Duration // Adrias Decide calls on examined applications
	simSec float64         // simulated seconds advanced, both passes
}

// replayOutcome is the whole replay.
type replayOutcome struct {
	groups   []replayGroup
	allLocal *replayPass
	adrias   *replayPass
}

// runReplay replays the seeds' scenarios in numSlices groups.
func runReplay(sys *adrias.System, seeds []int64) (*replayOutcome, error) {
	qos := replayQoS(sys.Registry)
	out := &replayOutcome{allLocal: newReplayPass(), adrias: newReplayPass()}
	orch := sys.Orchestrator(replayBeta)
	for app, q := range qos {
		orch.QoSMs[app] = q
	}
	timed := &timedScheduler{inner: orch}
	per := (len(seeds) + numSlices - 1) / numSlices
	for g := 0; g*per < len(seeds); g++ {
		hi := (g + 1) * per
		if hi > len(seeds) {
			hi = len(seeds)
		}
		timed.lat = nil
		grp := replayGroup{}
		t0 := time.Now()
		for _, s := range seeds[g*per : hi] {
			cfg := adrias.ScenarioConfig{
				Seed: s, DurationSec: replayDuration, SpawnMin: replaySpawnMin, SpawnMax: replaySpawnMax,
				IBenchShare: replayIBench, KeepHistory: true,
			}
			// Both passes face the same seeded interference coin flips.
			local, err := sys.RunScenario(cfg, adrias.WithRandomInterference(core.AllLocal{}, s^0xfeed))
			if err != nil {
				return nil, fmt.Errorf("all-local scenario %d: %w", s, err)
			}
			cfg.OnComplete = orch.OnComplete
			adr, err := sys.RunScenario(cfg, adrias.WithRandomInterference(timed, s^0xfeed))
			if err != nil {
				return nil, fmt.Errorf("adrias scenario %d: %w", s, err)
			}
			for _, r := range []*scenario.Result{&local, &adr} {
				if n := len(r.History); n > 0 {
					grp.simSec += r.History[n-1].Time
				}
			}
			out.allLocal.absorb(local, qos)
			out.adrias.absorb(adr, qos)
		}
		grp.wall = time.Since(t0)
		grp.decide = timed.lat
		out.groups = append(out.groups, grp)
	}
	return out, nil
}

// beSlowdown is Fig. 16's figure: the mean over BE applications of median
// execution time under Adrias ÷ under all-local (applications with fewer
// than two runs on either side are skipped).
func beSlowdown(adr, ref *replayPass) float64 {
	var sum float64
	n := 0
	for app, times := range adr.beExec {
		rt := ref.beExec[app]
		if len(times) < 2 || len(rt) < 2 {
			continue
		}
		sum += median(times) / median(rt)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

func frac(num, den int) float64 {
	if den == 0 {
		return math.NaN()
	}
	return float64(num) / float64(den)
}
