// Package scenario implements the paper's interference-aware trace
// collection protocol (§V-B1): randomized 1-hour deployment scenarios where
// a new workload — drawn from the examined applications or the iBench pool —
// arrives every Uniform(spawnMin, spawnMax) seconds and is placed on local
// or remote memory. Running the 72-scenario corpus produces the performance
// distributions of Fig. 9/10 and the monitoring traces that train the
// Predictor's models.
package scenario

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"adrias/internal/cluster"
	"adrias/internal/memsys"
	"adrias/internal/randutil"
	"adrias/internal/workload"
)

// Decider picks the memory tier for an arriving application. It is called
// at arrival time, so it can inspect the cluster's current state (the hook
// the Adrias orchestrator uses). A nil Decider means uniformly random.
type Decider func(p *workload.Profile, c *cluster.Cluster) memsys.Tier

// Config describes one scenario.
type Config struct {
	Seed        int64
	DurationSec float64 // arrival window (execution continues until drain)
	SpawnMin    float64 // minimum inter-arrival gap, seconds
	SpawnMax    float64 // maximum inter-arrival gap, seconds
	// IBenchShare is the probability an arrival is an iBench microbenchmark
	// rather than an examined application (paper: supplementary interference).
	IBenchShare float64
	// LCShare, when positive, is the probability an examined-application
	// pick is drawn from the LC pool instead of uniformly from all examined
	// apps. Zero keeps the paper's uniform pick; the training pipeline uses
	// a biased supplemental corpus to balance the LC dataset.
	LCShare float64
	// DrainGraceSec bounds how long past DurationSec the run may take to
	// drain. Zero means a generous default.
	DrainGraceSec float64
	// Cluster overrides the testbed configuration; zero value means default.
	Cluster *cluster.Config
	// KeepHistory retains the per-tick monitoring trace in the result.
	KeepHistory bool
	// OnComplete, if set, runs after the scenario's own bookkeeping whenever
	// an instance finishes (the Adrias orchestrator uses it to capture
	// signatures of first-seen applications).
	OnComplete func(in *workload.Instance, c *cluster.Cluster)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.DurationSec <= 0:
		return fmt.Errorf("scenario: DurationSec must be positive")
	case c.SpawnMin <= 0 || c.SpawnMax < c.SpawnMin:
		return fmt.Errorf("scenario: spawn interval (%g,%g) invalid", c.SpawnMin, c.SpawnMax)
	case c.IBenchShare < 0 || c.IBenchShare > 1:
		return fmt.Errorf("scenario: IBenchShare %g out of [0,1]", c.IBenchShare)
	case c.LCShare < 0 || c.LCShare > 1:
		return fmt.Errorf("scenario: LCShare %g out of [0,1]", c.LCShare)
	}
	return nil
}

// AppRun records one completed deployment.
type AppRun struct {
	ID       int
	Name     string
	Class    workload.Class
	Tier     memsys.Tier
	StartAt  float64
	DoneAt   float64
	ExecTime float64
	P99Ms    float64 // LC only
	P999Ms   float64 // LC only
}

// Result is the outcome of one scenario run.
type Result struct {
	Config        Config
	Runs          []AppRun
	History       []cluster.TickRecord
	MaxConcurrent int
	FabricBytes   float64
}

// Run executes one scenario. decide may be nil (random placement).
func Run(cfg Config, reg *workload.Registry, decide Decider) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	ccfg := cluster.DefaultConfig()
	if cfg.Cluster != nil {
		ccfg = *cfg.Cluster
	}
	ccfg.Seed = cfg.Seed
	ccfg.KeepHistory = cfg.KeepHistory
	c := cluster.New(ccfg)
	rng := randutil.New(cfg.Seed).Split(0x5ce)

	apps := append(append([]*workload.Profile(nil), reg.Spark()...), reg.LC()...)
	lcApps := reg.LC()
	hogs := reg.IBench()

	if decide == nil {
		decide = func(*workload.Profile, *cluster.Cluster) memsys.Tier {
			if rng.Bernoulli(0.5) {
				return memsys.TierRemote
			}
			return memsys.TierLocal
		}
	}

	res := Result{Config: cfg}
	c.OnComplete = func(in *workload.Instance) {
		run := AppRun{
			ID:       in.ID,
			Name:     in.Profile.Name,
			Class:    in.Profile.Class,
			Tier:     in.Tier,
			StartAt:  in.StartAt,
			DoneAt:   in.DoneAt,
			ExecTime: in.ExecTime(c.Now()),
		}
		if in.Profile.Class == workload.LatencyCritical {
			tails := in.TailLatencies(99, 99.9)
			run.P99Ms, run.P999Ms = tails[0], tails[1]
		}
		res.Runs = append(res.Runs, run)
		if cfg.OnComplete != nil {
			cfg.OnComplete(in, c)
		}
	}
	c.OnTick = func(now float64, _ memsys.Sample) {
		if n := len(c.Running()); n > res.MaxConcurrent {
			res.MaxConcurrent = n
		}
	}

	// Generate the arrival schedule up front (deterministic given the seed).
	for t := rng.Uniform(cfg.SpawnMin, cfg.SpawnMax); t < cfg.DurationSec; t += rng.Uniform(cfg.SpawnMin, cfg.SpawnMax) {
		var p *workload.Profile
		switch {
		case rng.Bernoulli(cfg.IBenchShare):
			p = hogs[rng.Choice(len(hogs))]
		case cfg.LCShare > 0 && rng.Bernoulli(cfg.LCShare):
			p = lcApps[rng.Choice(len(lcApps))]
		default:
			p = apps[rng.Choice(len(apps))]
		}
		prof := p
		c.DeployAt(t, prof, func() memsys.Tier { return decide(prof, c) }, nil)
	}

	grace := cfg.DrainGraceSec
	if grace <= 0 {
		grace = 40 * cfg.DurationSec
	}
	if err := c.RunUntilDrained(cfg.DurationSec + grace); err != nil {
		return res, err
	}
	res.History = c.History()
	res.FabricBytes = c.FabricBytesMoved()
	return res, nil
}

// CorpusSpec configures the 72-scenario corpus of the paper: spawn-interval
// maxima swept from Congested (5,20) to Relaxed (5,60), several seeds each.
type CorpusSpec struct {
	BaseSeed    int64
	DurationSec float64
	SpawnMin    float64
	SpawnMaxes  []float64 // e.g. 20,25,...,60
	SeedsPer    int       // scenarios per spawn setting
	IBenchShare float64
	LCShare     float64 // see Config.LCShare
	KeepHistory bool
}

// DefaultCorpus returns the paper-scale corpus: 9 spawn settings × 8 seeds
// = 72 one-hour scenarios.
func DefaultCorpus() CorpusSpec {
	return CorpusSpec{
		BaseSeed:    1000,
		DurationSec: 3600,
		SpawnMin:    5,
		SpawnMaxes:  []float64{20, 25, 30, 35, 40, 45, 50, 55, 60},
		SeedsPer:    8,
		IBenchShare: 0.35,
		KeepHistory: true,
	}
}

// Configs expands the spec into the individual scenario configurations.
func (s CorpusSpec) Configs() []Config {
	var out []Config
	seed := s.BaseSeed
	for _, max := range s.SpawnMaxes {
		for i := 0; i < s.SeedsPer; i++ {
			out = append(out, Config{
				Seed:        seed,
				DurationSec: s.DurationSec,
				SpawnMin:    s.SpawnMin,
				SpawnMax:    max,
				IBenchShare: s.IBenchShare,
				LCShare:     s.LCShare,
				KeepHistory: s.KeepHistory,
			})
			seed++
		}
	}
	return out
}

// RunCorpus executes every scenario in the spec and returns the results in
// order. decide may be nil for random placement (the trace-collection mode);
// then the scenarios run on up to GOMAXPROCS goroutines. Each owns its
// testbed and random streams and writes its result by index, so the output
// does not depend on the schedule. A caller's Decider may keep state across
// scenarios, so with one they run one at a time, in order. On error the
// results before the first failing scenario are returned with its error.
func RunCorpus(spec CorpusSpec, reg *workload.Registry, decide Decider) ([]Result, error) {
	cfgs := spec.Configs()
	out := make([]Result, len(cfgs))
	errs := make([]error, len(cfgs))
	workers := 1
	if decide == nil {
		workers = min(runtime.GOMAXPROCS(0), len(cfgs))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(cfgs); i = int(next.Add(1) - 1) {
				out[i], errs[i] = Run(cfgs[i], reg, decide)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return out[:i], fmt.Errorf("scenario seed %d: %w", cfgs[i].Seed, err)
		}
	}
	return out, nil
}

// PerfByApp groups a corpus's completed runs by (application, tier) and
// returns each group's performance values: execution time for BE,
// 99th-percentile latency for LC.
func PerfByApp(results []Result) map[string]map[memsys.Tier][]float64 {
	out := make(map[string]map[memsys.Tier][]float64)
	for _, res := range results {
		for _, r := range res.Runs {
			if r.Class == workload.Interference {
				continue
			}
			byTier, ok := out[r.Name]
			if !ok {
				byTier = make(map[memsys.Tier][]float64)
				out[r.Name] = byTier
			}
			v := r.ExecTime
			if r.Class == workload.LatencyCritical {
				v = r.P99Ms
			}
			byTier[r.Tier] = append(byTier[r.Tier], v)
		}
	}
	return out
}
