// Package adrias is the public API of the Adrias reproduction — an
// interference-aware memory orchestration framework for disaggregated cloud
// infrastructures (Masouros et al., HPCA 2023), rebuilt in Go on a
// simulated ThymesisFlow testbed.
//
// The typical flow mirrors the paper's offline/online split:
//
//	sys, err := adrias.Train(adrias.FastOptions())   // offline phase
//	orch := sys.Orchestrator(0.8)                    // β-slack scheduler
//	res, err := sys.RunScenario(cfg, orch)           // online orchestration
//
// Train executes the interference-aware trace collection (randomized
// deployment scenarios on the simulated testbed), trains the system-state
// LSTM and the two universal performance models (BE and LC), and captures
// per-application signatures. The resulting System hands out Adrias
// orchestrators and baseline schedulers, and can persist its models.
package adrias

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"adrias/internal/cluster"
	"adrias/internal/core"
	"adrias/internal/dataset"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/models"
	"adrias/internal/scenario"
	"adrias/internal/workload"
)

// Re-exported leaf types so typical users never import internal packages.
type (
	// Tier is a memory placement (local DRAM or remote/disaggregated).
	Tier = memsys.Tier
	// Profile describes one application.
	Profile = workload.Profile
	// Registry holds the calibrated application profiles.
	Registry = workload.Registry
	// Scheduler decides the memory tier of each arriving application.
	Scheduler = core.Scheduler
	// Orchestrator is the Adrias scheduler itself.
	Orchestrator = core.Orchestrator
	// ScenarioConfig configures one randomized deployment scenario.
	ScenarioConfig = scenario.Config
	// ScenarioResult is the outcome of a scenario run.
	ScenarioResult = scenario.Result
	// ClusterConfig configures the simulated testbed.
	ClusterConfig = cluster.Config
)

// Tier values.
const (
	TierLocal  = memsys.TierLocal
	TierRemote = memsys.TierRemote
)

// NewRegistry returns the calibrated workload registry: the 17 Spark
// (HiBench) best-effort profiles, Redis and Memcached, and the four iBench
// interference generators.
func NewRegistry() *Registry { return workload.NewRegistry() }

// Options configures the offline training phase.
type Options struct {
	// Corpus is the trace-collection campaign (the paper runs 72 one-hour
	// scenarios with spawn intervals {5,20}…{5,60}).
	Corpus scenario.CorpusSpec
	// LCCorpus, when non-nil, is a supplemental LC-biased campaign whose
	// runs feed only the latency-critical performance model. The uniform
	// app pick of the main corpus leaves LC under-represented at reduced
	// corpus scales; the paper's full 72-hour campaign does not need this.
	LCCorpus *scenario.CorpusSpec
	// Window is the history/horizon windowing (paper: 120 s / 120 s).
	Window models.PerfDatasetSpec
	// Sys and Perf are the model hyper-parameters.
	Sys  models.SysStateConfig
	Perf models.PerfConfig
	// TrainFrac is the train split (paper: 0.6).
	TrainFrac float64
	// WindowHop subsamples system-state windows (ticks between windows).
	WindowHop int
	// MaxWindows caps the system-state training set (0 = no cap).
	MaxWindows int
	// MaxPerfSamples caps each performance model's dataset (0 = no cap).
	MaxPerfSamples int
	// Seed drives the split and any subsampling.
	Seed int64
}

// PaperOptions reproduces the paper-scale offline phase: the full
// 72-scenario corpus and full-size models. Expect minutes of CPU time.
func PaperOptions() Options {
	return Options{
		Corpus:     scenario.DefaultCorpus(),
		Window:     models.DefaultPerfDatasetSpec(),
		Sys:        models.DefaultSysStateConfig(),
		Perf:       models.DefaultPerfConfig(),
		TrainFrac:  0.6,
		WindowHop:  30,
		MaxWindows: 6000,
		Seed:       1,
	}
}

// FastOptions is a scaled-down offline phase for examples and smoke runs:
// a few short scenarios and small models, training in ≈0.7 s on two cores
// (BenchmarkTrainFast).
func FastOptions() Options {
	opts := PaperOptions()
	opts.Corpus = scenario.CorpusSpec{
		BaseSeed:    2000,
		DurationSec: 900,
		SpawnMin:    5,
		SpawnMaxes:  []float64{15, 35},
		SeedsPer:    4,
		IBenchShare: 0.35,
		KeepHistory: true,
	}
	opts.LCCorpus = &scenario.CorpusSpec{
		BaseSeed:    7000,
		DurationSec: 900,
		SpawnMin:    5,
		SpawnMaxes:  []float64{15, 35},
		SeedsPer:    4,
		IBenchShare: 0.35,
		LCShare:     0.7,
		KeepHistory: true,
	}
	opts.Window = models.PerfDatasetSpec{HistTicks: 60, FutureTicks: 60, Stride: 10}
	opts.Sys = models.SysStateConfig{Hidden: 16, BlockDim: 24, Dropout: 0, LR: 2e-3, Epochs: 12, Batch: 24, Seed: 3}
	opts.Perf = models.PerfConfig{
		Hidden: 12, BlockDim: 24, Dropout: 0, LR: 2e-3, Epochs: 18, Batch: 24, Seed: 5,
		TrainFuture: models.Future120Actual, EvalFuture: models.FuturePredicted,
	}
	opts.WindowHop = 9
	opts.MaxWindows = 2500
	opts.MaxPerfSamples = 1500
	return opts
}

// System is a trained Adrias deployment: models, signatures, and factories
// for schedulers.
type System struct {
	Registry *Registry
	Pred     *core.Predictor
	Watch    *core.Watcher
	Opts     Options

	// Training artifacts kept for inspection/evaluation.
	Results  []scenario.Result
	Windows  []dataset.Window
	TrainIdx []int
	TestIdx  []int
}

// Train runs the full offline phase: trace collection, signature capture,
// and model training.
func Train(opts Options) (*System, error) {
	reg := NewRegistry()
	results, err := scenario.RunCorpus(opts.Corpus, reg, nil)
	if err != nil {
		return nil, fmt.Errorf("adrias: trace collection: %w", err)
	}
	return TrainOn(opts, reg, results)
}

// TrainOn trains on an existing trace corpus (so callers can reuse one
// corpus across configurations, as the evaluation harness does). It runs on
// two lanes: the system-state fit, the longest piece, on its own goroutine,
// and beside it the LC corpus, the signatures and the two performance fits.
// Each model draws only from its own seeds, so the result does not depend on
// how the lanes interleave. An error is returned once both lanes are done,
// the system-state lane's first.
func TrainOn(opts Options, reg *Registry, results []scenario.Result) (*System, error) {
	spec := opts.Window
	wspec := spec.WindowSpec()
	wspec.Hop = opts.WindowHop
	if wspec.Hop <= 0 {
		wspec.Hop = 1
	}
	var windows []dataset.Window
	for _, r := range results {
		ws, err := dataset.FromHistory(r.History, wspec)
		if err != nil {
			return nil, fmt.Errorf("adrias: windowing: %w", err)
		}
		windows = append(windows, ws...)
	}
	if opts.MaxWindows > 0 && len(windows) > opts.MaxWindows {
		windows = subsampleWindows(windows, opts.MaxWindows, opts.Seed)
	}
	if len(windows) == 0 {
		return nil, fmt.Errorf("adrias: no windows extracted (histories too short?)")
	}
	trainW, testW := dataset.Split(len(windows), opts.TrainFrac, opts.Seed)

	sys := models.NewSysStateModel(opts.Sys)
	var perf perfModels
	sysErr, perfErr := runLanes(
		func() error { return sys.Fit(windows, trainW) },
		func() (err error) { perf, err = trainPerf(opts, reg, results); return err },
	)
	if sysErr != nil {
		return nil, fmt.Errorf("adrias: system-state training: %w", sysErr)
	}
	if perfErr != nil {
		return nil, perfErr
	}

	return &System{
		Registry: reg,
		Pred:     &core.Predictor{Sys: sys, BE: perf.be, LC: perf.lc, Sigs: perf.sigs},
		Watch:    core.NewWatcher(spec),
		Opts:     opts,
		Results:  results,
		Windows:  windows,
		TrainIdx: trainW,
		TestIdx:  testW,
	}, nil
}

// runLanes runs sysLane on its own goroutine beside perfLane and returns
// both errors once both have finished.
func runLanes(sysLane, perfLane func() error) (sysErr, perfErr error) {
	done := make(chan error, 1)
	go func() { done <- sysLane() }()
	perfErr = perfLane()
	return <-done, perfErr
}

// perfModels is the performance lane's output.
type perfModels struct {
	sigs   *models.SignatureStore
	be, lc *models.PerfModel
}

// trainPerf is TrainOn's performance lane: the LC corpus, the signatures,
// the perf samples, then the BE and LC fits.
func trainPerf(opts Options, reg *Registry, results []scenario.Result) (perfModels, error) {
	var out perfModels
	spec := opts.Window
	var lcResults []scenario.Result
	if opts.LCCorpus != nil {
		var err error
		if lcResults, err = scenario.RunCorpus(*opts.LCCorpus, reg, nil); err != nil {
			return out, fmt.Errorf("adrias: LC trace collection: %w", err)
		}
	}
	sigs, err := models.BuildSignatures(reg, spec.HistTicks/spec.Stride, opts.Seed+100)
	if err != nil {
		return out, fmt.Errorf("adrias: signature capture: %w", err)
	}
	out.sigs = sigs

	var be, lc []models.PerfSample
	for _, s := range models.BuildPerfSamples(results, spec) {
		if s.Class == workload.BestEffort {
			be = append(be, s)
		} else {
			lc = append(lc, s)
		}
	}
	for _, s := range models.BuildPerfSamples(lcResults, spec) {
		if s.Class == workload.LatencyCritical {
			lc = append(lc, s)
		}
	}
	be = capSamples(be, opts.MaxPerfSamples, opts.Seed+11)
	lc = capSamples(lc, opts.MaxPerfSamples, opts.Seed+12)
	if out.be, err = fitPerf(opts.Perf, sigs, be, opts.TrainFrac, opts.Seed+1); err != nil {
		return out, fmt.Errorf("adrias: BE model: %w", err)
	}
	if out.lc, err = fitPerf(opts.Perf, sigs, lc, opts.TrainFrac, opts.Seed+2); err != nil {
		return out, fmt.Errorf("adrias: LC model: %w", err)
	}
	return out, nil
}

func fitPerf(cfg models.PerfConfig, sigs *models.SignatureStore, samples []models.PerfSample, frac float64, seed int64) (*models.PerfModel, error) {
	if len(samples) < 10 {
		return nil, fmt.Errorf("only %d samples", len(samples))
	}
	m := models.NewPerfModel(cfg, sigs)
	trainIdx, _ := dataset.Split(len(samples), frac, seed)
	if err := m.Fit(samples, trainIdx); err != nil {
		return nil, err
	}
	return m, nil
}

func capSamples(samples []models.PerfSample, n int, seed int64) []models.PerfSample {
	if n <= 0 || len(samples) <= n {
		return samples
	}
	idx, _ := dataset.Split(len(samples), float64(n)/float64(len(samples)), seed)
	out := make([]models.PerfSample, 0, len(idx))
	for _, i := range idx {
		out = append(out, samples[i])
	}
	return out
}

func subsampleWindows(windows []dataset.Window, n int, seed int64) []dataset.Window {
	idx, _ := dataset.Split(len(windows), float64(n)/float64(len(windows)), seed)
	out := make([]dataset.Window, 0, len(idx))
	for _, i := range idx {
		out = append(out, windows[i])
	}
	return out
}

// NewSystem builds an untrained System with the architecture implied by
// opts — the starting point for LoadModels. Signatures are loaded together
// with the models.
func NewSystem(opts Options) *System {
	reg := NewRegistry()
	sigs := models.NewSignatureStore(opts.Window.HistTicks / opts.Window.Stride)
	return &System{
		Registry: reg,
		Pred: &core.Predictor{
			Sys:  models.NewSysStateModel(opts.Sys),
			BE:   models.NewPerfModel(opts.Perf, sigs),
			LC:   models.NewPerfModel(opts.Perf, sigs),
			Sigs: sigs,
		},
		Watch: core.NewWatcher(opts.Window),
		Opts:  opts,
	}
}

// Orchestrator returns an Adrias scheduler with the given β slack. Set QoS
// constraints on the returned orchestrator's QoSMs map for LC offloading.
func (s *System) Orchestrator(beta float64) *Orchestrator {
	return core.NewOrchestrator(s.Pred, s.Watch, beta)
}

// Baselines returns the paper's comparison schedulers.
func (s *System) Baselines(seed int64) []Scheduler {
	return []Scheduler{core.NewRandom(seed), core.NewRoundRobin(), core.AllLocal{}}
}

// WithRandomInterference wraps a scheduler so iBench interference arrivals
// are placed by a seeded coin flip — the paper's load-generation semantics —
// while examined applications still go through the scheduler. Use it when
// scenarios include interference (IBenchShare > 0); letting an orchestrator
// cold-start every microbenchmark onto remote memory saturates the fabric.
func WithRandomInterference(sched Scheduler, seed int64) Scheduler {
	return core.NewRandomInterference(sched, seed)
}

// RunScenario executes one randomized deployment scenario under the given
// scheduler. When sched is (or wraps) an *Orchestrator, its
// signature-capture hook is wired automatically.
func (s *System) RunScenario(cfg ScenarioConfig, sched Scheduler) (ScenarioResult, error) {
	inner := sched
	if w, ok := inner.(*core.RandomInterference); ok {
		inner = w.Sched
	}
	if orch, ok := inner.(*Orchestrator); ok && cfg.OnComplete == nil {
		cfg.OnComplete = orch.OnComplete
	}
	return scenario.Run(cfg, s.Registry, sched.Decide)
}

// Retrain runs additional trace-collection scenarios and retrains the
// predictor on the combined corpus — the paper's remedy for poor
// generalization to unseen applications (Fig. 15): "continuous collection
// of representative application signatures and retraining". Signatures
// captured in situ since training (e.g. by an orchestrator's cold-start
// path) are preserved. The returned System replaces this one.
func (s *System) Retrain(extra scenario.CorpusSpec) (*System, error) {
	more, err := scenario.RunCorpus(extra, s.Registry, nil)
	if err != nil {
		return nil, fmt.Errorf("adrias: retraining trace collection: %w", err)
	}
	combined := append(append([]scenario.Result(nil), s.Results...), more...)
	next, err := TrainOn(s.Opts, s.Registry, combined)
	if err != nil {
		return nil, err
	}
	// Carry over signatures the old system learned in situ that bulk
	// capture does not know about (custom workloads).
	for _, name := range s.Pred.Sigs.Names() {
		if !next.Pred.Sigs.Has(name) {
			if sig, ok := s.Pred.Sigs.Get(name); ok {
				steps := make([]mathx.Vector, len(sig.Steps))
				copy(steps, sig.Steps)
				if err := next.Pred.Sigs.Put(name, steps); err != nil {
					return nil, fmt.Errorf("adrias: carrying signature %q: %w", name, err)
				}
			}
		}
	}
	return next, nil
}

// SaveModels persists the trained models under dir (created if needed).
func (s *System) SaveModels(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	save := func(name string, w func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return w(f)
	}
	if err := save("sysstate.gob", s.Pred.Sys.Save); err != nil {
		return fmt.Errorf("adrias: saving system-state model: %w", err)
	}
	if err := save("perf_be.gob", s.Pred.BE.Save); err != nil {
		return fmt.Errorf("adrias: saving BE model: %w", err)
	}
	if err := save("perf_lc.gob", s.Pred.LC.Save); err != nil {
		return fmt.Errorf("adrias: saving LC model: %w", err)
	}
	if err := save("signatures.gob", s.Pred.Sigs.Save); err != nil {
		return fmt.Errorf("adrias: saving signatures: %w", err)
	}
	return nil
}

// LoadModels restores models previously written by SaveModels into this
// system (whose Options must match the saved architecture).
func (s *System) LoadModels(dir string) error {
	load := func(name string, r func(io.Reader) error) error {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return r(f)
	}
	if err := load("sysstate.gob", s.Pred.Sys.Load); err != nil {
		return fmt.Errorf("adrias: loading system-state model: %w", err)
	}
	if err := load("perf_be.gob", s.Pred.BE.Load); err != nil {
		return fmt.Errorf("adrias: loading BE model: %w", err)
	}
	if err := load("perf_lc.gob", s.Pred.LC.Load); err != nil {
		return fmt.Errorf("adrias: loading LC model: %w", err)
	}
	if err := load("signatures.gob", s.Pred.Sigs.Load); err != nil {
		return fmt.Errorf("adrias: loading signatures: %w", err)
	}
	return nil
}
