// Command adriasd is the orchestrator daemon demo: it trains (or loads) the
// Adrias models, runs a live randomized scenario on the simulated
// disaggregated testbed, and publishes the Watcher's per-tick samples and
// the Orchestrator's placement decisions on a TCP message bus — the
// deployment topology of the paper's Fig. 7, with the bus standing in for
// ZeroMQ. Connect any number of bus clients to observe the system.
//
// Usage:
//
//	adriasd [-models dir] [-beta 0.8] [-dur 600] [-listen 127.0.0.1:7601] [-quiet]
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adrias"
	"adrias/internal/bus"
	"adrias/internal/cluster"
	"adrias/internal/memsys"
	"adrias/internal/workload"
)

type samplePayload struct {
	Time    float64   `json:"time"`
	Metrics []float64 `json:"metrics"`
	Running int       `json:"running"`
}

type decisionPayload struct {
	App       string  `json:"app"`
	Class     string  `json:"class"`
	Tier      string  `json:"tier"`
	PredLocal float64 `json:"pred_local,omitempty"`
	PredRem   float64 `json:"pred_remote,omitempty"`
	ColdStart bool    `json:"cold_start,omitempty"`
}

func main() {
	modelsDir := flag.String("models", "", "directory of pre-trained models (empty: train fast models now)")
	beta := flag.Float64("beta", 0.8, "BE slack parameter β")
	dur := flag.Float64("dur", 600, "scenario arrival window, simulated seconds")
	listen := flag.String("listen", "127.0.0.1:7601", "bus listen address")
	quiet := flag.Bool("quiet", false, "suppress per-decision output")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "adriasd: "+format+"\n", args...)
		os.Exit(2)
	}
	if *beta <= 0 {
		fail("-beta must be > 0 (got %v)", *beta)
	}
	if *dur <= 0 {
		fail("-dur must be > 0 simulated seconds (got %v)", *dur)
	}
	if _, _, err := net.SplitHostPort(*listen); err != nil {
		fail("invalid -listen address %q: %v", *listen, err)
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
		sys, err = adrias.Train(adrias.FastOptions())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	b := bus.New()
	srv, err := bus.NewServer(b, *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer srv.Close()
	defer b.Close()
	fmt.Printf("bus serving on %s (topics: watcher.samples, orchestrator.decisions)\n", srv.Addr())

	// SIGINT/SIGTERM: shut the bus down cleanly (clients see closed
	// connections, not resets) before exiting mid-scenario.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "\nadriasd: %s: closing bus and exiting\n", sig)
		srv.Close()
		b.Close()
		os.Exit(130)
	}()

	orch := sys.Orchestrator(*beta)
	// Loose QoS targets derived from the LC profiles' unloaded latency.
	for _, p := range sys.Registry.LC() {
		orch.QoSMs[p.Name] = p.BaseP50Ms * 20
	}

	cfg := adrias.ScenarioConfig{
		Seed:        time.Now().UnixNano()%100000 + 1,
		DurationSec: *dur,
		SpawnMin:    5,
		SpawnMax:    25,
		IBenchShare: 0.3,
		KeepHistory: true,
		OnComplete: func(in *workload.Instance, c *cluster.Cluster) {
			orch.OnComplete(in, c)
		},
	}

	decided := 0
	sched := adrias.WithRandomInterference(
		publishingScheduler{orch: orch, bus: b, quiet: *quiet, decided: &decided}, cfg.Seed)
	start := time.Now()
	res, err := sys.RunScenario(cfg, sched)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Publish the recorded monitoring trace (live consumers already missed
	// the simulation, which runs faster than wall clock — this is a replay
	// for any attached client).
	for _, rec := range res.History {
		b.Publish("watcher.samples", samplePayload{
			Time: rec.Time, Metrics: rec.Sample.Vector(), Running: rec.Running,
		})
	}

	stats := orch.Stats()
	fmt.Printf("\nscenario complete in %.1fs wall: %d runs, %d decisions, %d offloaded (%d cold starts)\n",
		time.Since(start).Seconds(), len(res.Runs), stats.Total, stats.Remote, stats.Cold)
	fmt.Printf("fabric traffic: %.2f GB\n", res.FabricBytes/1e9)
}

// publishingScheduler wraps the orchestrator, publishing every decision on
// the bus.
type publishingScheduler struct {
	orch    *adrias.Orchestrator
	bus     *bus.Bus
	quiet   bool
	decided *int
}

func (p publishingScheduler) Name() string { return p.orch.Name() }

func (p publishingScheduler) Decide(prof *workload.Profile, c *cluster.Cluster) memsys.Tier {
	tier := p.orch.Decide(prof, c)
	d, _ := p.orch.LastDecision()
	payload := decisionPayload{
		App: d.App, Class: d.Class.String(), Tier: tier.String(),
		PredLocal: d.PredLocal, PredRem: d.PredRem, ColdStart: d.ColdStart,
	}
	p.bus.Publish("orchestrator.decisions", payload)
	*p.decided++
	if !p.quiet {
		if d.PredLocal > 0 {
			fmt.Printf("t=%6.0f  %-10s → %-6s (t̂_local %.1f, t̂_remote %.1f)\n",
				c.Now(), d.App, tier, d.PredLocal, d.PredRem)
		} else {
			fmt.Printf("t=%6.0f  %-10s → %-6s\n", c.Now(), d.App, tier)
		}
	}
	return tier
}
