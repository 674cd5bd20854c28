package main

import "time"

// workloadDef is one named workload. The three server workloads boot the
// real adrias-serve with serverArgs and drive it over loopback; replay
// (replay-quality) runs the paper's own evaluation in-process.
type workloadDef struct {
	name string
	why  string
	// replay marks the in-process scenario-replay workload.
	replay bool
	// serverArgs are appended to "-listen 127.0.0.1:0 -seed 1".
	serverArgs []string
	nodes      int     // rack size the flags above select
	conns      int     // connections = generator goroutines (≤ nproc)
	rate       float64 // open-loop Poisson rate in req/s; 0 = closed loop
	// deployEvery > 0 sends one request in deployEvery with dry_run:false.
	deployEvery int
}

// warmup is driven and discarded before every measured window, so
// connections, pools, the intern table and the GC's pacing have settled.
const warmup = 2 * time.Second

// The open-loop rate and deploy share of mixed-rack are calibrated
// together: 300 req/s keeps two connections far from saturated and gives
// each of the six slices ~1000 samples (a real p99 with ten beyond it);
// one deploy in 100 is 3 deploys per wall second = 0.06 per simulated
// second at 50 sim-s/s, which with -ambient 0.02 stays under the testbed's
// ~0.08 arrivals/sim-s saturation knee, so the rack stays stationary.
var workloads = []workloadDef{
	{
		name:  "lone-dryrun",
		why:   "one app at a time (the paper's arrival pattern): latency is the 2 ms coalescing window, so batcher changes show and kernel changes must not",
		nodes: 1, conns: 1,
	},
	{
		name:  "pair-dryrun",
		why:   "two closed-loop callers: idle-release cuts the window, so HTTP codec + forecast + predict + decide dominate; this is the capacity figure",
		nodes: 1, conns: 2,
	},
	{
		name:        "mixed-rack",
		why:         "open-loop Poisson 300 req/s with 1% real deploys on 2 replicas x 2 nodes, int8: the sharded commit path, audit/event/bus emission and a 10 Hz Advance",
		serverArgs:  []string{"-replicas", "2", "-nodes", "2", "-quantized", "-tick", "100ms", "-sim-per-tick", "5", "-ambient", "0.02"},
		nodes:       2,
		conns:       4,
		rate:        300,
		deployEvery: 100,
	},
	{
		name:   "replay-quality",
		why:    "in-process held-out scenario replay, all-local vs Adrias beta=0.8: the paper's evaluation, where cluster/memsys/thymesis/sim and unbatched Decide dominate",
		replay: true,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
