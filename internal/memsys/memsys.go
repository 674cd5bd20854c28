// Package memsys models the memory hierarchy of the borrower node in the
// ThymesisFlow testbed: CPU cores, a shared last-level cache, local DRAM,
// and a remote (disaggregated) memory tier reached through the thymesis
// fabric. The model is a fluid one, resolved once per simulation tick:
// running applications declare resource demands, the node allocates shared
// resources (cores, LLC occupancy, local DRAM bandwidth, fabric bandwidth)
// and returns per-application slowdowns plus the system-wide performance
// counters the Watcher samples.
//
// Modelling notes, tied to the paper's characterization (§IV):
//
//   - R3: applications placed on remote memory still occupy the local LLC
//     and their traffic flows through the local memory controllers, so they
//     contribute to LLCld/LLCmis/MEMld/MEMst on the borrower node.
//   - R5/R7: slowdown components (CPU, LLC, bandwidth, remote latency)
//     compose multiplicatively — the paper's "stacking interference".
//   - LLC contention inflates an application's miss ratio in proportion to
//     the share of its working set evicted by co-runners, which in turn
//     inflates its memory-bandwidth demand (R6).
package memsys

import (
	"fmt"
	"math"

	"adrias/internal/thymesis"
)

// Tier identifies where an application's heap is placed.
type Tier int

const (
	// TierLocal is conventional node-local DRAM.
	TierLocal Tier = iota
	// TierRemote is disaggregated memory borrowed over ThymesisFlow.
	TierRemote
)

// String returns "local" or "remote".
func (t Tier) String() string {
	if t == TierRemote {
		return "remote"
	}
	return "local"
}

// Config describes the borrower node. Defaults mirror the paper's AC922
// POWER9 testbed.
type Config struct {
	Cores          float64 // logical cores (64)
	LLCBytes       float64 // shared last-level cache (2 sockets × 10 MB)
	LineBytes      float64 // cache-line size (POWER9: 128 B)
	LocalBwBps     float64 // sustained local DRAM bandwidth across all channels
	LocalLatNs     float64 // local DRAM access latency (~80 ns)
	LocalDRAMBytes float64 // local DRAM capacity (1.2 TB)
	RemotePoolGB   float64 // remote pool capacity borrowed from the lender
}

// DefaultConfig returns the paper-calibrated node configuration.
func DefaultConfig() Config {
	return Config{
		Cores:     64,
		LLCBytes:  20e6,
		LineBytes: 128,
		// The paper quotes 120 Gbps for a single sustained DDR4 stream; the
		// AC922's eight channels sustain several times that in aggregate.
		LocalBwBps:     480e9,
		LocalLatNs:     80,
		LocalDRAMBytes: 1.2e12,
		RemotePoolGB:   512,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("memsys: Cores must be positive")
	case c.LLCBytes <= 0:
		return fmt.Errorf("memsys: LLCBytes must be positive")
	case c.LineBytes <= 0:
		return fmt.Errorf("memsys: LineBytes must be positive")
	case c.LocalBwBps <= 0:
		return fmt.Errorf("memsys: LocalBwBps must be positive")
	case c.LocalLatNs <= 0:
		return fmt.Errorf("memsys: LocalLatNs must be positive")
	}
	return nil
}

// Demand is one running application's full-speed resource appetite for a
// tick. The sensitivity fields come from the workload profile and control
// how strongly each contention source slows the application down.
type Demand struct {
	// CPUCores is the number of cores the app runs on at full speed.
	CPUCores float64
	// WorkingSetBytes is the LLC working set competing for cache occupancy.
	WorkingSetBytes float64
	// AccessRate is LLC loads per second at full speed.
	AccessRate float64
	// MissRatioIso is the LLC miss ratio when running alone.
	MissRatioIso float64
	// WriteFraction is the fraction of memory traffic that is stores.
	WriteFraction float64
	// Tier is where the heap lives.
	Tier Tier
	// CacheSens scales the direct slowdown from LLC-occupancy loss (0..1+).
	CacheSens float64
	// BwSens scales the slowdown from bandwidth starvation (0..1].
	BwSens float64
	// RemotePenaltyIso is the multiplicative slowdown the app experiences on
	// unloaded remote memory relative to local (Fig. 4 per-app values, ≥1).
	// Ignored for TierLocal.
	RemotePenaltyIso float64
}

// Outcome is the per-application result of a tick resolution.
type Outcome struct {
	// Slowdown is the total multiplicative slowdown (≥1) vs isolated local.
	Slowdown float64
	// CPUSlow, LLCSlow, BwSlow, LatSlow are the stacked components (R7).
	CPUSlow, LLCSlow, BwSlow, LatSlow float64
	// EffMissRatio is the contention-inflated LLC miss ratio.
	EffMissRatio float64
	// TrafficBps is the achieved memory traffic (B/s) after slowdown.
	TrafficBps float64
	// GrantedBps is the bandwidth grant on the app's tier (B/s).
	GrantedBps float64
}

// Sample is the system-wide counter snapshot produced each tick — exactly
// the seven events the Watcher monitors (paper §V-A, Table I).
type Sample struct {
	LLCLoads   float64 // LLC loads per second (local node)
	LLCMisses  float64 // LLC misses per second
	MemLoads   float64 // local memory-controller loads per second
	MemStores  float64 // local memory-controller stores per second
	RmtFlitsTx float64 // fabric flits transmitted per second
	RmtFlitsRx float64 // fabric flits received per second
	RmtLatency float64 // fabric channel latency, cycles
}

// Vector returns the sample as a 7-element slice ordered as in Table I.
func (s Sample) Vector() []float64 {
	return []float64{s.LLCLoads, s.LLCMisses, s.MemLoads, s.MemStores,
		s.RmtFlitsTx, s.RmtFlitsRx, s.RmtLatency}
}

// VectorInto writes the sample into dst (length ≥ NumMetrics) in Table I
// order — the allocation-free counterpart of Vector for hot monitoring
// paths that stage windows into reused buffers.
func (s Sample) VectorInto(dst []float64) {
	dst[0] = s.LLCLoads
	dst[1] = s.LLCMisses
	dst[2] = s.MemLoads
	dst[3] = s.MemStores
	dst[4] = s.RmtFlitsTx
	dst[5] = s.RmtFlitsRx
	dst[6] = s.RmtLatency
}

// MetricNames are the canonical names for Sample.Vector positions.
var MetricNames = []string{"LLCld", "LLCmis", "MEMld", "MEMst", "RMTtx", "RMTrx", "RMTlat"}

// NumMetrics is the dimensionality of a Sample vector.
const NumMetrics = 7

// Node is the borrower node plus its fabric link. Not safe for concurrent
// use; the cluster drives it from the simulation loop.
type Node struct {
	cfg    Config
	fabric *thymesis.Fabric
	last   Sample

	// Tick's working storage, kept so a steady population resolves without
	// allocating: the outcomes handed back, and per bandwidth pool the
	// demands with traffic, the applications they belong to and (local
	// pool; the fabric keeps its own) their grants.
	outs          []Outcome
	local, remote pool
	localAlloc    []float64
}

// pool is the tick's view of one bandwidth pool: each tenant's traffic
// demand and its index in the tick's demands.
type pool struct {
	demand []float64
	idx    []int
}

func (p *pool) add(bps float64, i int) {
	p.demand = append(p.demand, bps)
	p.idx = append(p.idx, i)
}

// NewNode builds a node from a node config and a fabric config.
// It panics on invalid configuration (a programming error).
func NewNode(cfg Config, fcfg thymesis.Config) *Node {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Node{cfg: cfg, fabric: thymesis.New(fcfg)}
}

// Config returns the node configuration.
func (n *Node) Config() Config { return n.cfg }

// Fabric exposes the underlying ThymesisFlow link (for traffic accounting).
func (n *Node) Fabric() *thymesis.Fabric { return n.fabric }

// LastSample returns the counter snapshot from the most recent tick.
// Before any tick it returns an idle sample (base fabric latency).
func (n *Node) LastSample() Sample {
	if n.last == (Sample{}) {
		return Sample{RmtLatency: n.fabric.Config().BaseLatencyCycles}
	}
	return n.last
}

// Tick resolves one tick of contention. demands holds one entry per running
// application; dt is the tick length in seconds. The returned outcomes are
// index-aligned with demands and are the node's own storage: they are valid
// until the next Tick.
func (n *Node) Tick(demands []Demand, dt float64) ([]Outcome, Sample) {
	if dt <= 0 {
		panic(fmt.Sprintf("memsys: non-positive dt %g", dt))
	}
	if cap(n.outs) < len(demands) {
		n.outs = make([]Outcome, len(demands))
	}
	outs := n.outs[:len(demands)]

	// --- CPU: equal-priority sharing of the core pool. ---
	var cpuDemand float64
	for _, d := range demands {
		cpuDemand += math.Max(d.CPUCores, 0)
	}
	cpuPressure := 1.0
	if cpuDemand > n.cfg.Cores {
		cpuPressure = cpuDemand / n.cfg.Cores
	}

	// --- LLC: proportional occupancy, miss-ratio inflation (R6). ---
	var totalWS float64
	for _, d := range demands {
		totalWS += math.Max(d.WorkingSetBytes, 0)
	}
	occupancyScale := 1.0
	if totalWS > n.cfg.LLCBytes {
		occupancyScale = n.cfg.LLCBytes / totalWS
	}

	// First pass: per-app effective miss ratios and full-speed traffic,
	// staged in the outcome (TrafficBps is the full-speed demand until the
	// compose pass divides it by the slowdown), and the two bandwidth pools:
	// local DRAM and the remote fabric.
	n.local.demand, n.local.idx = n.local.demand[:0], n.local.idx[:0]
	n.remote.demand, n.remote.idx = n.remote.demand[:0], n.remote.idx[:0]
	var readWeight, totalTraffic float64
	for i, d := range demands {
		deficit := 1 - occupancyScale // fraction of working set evicted
		effMiss := d.MissRatioIso + (1-d.MissRatioIso)*deficit
		effMiss = math.Min(math.Max(effMiss, 0), 1)
		// Local traffic grows with the inflated miss ratio (R6). Remote
		// traffic is issue-rate-bound: the ~900 ns access latency already
		// limits outstanding requests, so extra misses displace — rather
		// than add to — offered fabric bandwidth.
		missForTraffic := effMiss
		if d.Tier == TierRemote {
			missForTraffic = d.MissRatioIso
		}
		t := d.AccessRate * missForTraffic * n.cfg.LineBytes
		outs[i] = Outcome{EffMissRatio: effMiss, TrafficBps: t}
		if t <= 0 {
			continue
		}
		if d.Tier == TierRemote {
			n.remote.add(t, i)
		} else {
			n.local.add(t, i)
		}
		readWeight += t * (1 - d.WriteFraction)
		totalTraffic += t
	}
	readFraction := 0.7
	if totalTraffic > 0 {
		readFraction = readWeight / totalTraffic
	}

	if cap(n.localAlloc) < len(n.local.demand) {
		n.localAlloc = make([]float64, len(n.local.demand))
	}
	localAlloc := n.localAlloc[:len(n.local.demand)]
	thymesis.MaxMinFairInto(localAlloc, n.local.demand, n.cfg.LocalBwBps/8)
	fres := n.fabric.Tick(n.remote.demand, readFraction, dt)
	for k, i := range n.local.idx {
		outs[i].GrantedBps = localAlloc[k]
	}
	for k, i := range n.remote.idx {
		outs[i].GrantedBps = fres.Allocated[k]
	}

	// --- Compose per-app slowdowns (R7: multiplicative stacking). ---
	latInflation := fres.LatencyCycles / n.fabric.Config().BaseLatencyCycles
	for i, d := range demands {
		o := &outs[i]
		o.CPUSlow = 1
		if cpuPressure > 1 && d.CPUCores > 0 {
			o.CPUSlow = cpuPressure
		}

		deficitMiss := o.EffMissRatio - d.MissRatioIso
		o.LLCSlow = 1 + d.CacheSens*deficitMiss*4 // extra misses stall the core

		o.BwSlow = 1
		if t := o.TrafficBps; t > 0 {
			s := thymesis.Slowdown(t, o.GrantedBps)
			if math.IsInf(s, 1) {
				s = 100 // starved, but keep finite for the fluid model
			}
			o.BwSlow = 1 + d.BwSens*(s-1)
		}

		o.LatSlow = 1
		if d.Tier == TierRemote {
			pen := math.Max(d.RemotePenaltyIso, 1)
			o.LatSlow = 1 + (pen-1)*latInflation
		}

		o.Slowdown = o.CPUSlow * o.LLCSlow * o.BwSlow * o.LatSlow
		if o.Slowdown < 1 {
			o.Slowdown = 1
		}
		o.TrafficBps /= o.Slowdown
	}

	// --- System-wide counters (R3: remote traffic hits local counters). ---
	var smp Sample
	for i, d := range demands {
		rate := 1 / outs[i].Slowdown
		loads := d.AccessRate * rate
		misses := loads * outs[i].EffMissRatio
		smp.LLCLoads += loads
		smp.LLCMisses += misses
		lines := outs[i].TrafficBps / n.cfg.LineBytes
		smp.MemLoads += lines * (1 - d.WriteFraction)
		smp.MemStores += lines * d.WriteFraction
	}
	smp.RmtFlitsTx = fres.FlitsTx / dt
	smp.RmtFlitsRx = fres.FlitsRx / dt
	smp.RmtLatency = fres.LatencyCycles
	n.last = smp
	return outs, smp
}
