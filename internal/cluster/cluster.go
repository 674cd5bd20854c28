// Package cluster assembles the simulated testbed: a borrower node
// (internal/memsys) with its ThymesisFlow link, a discrete-event engine
// (internal/sim), and the running workload instances. Each 1 s tick it
// gathers per-instance demands, resolves contention on the node, advances
// every instance under its reported slowdown, and records the system-wide
// counter sample — the stream the Watcher consumes.
package cluster

import (
	"fmt"

	"adrias/internal/memsys"
	"adrias/internal/randutil"
	"adrias/internal/sim"
	"adrias/internal/thymesis"
	"adrias/internal/workload"
)

// TickRecord is one entry of the cluster's monitoring history.
type TickRecord struct {
	Time    float64
	Sample  memsys.Sample
	Running int
}

// Config bundles the sub-model configurations.
type Config struct {
	Node       memsys.Config
	Fabric     thymesis.Config
	TickPeriod float64
	Seed       int64
	// KeepHistory controls whether per-tick samples are retained (on by
	// default through DefaultConfig); long head-less runs can disable it.
	KeepHistory bool
	// IDBase offsets instance IDs so every node in a rack hands out a
	// disjoint range (node i uses base i<<32) — the learner's outcome join
	// keys on instance ID and must stay unambiguous across nodes.
	IDBase int
}

// DefaultConfig returns the paper-calibrated testbed configuration.
func DefaultConfig() Config {
	return Config{
		Node:        memsys.DefaultConfig(),
		Fabric:      thymesis.DefaultConfig(),
		TickPeriod:  1,
		Seed:        1,
		KeepHistory: true,
	}
}

// Cluster is the simulated single-node disaggregated testbed.
// Not safe for concurrent use.
type Cluster struct {
	cfg     Config
	node    *memsys.Node
	engine  *sim.Engine
	rng     *randutil.Source
	nextID  int
	running []*workload.Instance
	done    []*workload.Instance
	history []TickRecord
	demands []memsys.Demand // tick's per-instance demands, reused

	usedLocalGB  float64
	usedRemoteGB float64
	// CapacityFallbacks counts deployments redirected because the requested
	// tier's memory pool was full.
	CapacityFallbacks int

	// OnComplete, if set, is invoked when an instance finishes.
	OnComplete func(*workload.Instance)
	// OnTick, if set, is invoked after each tick resolution.
	OnTick func(now float64, s memsys.Sample)
}

// New builds a cluster. Panics on invalid configuration.
func New(cfg Config) *Cluster {
	if cfg.TickPeriod <= 0 {
		panic(fmt.Sprintf("cluster: tick period %g must be positive", cfg.TickPeriod))
	}
	c := &Cluster{
		cfg:    cfg,
		node:   memsys.NewNode(cfg.Node, cfg.Fabric),
		engine: sim.NewEngine(cfg.TickPeriod),
		rng:    randutil.New(cfg.Seed),
		nextID: cfg.IDBase,
	}
	c.engine.OnTick(c.tick)
	return c
}

// Engine exposes the simulation engine for scheduling arrival events.
func (c *Cluster) Engine() *sim.Engine { return c.engine }

// Node exposes the borrower node model.
func (c *Cluster) Node() *memsys.Node { return c.node }

// Now returns the current simulation time.
func (c *Cluster) Now() float64 { return c.engine.Now() }

// Running returns the instances currently executing.
func (c *Cluster) Running() []*workload.Instance { return c.running }

// Completed returns all finished instances in completion order.
func (c *Cluster) Completed() []*workload.Instance { return c.done }

// History returns the per-tick monitoring records (empty when disabled).
func (c *Cluster) History() []TickRecord { return c.history }

// LastSample returns the most recent counter sample.
func (c *Cluster) LastSample() memsys.Sample { return c.node.LastSample() }

// CapacityLeftGB returns the unallocated memory of a tier's pool.
func (c *Cluster) CapacityLeftGB(tier memsys.Tier) float64 {
	if tier == memsys.TierRemote {
		return c.cfg.Node.RemotePoolGB - c.usedRemoteGB
	}
	return c.cfg.Node.LocalDRAMBytes/1e9 - c.usedLocalGB
}

// CanFit reports whether profile p's footprint fits the tier's pool.
func (c *Cluster) CanFit(p *workload.Profile, tier memsys.Tier) bool {
	return p.FootprintGB <= c.CapacityLeftGB(tier)
}

// Deploy starts profile p on the given tier immediately and returns the
// instance. If the tier's memory pool cannot hold the application's
// footprint, the deployment falls back to the other tier (counted in
// CapacityFallbacks); with both pools full it proceeds on local DRAM —
// the kernel's overcommit path, kept so the simulation never wedges.
func (c *Cluster) Deploy(p *workload.Profile, tier memsys.Tier) *workload.Instance {
	if !c.CanFit(p, tier) {
		other := memsys.TierLocal
		if tier == memsys.TierLocal {
			other = memsys.TierRemote
		}
		c.CapacityFallbacks++
		if c.CanFit(p, other) {
			tier = other
		} else {
			tier = memsys.TierLocal
		}
	}
	if tier == memsys.TierRemote {
		c.usedRemoteGB += p.FootprintGB
	} else {
		c.usedLocalGB += p.FootprintGB
	}
	c.nextID++
	in := workload.NewInstance(c.nextID, p, tier, c.engine.Now(),
		c.rng.Split(int64(c.nextID)))
	c.running = append(c.running, in)
	return in
}

// DeployAt schedules a deployment at absolute simulation time at. decide is
// called at arrival time to pick the tier (allowing the scheduler to see the
// then-current system state); the chosen instance is reported through the
// returned channel-free callback style: onDeployed may be nil.
func (c *Cluster) DeployAt(at float64, p *workload.Profile,
	decide func() memsys.Tier, onDeployed func(*workload.Instance)) {
	c.engine.Schedule(at, "deploy:"+p.Name, func(*sim.Engine) {
		in := c.Deploy(p, decide())
		if onDeployed != nil {
			onDeployed(in)
		}
	})
}

// Run advances the simulation until the given absolute time.
func (c *Cluster) Run(until float64) { c.engine.Run(until) }

// RunUntilDrained advances the simulation until all running instances have
// completed and no arrivals are pending, up to the maxTime safety horizon.
// It returns an error if the horizon is hit first.
func (c *Cluster) RunUntilDrained(maxTime float64) error {
	for c.engine.Now() < maxTime {
		if len(c.running) == 0 && c.engine.Pending() == 0 {
			return nil
		}
		// Advance in chunks so the loop can observe drain.
		next := c.engine.Now() + 60*c.cfg.TickPeriod
		if next > maxTime {
			next = maxTime
		}
		c.engine.Run(next)
	}
	if len(c.running) == 0 && c.engine.Pending() == 0 {
		return nil
	}
	return fmt.Errorf("cluster: not drained by t=%g (%d running, %d pending)",
		maxTime, len(c.running), c.engine.Pending())
}

// tick is the per-tick contention resolution.
func (c *Cluster) tick(now float64, dt float64) {
	c.demands = c.demands[:0]
	for _, in := range c.running {
		c.demands = append(c.demands, in.Demand())
	}
	outs, sample := c.node.Tick(c.demands, dt)

	alive := c.running[:0]
	for i, in := range c.running {
		finished := in.Advance(now, dt, outs[i].Slowdown)
		if finished {
			if in.Tier == memsys.TierRemote {
				c.usedRemoteGB -= in.Profile.FootprintGB
			} else {
				c.usedLocalGB -= in.Profile.FootprintGB
			}
			c.done = append(c.done, in)
			if c.OnComplete != nil {
				c.OnComplete(in)
			}
		} else {
			alive = append(alive, in)
		}
	}
	// Clear the tail so finished instances are not pinned by the backing array.
	for i := len(alive); i < len(c.running); i++ {
		c.running[i] = nil
	}
	c.running = alive

	if c.cfg.KeepHistory {
		c.history = append(c.history, TickRecord{Time: now, Sample: sample, Running: len(c.running)})
	}
	if c.OnTick != nil {
		c.OnTick(now, sample)
	}
}

// FabricBytesMoved returns the cumulative bytes moved over the ThymesisFlow
// link — the data-traffic metric of the paper's last evaluation paragraph.
func (c *Cluster) FabricBytesMoved() float64 {
	return c.node.Fabric().Counters().BytesMoved
}
