package workload

import (
	"fmt"
	"math"

	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/randutil"
)

// latSamplesPerTick is how many synthetic response-time samples an LC
// instance contributes to its reservoir each tick. The reservoir keeps tail
// estimation cheap while an instance serves millions of requests.
const latSamplesPerTick = 32

// maxLatSamples bounds the reservoir size per instance.
const maxLatSamples = 20000

// latFoldTicks bounds the pending log: once this many ticks await their
// draws they are drawn, and their samples exactly fill an empty reservoir.
const latFoldTicks = maxLatSamples / latSamplesPerTick

// Instance is a running deployment of a Profile on a node.
// It is driven by the cluster: each tick the cluster asks for its Demand,
// resolves contention, and calls Advance with the resulting slowdown.
type Instance struct {
	ID      int
	Profile *Profile
	Tier    memsys.Tier

	StartAt float64 // simulation time of deployment
	DoneAt  float64 // simulation time of completion (valid once Done)

	workLeft   float64 // BE/Interference: remaining isolated-local seconds
	opsLeft    float64 // LC: remaining requests
	opsServed  float64
	done       bool
	loadFactor float64 // LC: offered load scale (1 = profile target)

	// latReservoir samples the logarithms of the response times: drawing
	// one needs no exp, and only the order statistics TailLatencies reads
	// are ever exponentiated. A tick only logs its log-median in
	// latPending; the tick's samples are drawn later (drawPending), in
	// tick order, from rng, which nothing else reads. When they are drawn
	// therefore changes no draw.
	latReservoir mathx.Vector
	latPending   []float64
	latSeen      int64
	rng          *randutil.Source

	// LastSlowdown is the slowdown applied on the most recent tick
	// (1 before the first tick).
	LastSlowdown float64
}

// NewInstance deploys profile p on the given tier at simulation time now.
// rng drives the instance's synthetic latency sampling; each instance should
// get its own split stream.
func NewInstance(id int, p *Profile, tier memsys.Tier, now float64, rng *randutil.Source) *Instance {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	in := &Instance{
		ID:           id,
		Profile:      p,
		Tier:         tier,
		StartAt:      now,
		loadFactor:   1,
		rng:          rng,
		LastSlowdown: 1,
	}
	switch p.Class {
	case LatencyCritical:
		in.opsLeft = p.TotalOps
	default:
		in.workLeft = p.BaseExecSec
	}
	return in
}

// SetLoadFactor scales an LC instance's offered load (used by the Fig. 3
// client-count sweep). Factor 1 is the profile's target rate.
func (in *Instance) SetLoadFactor(f float64) {
	if f <= 0 {
		panic("workload: load factor must be positive")
	}
	in.loadFactor = f
}

// Done reports whether the instance has finished its work.
func (in *Instance) Done() bool { return in.done }

// Demand returns the instance's memsys demand for the current tick.
// A finished instance demands nothing.
func (in *Instance) Demand() memsys.Demand {
	if in.done {
		return memsys.Demand{Tier: in.Tier}
	}
	d := in.Profile.Demand(in.Tier)
	if in.Profile.Class == LatencyCritical && in.loadFactor != 1 {
		// Offered load scales the traffic demand, saturating at the
		// instance's capacity.
		scale := math.Min(in.loadFactor, in.Profile.MaxOpsPerSec/in.Profile.TargetOpsRate)
		d.AccessRate *= scale
	}
	return d
}

// effectiveSlowdown applies the class-level interference damping (R5: LC
// workloads are more resistant to interference than BE ones).
func (in *Instance) effectiveSlowdown(raw float64) float64 {
	if raw < 1 {
		raw = 1
	}
	return 1 + (raw-1)*in.Profile.InterfSens
}

// Advance integrates dt seconds of execution under the node-reported raw
// slowdown. It returns true when the instance completes during this tick.
func (in *Instance) Advance(now, dt, rawSlowdown float64) bool {
	if in.done {
		return false
	}
	if dt <= 0 {
		panic(fmt.Sprintf("workload: non-positive dt %g", dt))
	}
	s := in.effectiveSlowdown(rawSlowdown)
	in.LastSlowdown = s

	switch in.Profile.Class {
	case LatencyCritical:
		rate := in.serveRate(s)
		in.sampleLatencies(s, rate)
		served := rate * dt
		in.opsServed += served
		in.opsLeft -= served
		if in.opsLeft <= 0 {
			in.finish(now, dt, -in.opsLeft/rate)
		}
	default:
		progress := dt / s
		in.workLeft -= progress
		if in.workLeft <= 0 {
			in.finish(now, dt, -in.workLeft*s)
		}
	}
	return in.done
}

// finish marks completion. overshoot is the (simulated) time by which the
// work finished before the end of the tick, used to refine DoneAt.
func (in *Instance) finish(now, dt, overshoot float64) {
	in.done = true
	over := math.Min(math.Max(overshoot, 0), dt)
	in.DoneAt = now - over
	if in.DoneAt < in.StartAt {
		in.DoneAt = in.StartAt
	}
}

// serveRate is the achieved request rate of an LC instance under effective
// slowdown s: the closed-loop clients offer a constant load, and the server
// saturates at MaxOpsPerSec/s.
func (in *Instance) serveRate(s float64) float64 {
	offered := in.Profile.TargetOpsRate * in.loadFactor
	capacity := in.Profile.MaxOpsPerSec / s
	return math.Min(offered, capacity)
}

// sampleLatencies logs this tick's response-time distribution: log-normal
// around a median that grows with the effective slowdown, with queueing
// inflation as the offered load approaches capacity, plus the small
// unloaded remote delta (Fig. 3). Its samples are drawn by drawPending.
func (in *Instance) sampleLatencies(s, rate float64) {
	p := in.Profile
	utilization := rate * s / p.MaxOpsPerSec
	queue := 1 + 2*math.Pow(math.Min(utilization, 1), 3)
	median := p.BaseP50Ms * s * queue
	if in.Tier == memsys.TierRemote {
		median *= 1 + p.RemoteLatFrac
	}
	if in.latPending == nil {
		in.latPending = make([]float64, 0, latFoldTicks)
	}
	in.latPending = append(in.latPending, math.Log(median))
	if len(in.latPending) == latFoldTicks {
		in.drawPending()
	}
}

// drawPending draws latSamplesPerTick samples for every pending tick into
// the Algorithm-R reservoir, in tick order. The reservoir is allocated once,
// at its final size: full, unless the instance is done and will never fill
// it.
func (in *Instance) drawPending() {
	if len(in.latPending) == 0 {
		return
	}
	if in.latReservoir == nil {
		size := maxLatSamples
		if in.done {
			size = min(size, latSamplesPerTick*len(in.latPending))
		}
		in.latReservoir = make(mathx.Vector, 0, size)
	}
	res, seen, sigma := in.latReservoir, in.latSeen, in.Profile.LatSigma
	for _, mu := range in.latPending {
		for i := 0; i < latSamplesPerTick; i++ {
			x := in.rng.Normal(mu, sigma)
			seen++
			if len(res) < maxLatSamples {
				res = append(res, x)
			} else if j := in.rng.Intn(int(seen)); j < maxLatSamples {
				res[j] = x
			}
		}
	}
	in.latReservoir, in.latSeen = res, seen
	in.latPending = in.latPending[:0]
}

// ExecTime returns the wall-clock execution time. For a finished instance
// this is DoneAt-StartAt; for a running one it is the elapsed time so far.
func (in *Instance) ExecTime(now float64) float64 {
	if in.done {
		return in.DoneAt - in.StartAt
	}
	return now - in.StartAt
}

// OpsServed returns the number of requests an LC instance has served.
func (in *Instance) OpsServed() float64 { return in.opsServed }

// TailLatency returns the given response-time percentile (e.g. 99, 99.9) in
// milliseconds from the collected samples. It returns 0 if the instance has
// no samples (BE instances never have any).
func (in *Instance) TailLatency(pct float64) float64 {
	return in.TailLatencies(pct)[0]
}

// TailLatencies is TailLatency for several percentiles read off one
// partition of the samples. exp is increasing, so the sample of rank k is
// the exp of the rank-k logarithm, and the percentiles interpolate between
// the same two response times as if every sample had been exponentiated.
// A read first draws the pending ticks' samples, which moves no later draw.
func (in *Instance) TailLatencies(pcts ...float64) []float64 {
	in.drawPending()
	if len(in.latReservoir) == 0 {
		return make([]float64, len(pcts))
	}
	return mathx.QuantilesMapped(in.latReservoir, math.Exp, pcts...)
}

// LatencySampleCount returns the number of retained latency samples.
func (in *Instance) LatencySampleCount() int {
	in.drawPending()
	return len(in.latReservoir)
}
