// Package thymesis models the ThymesisFlow disaggregated-memory fabric used
// by the Adrias paper's testbed: two POWER9 nodes whose FPGAs are connected
// back-to-back over a 100 Gbps serial link, with OpenCAPI bridging the CPU
// bus on each side. The model is analytic and calibrated to the published
// characterization (paper §IV-B, Fig. 2):
//
//   - R1 Bounded throughput: effective remote-memory throughput caps at
//     ≈2.5 Gbps, three orders of magnitude below local DDR4.
//   - R2 Communication latency: ≈350 cycles while the channel keeps up
//     (up to ~4 memory-bandwidth hogs), stepping to a ≈900-cycle plateau once
//     the FPGA back-pressure mechanism engages (≥8 hogs).
//   - R3 Local interference: every remote access still traverses the local
//     LLC and memory controllers, so remote traffic pollutes local counters.
//
// The fabric resolves per-tick bandwidth demands with max-min fairness and
// reports flit (32 B) counters and channel latency — exactly the telemetry
// the Watcher samples.
package thymesis

import (
	"fmt"
	"math"
)

// Config holds the calibrated fabric parameters. The defaults reproduce the
// paper's Fig. 2 shape.
type Config struct {
	// WireBps is the raw serial-link rate (100 Gbps). Only reported, never a
	// binding constraint: the effective cap below binds first.
	WireBps float64
	// CapBps is the effective remote-memory throughput cap (R1), ≈2.5 Gbps.
	CapBps float64
	// FlitBytes is the link flit size (32 B).
	FlitBytes float64
	// BaseLatencyCycles is the unloaded channel latency (R2), ≈350 cycles.
	BaseLatencyCycles float64
	// SatLatencyCycles is the back-pressure latency plateau (R2), ≈900 cycles.
	SatLatencyCycles float64
	// SatKnee is the utilization (offered/cap) at which back-pressure starts
	// delaying transactions, and SatPlateau the utilization at which latency
	// reaches the plateau. With per-hog demand ≈0.6 Gbps the paper's
	// 4-hog/8-hog breakpoints correspond to ≈1.0 and ≈1.9.
	SatKnee, SatPlateau float64
	// RemoteAccessNs is the unloaded remote-access latency seen by a CPU
	// load (≈900 ns vs ≈80 ns local DRAM; paper §V-B1).
	RemoteAccessNs float64
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		WireBps:           100e9,
		CapBps:            2.5e9,
		FlitBytes:         32,
		BaseLatencyCycles: 350,
		SatLatencyCycles:  900,
		SatKnee:           1.0,
		SatPlateau:        1.9,
		RemoteAccessNs:    900,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.CapBps <= 0:
		return fmt.Errorf("thymesis: CapBps must be positive, got %g", c.CapBps)
	case c.FlitBytes <= 0:
		return fmt.Errorf("thymesis: FlitBytes must be positive, got %g", c.FlitBytes)
	case c.BaseLatencyCycles <= 0 || c.SatLatencyCycles < c.BaseLatencyCycles:
		return fmt.Errorf("thymesis: latency range invalid (%g, %g)", c.BaseLatencyCycles, c.SatLatencyCycles)
	case c.SatPlateau <= c.SatKnee:
		return fmt.Errorf("thymesis: SatPlateau %g must exceed SatKnee %g", c.SatPlateau, c.SatKnee)
	}
	return nil
}

// Counters accumulates fabric telemetry. Flit counts follow the paper's
// convention: tx is flits sent toward the remote node (stores + read
// requests), rx is flits received (read responses).
type Counters struct {
	FlitsTx, FlitsRx float64
	BytesMoved       float64
	Ticks            int64
}

// TickResult is the outcome of resolving one tick of fabric demand.
type TickResult struct {
	// Allocated is the per-demand granted bandwidth (B/s), max-min fair.
	// It is the fabric's own storage, valid until its next Tick.
	Allocated []float64
	// DeliveredBps is the total granted bandwidth in bits per second.
	DeliveredBps float64
	// OfferedBps is the total requested bandwidth in bits per second.
	OfferedBps float64
	// Utilization is offered/cap (can exceed 1 when saturated).
	Utilization float64
	// LatencyCycles is the channel latency for this tick (R2 model).
	LatencyCycles float64
	// RemoteAccessNs is the effective per-access remote latency for this
	// tick: the unloaded 900 ns scaled by the channel-latency inflation.
	RemoteAccessNs float64
	// FlitsTx/FlitsRx are the flits moved during this tick.
	FlitsTx, FlitsRx float64
}

// Degradation is an externally imposed fabric impairment — the link states
// a fault injector (internal/faults) drives. The zero value means a healthy
// link. Scales leave the calibrated Config untouched, so clearing the
// degradation restores the paper's R1/R2 behaviour exactly.
type Degradation struct {
	// LatencyScale > 1 inflates the R2 channel latency (and with it the
	// effective remote-access latency) by that factor. Values ≤ 1 are
	// treated as no inflation.
	LatencyScale float64
	// BandwidthScale in (0,1) clamps the effective throughput cap (R1) to
	// that fraction. Values ≤ 0 or ≥ 1 are treated as no clamp.
	BandwidthScale float64
	// Down marks a link flap/partition: no bandwidth is granted at all and
	// the channel latency sits at the back-pressure plateau.
	Down bool
}

// Active reports whether the degradation impairs the link in any way.
func (d Degradation) Active() bool {
	return d.Down || d.LatencyScale > 1 || (d.BandwidthScale > 0 && d.BandwidthScale < 1)
}

// Fabric is the point-to-point ThymesisFlow link between the borrower and
// the lender node. Not safe for concurrent use.
type Fabric struct {
	cfg   Config
	ctrs  Counters
	last  TickResult
	deg   Degradation
	alloc []float64 // Tick's grants, reused from tick to tick
}

// New returns a Fabric with the given configuration.
// It panics if the configuration is invalid (a programming error).
func New(cfg Config) *Fabric {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Fabric{cfg: cfg}
}

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Counters returns the cumulative telemetry counters.
func (f *Fabric) Counters() Counters { return f.ctrs }

// Last returns the most recent tick result (zero value before any tick).
func (f *Fabric) Last() TickResult { return f.last }

// Reset clears the cumulative counters.
func (f *Fabric) Reset() { f.ctrs = Counters{}; f.last = TickResult{} }

// SetDegradation imposes (or, with the zero value, clears) a link
// impairment. It takes effect from the next Tick; the calibrated Config is
// never modified.
func (f *Fabric) SetDegradation(d Degradation) { f.deg = d }

// Degradation returns the currently imposed impairment.
func (f *Fabric) Degradation() Degradation { return f.deg }

// Degraded reports whether the link is currently impaired.
func (f *Fabric) Degraded() bool { return f.deg.Active() }

// MaxMinFair allocates capacity among demands with max-min fairness
// (progressive filling): no demand receives more than it asked for, unused
// share is redistributed, and the allocation is the unique max-min optimum.
// Negative demands are treated as zero. The returned slice has the same
// length as demands and sums to min(Σdemands, capacity) up to float error.
func MaxMinFair(demands []float64, capacity float64) []float64 {
	alloc := make([]float64, len(demands))
	MaxMinFairInto(alloc, demands, capacity)
	return alloc
}

// MaxMinFairInto is MaxMinFair writing into alloc (same length as demands,
// previous contents ignored) and allocating nothing. A positive demand is
// unsatisfied exactly while its grant is still zero, so the grants double
// as the working set and every round scans demands in index order.
func MaxMinFairInto(alloc, demands []float64, capacity float64) {
	unsat := 0
	for i, d := range demands {
		alloc[i] = 0
		if d > 0 {
			unsat++
		}
	}
	if capacity <= 0 {
		return
	}
	remaining := capacity
	for unsat > 0 && remaining > 1e-12 {
		share := remaining / float64(unsat)
		left := unsat
		for i, d := range demands {
			if d > 0 && alloc[i] == 0 && d <= share {
				alloc[i] = d
				remaining -= d
				left--
			}
		}
		if left == unsat {
			// Everyone needs at least the equal share: split evenly and stop.
			for i, d := range demands {
				if d > 0 && alloc[i] == 0 {
					alloc[i] = share
				}
			}
			return
		}
		unsat = left
	}
}

// latencyCycles implements the R2 back-pressure model: flat at base latency
// until the knee, then a smooth ramp to the saturation plateau.
func (c Config) latencyCycles(utilization float64) float64 {
	if utilization <= c.SatKnee {
		return c.BaseLatencyCycles
	}
	t := (utilization - c.SatKnee) / (c.SatPlateau - c.SatKnee)
	if t > 1 {
		t = 1
	}
	// Smoothstep gives the "step then plateau" shape of Fig. 2.
	s := t * t * (3 - 2*t)
	return c.BaseLatencyCycles + (c.SatLatencyCycles-c.BaseLatencyCycles)*s
}

// Tick resolves one simulation tick. demandsBytesPerSec holds each remote
// tenant's requested bandwidth in bytes/second; readFraction is the fraction
// of that traffic that is reads (responses arrive as rx flits; writes and
// read-requests leave as tx flits). dt is the tick length in seconds.
// The returned allocation grants each tenant its max-min fair share of the
// effective cap.
func (f *Fabric) Tick(demandsBytesPerSec []float64, readFraction, dt float64) TickResult {
	if dt <= 0 {
		panic(fmt.Sprintf("thymesis: non-positive dt %g", dt))
	}
	readFraction = math.Min(math.Max(readFraction, 0), 1)

	capBytes := f.cfg.CapBps / 8
	if s := f.deg.BandwidthScale; s > 0 && s < 1 {
		capBytes *= s
	}
	if f.deg.Down {
		capBytes = 0
	}
	if cap(f.alloc) < len(demandsBytesPerSec) {
		f.alloc = make([]float64, len(demandsBytesPerSec))
	}
	alloc := f.alloc[:len(demandsBytesPerSec)]
	MaxMinFairInto(alloc, demandsBytesPerSec, capBytes)

	var offered, delivered float64
	for i, d := range demandsBytesPerSec {
		if d > 0 {
			offered += d
		}
		delivered += alloc[i]
	}
	// Utilization is offered/cap against the (possibly clamped) effective
	// capacity. A downed link with pending demand saturates outright.
	var util float64
	switch {
	case capBytes > 0:
		util = offered / capBytes
	case offered > 0:
		util = math.Inf(1)
	}

	// Flit accounting: every byte moved crosses the wire as 32 B flits.
	// A read moves a small request flit out (tx) and data flits back (rx);
	// a write moves data flits out (tx). We fold the request overhead into
	// the data direction for simplicity: reads→rx, writes→tx.
	bytesMoved := delivered * dt
	rxBytes := bytesMoved * readFraction
	txBytes := bytesMoved - rxBytes
	flitsRx := rxBytes / f.cfg.FlitBytes
	flitsTx := txBytes / f.cfg.FlitBytes

	lat := f.cfg.latencyCycles(util)
	if s := f.deg.LatencyScale; s > 1 {
		lat *= s
	}
	res := TickResult{
		Allocated:      alloc,
		DeliveredBps:   delivered * 8,
		OfferedBps:     offered * 8,
		Utilization:    util,
		LatencyCycles:  lat,
		RemoteAccessNs: f.cfg.RemoteAccessNs * lat / f.cfg.BaseLatencyCycles,
		FlitsTx:        flitsTx,
		FlitsRx:        flitsRx,
	}

	f.ctrs.FlitsTx += flitsTx
	f.ctrs.FlitsRx += flitsRx
	f.ctrs.BytesMoved += bytesMoved
	f.ctrs.Ticks++
	f.last = res
	return res
}

// Slowdown returns the multiplicative slowdown experienced by a tenant whose
// remote-bandwidth demand was granted alloc out of demand bytes/s. A tenant
// that gets everything it asked for runs at full speed; one that is granted
// half its demand takes roughly twice as long on its memory-bound fraction.
func Slowdown(demand, alloc float64) float64 {
	if demand <= 0 {
		return 1
	}
	if alloc <= 0 {
		return math.Inf(1)
	}
	s := demand / alloc
	if s < 1 {
		return 1
	}
	return s
}
