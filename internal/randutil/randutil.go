// Package randutil centralizes all randomness used by the simulator and the
// neural-network library. Every consumer receives an explicit *Source seeded
// from a parent, which makes each experiment reproducible bit-for-bit and
// lets independent subsystems draw from decorrelated streams.
package randutil

import (
	"math"
	"math/rand"
)

// Source is a seeded random stream. It wraps math/rand.Rand and adds the
// distributions the simulator needs. Source is not safe for concurrent use;
// derive per-goroutine children with Split.
type Source struct {
	seed int64
	gen  *rand.Rand // built from seed by the first draw
}

// New returns a Source seeded with seed. Seeding math/rand fills a 607-word
// table; that is left to the first draw, so a stream that is handed out and
// never sampled (every best-effort instance's) costs one small allocation.
// The stream is a function of the seed alone either way.
func New(seed int64) *Source {
	return &Source{seed: seed}
}

func (s *Source) rng() *rand.Rand {
	if s.gen == nil {
		s.gen = rand.New(rand.NewSource(s.seed))
	}
	return s.gen
}

// Split derives a child Source whose stream is a deterministic function of
// the parent state and the label. Children with different labels are
// decorrelated from each other and from the parent's subsequent draws.
func (s *Source) Split(label int64) *Source {
	// SplitMix64-style scramble of the parent's next value and the label.
	z := uint64(s.rng().Int63()) + uint64(label)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return New(int64(z))
}

// Float64 returns a uniform draw in [0, 1).
func (s *Source) Float64() float64 { return s.rng().Float64() }

// Intn returns a uniform draw in [0, n). Panics if n <= 0.
func (s *Source) Intn(n int) int { return s.rng().Intn(n) }

// Int63 returns a non-negative 63-bit draw.
func (s *Source) Int63() int64 { return s.rng().Int63() }

// Uniform returns a uniform draw in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng().Float64()
}

// UniformInt returns a uniform integer draw in [lo, hi] inclusive.
// Panics if hi < lo.
func (s *Source) UniformInt(lo, hi int) int {
	if hi < lo {
		panic("randutil: UniformInt with hi < lo")
	}
	return lo + s.rng().Intn(hi-lo+1)
}

// Normal returns a Gaussian draw with the given mean and standard deviation.
func (s *Source) Normal(mean, std float64) float64 {
	return mean + std*s.rng().NormFloat64()
}

// Exponential returns an exponential draw with the given mean (= 1/rate).
// Panics if mean <= 0.
func (s *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("randutil: Exponential with non-positive mean")
	}
	return s.rng().ExpFloat64() * mean
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng().Float64() < p
}

// Choice returns a uniformly random index in [0, n) — convenience alias of
// Intn that reads better at call sites selecting from a slice.
func (s *Source) Choice(n int) int { return s.Intn(n) }

// WeightedChoice returns an index drawn proportionally to weights.
// Non-positive weights are treated as zero. Panics if all weights are
// non-positive or the slice is empty.
func (s *Source) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("randutil: WeightedChoice with no positive weight")
	}
	x := s.rng().Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	// Floating-point slack: return last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("unreachable")
}

// Shuffle permutes idx := [0, n) uniformly and returns it.
func (s *Source) Shuffle(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	s.rng().Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}

// Perm is an alias for Shuffle kept for call-site readability.
func (s *Source) Perm(n int) []int { return s.Shuffle(n) }

// Zipf returns a draw in [0, n) following a Zipf distribution with skew
// parameter theta > 1 is not required; theta=0 degenerates to uniform.
// Used to model hot/cold key popularity in the LC workloads.
func (s *Source) Zipf(n int, theta float64) int {
	if n <= 0 {
		panic("randutil: Zipf with n <= 0")
	}
	if theta <= 0 {
		return s.Intn(n)
	}
	// Inverse-CDF on the generalized harmonic weights. O(n) per draw is fine
	// for the small n used by the workload models; callers needing speed
	// should precompute a Sampler.
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / math.Pow(float64(i), theta)
	}
	x := s.rng().Float64() * h
	var c float64
	for i := 1; i <= n; i++ {
		c += 1 / math.Pow(float64(i), theta)
		if x < c {
			return i - 1
		}
	}
	return n - 1
}

// Jitter returns base scaled by a uniform factor in [1-eps, 1+eps].
func (s *Source) Jitter(base, eps float64) float64 {
	return base * s.Uniform(1-eps, 1+eps)
}
