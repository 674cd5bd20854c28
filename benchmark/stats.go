package main

import (
	"math"
	"sort"
	"time"
)

// latencyLimit is the goodput deadline: a 200 with a valid body counts only
// when it arrives within this long of its (intended) send time.
const latencyLimit = 10 * time.Millisecond

// numSlices is how many equal slices the measured window is cut into. Every
// timing metric is the mean of the middle four slices (midmean), so one
// slice hit by a GC cycle or a scheduler hiccup moves nothing.
const numSlices = 6

// sample is one operation as the generator saw it.
type sample struct {
	at      time.Duration // intended send time, relative to the window start
	latency time.Duration // completion − intended send time
	ok      bool          // HTTP 200 with a valid body (any latency)
}

// good reports whether the sample counts toward goodput.
func (s sample) good() bool { return s.ok && s.latency <= latencyLimit }

// median returns the median of vs (mean of the middle pair for even
// lengths), 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// midmean is the mean of vs without its lowest and its highest value (the
// plain mean below three values). Over six slices it shrugs off one bad
// slice like the median does, but it does not jump when the slices fall
// into two modes: lone-dryrun's p99 sits on the knee of a 2 ms timer's
// tail, slices land at 2.75 or 3.45 ms, and the median of six flipped
// between the modes from run to run (spread 12-13 %).
func midmean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// tailIndex picks the sorted index that reports the p-th percentile
// (0<p<1) of n samples, lowered until at least ten samples lie beyond it.
// It returns the index and the percentile that index actually stands for;
// ok is false when n is too small to leave ten samples beyond anything.
func tailIndex(n int, p float64) (idx int, actual float64, ok bool) {
	const beyond = 10
	if n <= beyond {
		return 0, 0, false
	}
	idx = int(math.Ceil(p*float64(n))) - 1
	if max := n - beyond - 1; idx > max {
		idx = max
	}
	if idx < 0 {
		idx = 0
	}
	return idx, float64(idx+1) / float64(n), true
}

// bandMean is the mean of the sorted values within half a percentile either
// side of index i — the tail percentile read over a band, not off a single
// order statistic. lone-dryrun needs it: about 1 % of its requests catch a
// 2 ms timer that fires ~0.7 ms late, so the 99th percentile sits exactly on
// the step between two modes and a single order statistic read 2.75 ms in
// one run and 3.45 ms in the next (drift between sets of ten runs: 10 %).
// Averaged over the band the figure moves with the share of slow requests
// instead of flipping.
func bandMean(sorted []float64, i int) float64 {
	k := len(sorted) / 200
	lo, hi := i-k, i+k
	if lo < 0 {
		lo = 0
	}
	if hi > len(sorted)-1 {
		hi = len(sorted) - 1
	}
	var sum float64
	for _, v := range sorted[lo : hi+1] {
		sum += v
	}
	return sum / float64(hi-lo+1)
}

// sliceStats summarises one slice of the measured window.
type sliceStats struct {
	n       int
	p50Ms   float64
	p99Ms   float64 // bandMean around the tail percentile
	tailPct float64 // percentile p99Ms is centred on (≤ 0.99)
	goodput float64 // good operations per second
}

// summariseSlice computes one slice's figures over its samples; seconds is
// the slice's length.
func summariseSlice(samples []sample, seconds float64) sliceStats {
	st := sliceStats{n: len(samples)}
	if len(samples) == 0 {
		return st
	}
	lat := make([]float64, 0, len(samples))
	good := 0
	for _, s := range samples {
		lat = append(lat, float64(s.latency)/float64(time.Millisecond))
		if s.good() {
			good++
		}
	}
	sort.Float64s(lat)
	st.p50Ms = lat[(len(lat)-1)/2]
	if i, pct, ok := tailIndex(len(lat), 0.99); ok {
		st.p99Ms, st.tailPct = bandMean(lat, i), pct
	} else {
		st.p99Ms, st.tailPct = lat[len(lat)-1], 1
	}
	st.goodput = float64(good) / seconds
	return st
}

// windowStats is the measured window: its slices and the midmeans over them.
type windowStats struct {
	slices    []sliceStats
	attempted int
	failed    int
	late      int // ok but beyond the latency limit
	p50Ms     float64
	p99Ms     float64
	tailPct   float64
	goodput   float64
}

// aggregate buckets samples into numSlices equal slices of a window that is
// `window` long (by intended send time) and takes the midmean over the
// slices of each figure. Samples outside [0, window) are ignored.
func aggregate(samples []sample, window time.Duration) windowStats {
	buckets := make([][]sample, numSlices)
	width := window / numSlices
	var ws windowStats
	for _, s := range samples {
		if s.at < 0 || s.at >= window {
			continue
		}
		i := int(s.at / width)
		if i >= numSlices {
			i = numSlices - 1
		}
		buckets[i] = append(buckets[i], s)
		ws.attempted++
		switch {
		case !s.ok:
			ws.failed++
		case !s.good():
			ws.late++
		}
	}
	for _, b := range buckets {
		ws.slices = append(ws.slices, summariseSlice(b, width.Seconds()))
	}
	ws.fold()
	return ws
}

// fold sets the window's figures from its slices: the midmean of each, and
// the lowest tail percentile any slice had to fall back to.
func (ws *windowStats) fold() {
	var p50s, p99s, goods []float64
	ws.tailPct = 1
	for _, st := range ws.slices {
		p50s, p99s, goods = append(p50s, st.p50Ms), append(p99s, st.p99Ms), append(goods, st.goodput)
		if st.tailPct < ws.tailPct {
			ws.tailPct = st.tailPct
		}
	}
	ws.p50Ms, ws.p99Ms, ws.goodput = midmean(p50s), midmean(p99s), midmean(goods)
}
