package mathx

import (
	"math"
	"math/bits"
	"sort"
)

// Pearson returns the Pearson linear correlation coefficient between x and y.
// It returns 0 when either series has zero variance or the lengths differ
// from each other or are < 2.
func Pearson(x, y Vector) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// R2 returns the coefficient of determination of predictions pred against
// observations actual: 1 - SS_res/SS_tot. A perfect predictor scores 1;
// predicting the mean scores 0; worse-than-mean predictors score negative.
// If actual has zero variance the function returns 1 when predictions are
// exact and 0 otherwise.
func R2(actual, pred Vector) float64 {
	checkLen(len(actual), len(pred))
	if len(actual) == 0 {
		return 0
	}
	m := Mean(actual)
	var ssRes, ssTot float64
	for i := range actual {
		r := actual[i] - pred[i]
		ssRes += r * r
		d := actual[i] - m
		ssTot += d * d
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// MAE returns the mean absolute error between actual and pred.
func MAE(actual, pred Vector) float64 {
	checkLen(len(actual), len(pred))
	if len(actual) == 0 {
		return 0
	}
	var s float64
	for i := range actual {
		s += math.Abs(actual[i] - pred[i])
	}
	return s / float64(len(actual))
}

// RMSE returns the root mean squared error between actual and pred.
func RMSE(actual, pred Vector) float64 {
	checkLen(len(actual), len(pred))
	if len(actual) == 0 {
		return 0
	}
	var s float64
	for i := range actual {
		d := actual[i] - pred[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(actual)))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of v using linear
// interpolation between closest ranks. The input is not modified: a private
// copy is partitioned around the one or two order statistics read, and those
// are the values a full sort would leave at their ranks.
// Panics on an empty vector.
func Percentile(v Vector, p float64) float64 {
	if len(v) == 0 {
		panic("mathx: Percentile of empty vector")
	}
	o := newOrderStats(v, p)
	return o.percentile(p, nil)
}

// PercentileSorted is like Percentile but assumes v is already sorted
// ascending, avoiding the copy and the selection.
func PercentileSorted(v Vector, p float64) float64 {
	if len(v) == 0 {
		panic("mathx: PercentileSorted of empty vector")
	}
	return percentileSorted(v, p)
}

func percentileSorted(s Vector, p float64) float64 {
	o := orderStats{s: s, n: len(s), from: len(s)} // every rank already in place
	return o.percentile(p, nil)
}

// Median returns the 50th percentile of v.
func Median(v Vector) float64 { return Percentile(v, 50) }

// Quantiles returns the requested percentiles of v off one private copy.
func Quantiles(v Vector, ps ...float64) Vector { return QuantilesMapped(v, nil, ps...) }

// QuantilesMapped returns the requested percentiles of f applied to every
// element of v, for a non-decreasing f, calling f only on the order
// statistics read (rank k of v maps to rank k of the images). A nil f is the
// identity. The copy is partitioned in ascending order of p, so each
// percentile orders only what lies above the one before it, and it holds
// only the upper tail when every p is high (see newOrderStats).
func QuantilesMapped(v Vector, f func(float64) float64, ps ...float64) Vector {
	if len(v) == 0 {
		panic("mathx: Quantiles of empty vector")
	}
	out := make(Vector, len(ps))
	if len(ps) == 0 {
		return out
	}
	order := make([]int, len(ps))
	for i := range order {
		j := i
		for ; j > 0 && ps[order[j-1]] > ps[i]; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	o := newOrderStats(v, ps[order[0]])
	for _, i := range order {
		out[i] = o.percentile(ps[i], f)
	}
	return out
}

// orderStats reads order statistics of n elements in ascending rank order
// by selection off a private copy of those of rank off and above: s[:from]
// holds the from smallest of them, those at ranks already read in place.
// NaNs order first, as sort.Float64s has them.
type orderStats struct {
	s            Vector
	n, off, from int
}

// The tail prefilter: on at least prefilterMinN elements, a strided sample of
// prefilterSample of them picks a threshold prefilterSlack sample ranks below
// the lowest rank to be read, and only the elements at or above it are
// copied. It is used when that keeps at most 1/prefilterMaxShare of them.
const (
	prefilterMinN     = 2048
	prefilterSample   = 256
	prefilterSlack    = 8
	prefilterMaxShare = 8
)

// newOrderStats copies what reading percentiles of pmin and above needs: the
// elements at or above the prefilter's threshold, or, when the prefilter does
// not apply, all of them. A NaN, or a threshold that would drop a rank to be
// read, falls back to the full copy.
func newOrderStats(v Vector, pmin float64) orderStats {
	if o, ok := tailOrderStats(v, pmin); ok {
		return o
	}
	s := v.Clone()
	nan := 0
	for i, x := range s {
		if x != x {
			s[i], s[nan] = s[nan], x
			nan++
		}
	}
	return orderStats{s: s, n: len(s), from: nan}
}

// tailOrderStats is the prefilter. Every element it drops is below the
// threshold and every one it keeps is not, so the kept elements are exactly
// those of rank off = n − kept and above.
func tailOrderStats(v Vector, pmin float64) (orderStats, bool) {
	n := len(v)
	if n < prefilterMinN {
		return orderStats{}, false
	}
	lo := int(math.Floor(math.Min(math.Max(pmin, 0), 100) / 100 * float64(n-1)))
	j := lo*prefilterSample/n - prefilterSlack
	if j < prefilterSample-prefilterSample/prefilterMaxShare {
		return orderStats{}, false
	}
	var sample [prefilterSample]float64
	stride := n / prefilterSample
	for i := range sample {
		x := v[i*stride]
		if x != x {
			return orderStats{}, false
		}
		sample[i] = x
	}
	selectRank(sample[:], j)
	thr := sample[j]
	keep := make(Vector, 0, 2*(prefilterSample-j)*(stride+1))
	for _, x := range v {
		if x >= thr {
			keep = append(keep, x)
		} else if x != x {
			return orderStats{}, false
		}
	}
	off := n - len(keep)
	if off > lo {
		return orderStats{}, false
	}
	return orderStats{s: keep, n: n, off: off}, true
}

// at returns the element of rank k; ranks must not decrease between calls.
func (o *orderStats) at(k int) float64 {
	k -= o.off
	if k >= o.from {
		selectRank(o.s[o.from:], k-o.from)
		o.from = k + 1
	}
	return o.s[k]
}

// percentile interpolates linearly between the two ranks closest to the
// p-th percentile of f's images (f nil: of the elements themselves).
func (o *orderStats) percentile(p float64, f func(float64) float64) float64 {
	rank := math.Min(math.Max(p, 0), 100) / 100 * float64(o.n-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	a := o.at(lo)
	if f != nil {
		a = f(a)
	}
	if lo == hi {
		return a
	}
	b := o.at(hi)
	if f != nil {
		b = f(b)
	}
	frac := rank - float64(lo)
	return a*(1-frac) + b*frac
}

// selectRank partitions NaN-free s so that s[k] is the element a sort would
// put there, nothing before it is larger and nothing after it smaller
// (Hoare's quickselect, median-of-three pivots). Rank 0 of what is left is a
// single scan for the minimum — the upper neighbour of a rank just
// selected. Short ranges, and a range that keeps drawing bad pivots, are
// sorted outright.
func selectRank(s Vector, k int) {
	lo, hi := 0, len(s)-1
	for budget := 2 * bits.Len(uint(len(s))); lo < hi; budget-- {
		if k == lo {
			m := lo
			for i := lo + 1; i <= hi; i++ {
				if s[i] < s[m] {
					m = i
				}
			}
			s[lo], s[m] = s[m], s[lo]
			return
		}
		if hi-lo < 12 || budget == 0 {
			sort.Float64s(s[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for pivot < s[j] {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo..j] ≤ pivot ≤ s[i..hi], and anything between j and i equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// Summary holds basic distribution statistics.
type Summary struct {
	N                  int
	Mean, Std          float64
	Min, P25, P50, P75 float64
	P90, P99, P999     float64
	Max                float64
}

// Summarize computes a Summary of v. Panics on an empty vector.
func Summarize(v Vector) Summary {
	if len(v) == 0 {
		panic("mathx: Summarize of empty vector")
	}
	s := v.Clone()
	sort.Float64s(s)
	return Summary{
		N:    len(s),
		Mean: Mean(s),
		Std:  Std(s),
		Min:  s[0],
		P25:  percentileSorted(s, 25),
		P50:  percentileSorted(s, 50),
		P75:  percentileSorted(s, 75),
		P90:  percentileSorted(s, 90),
		P99:  percentileSorted(s, 99),
		P999: percentileSorted(s, 99.9),
		Max:  s[len(s)-1],
	}
}

// LinearFit returns the slope and intercept of the least-squares line
// y = slope*x + intercept. With fewer than two points or zero x-variance it
// returns (0, mean(y)).
func LinearFit(x, y Vector) (slope, intercept float64) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, Mean(y)
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx float64
	for i := range x {
		dx := x[i] - mx
		sxy += dx * (y[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return 0, my
	}
	slope = sxy / sxx
	return slope, my - slope*mx
}
