package mathx

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// percentileBySort is the reference the selection must agree with: the
// sort-based Percentile this package shipped before.
func percentileBySort(v Vector, p float64) float64 {
	s := v.Clone()
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// sameFloat treats two NaNs as equal (and, like ==, -0 as +0: a sort does
// not order the two zeros either).
func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

var refPercentiles = []float64{0, 50, 99, 99.9, 100}

func checkAgainstSort(t *testing.T, name string, v Vector) {
	t.Helper()
	orig := v.Clone()
	for _, p := range refPercentiles {
		if got, want := Percentile(v, p), percentileBySort(v, p); !sameFloat(got, want) {
			t.Errorf("%s n=%d: Percentile(%v) = %v, sort reference %v", name, len(v), p, got, want)
		}
	}
	// Asked for together and out of order, the answers are the same.
	ps := []float64{99.9, 0, 99, 100, 50, 99}
	for i, got := range Quantiles(v, ps...) {
		if want := percentileBySort(v, ps[i]); !sameFloat(got, want) {
			t.Errorf("%s n=%d: Quantiles[%v] = %v, sort reference %v", name, len(v), ps[i], got, want)
		}
	}
	for i := range v {
		if !sameFloat(v[i], orig[i]) {
			t.Fatalf("%s n=%d: input modified at %d", name, len(v), i)
		}
	}
}

func TestPercentileMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{1, 2, 3, 100, 20000} {
		normal, equal, dups, asc, desc := NewVector(n), NewVector(n), NewVector(n), NewVector(n), NewVector(n)
		for i := 0; i < n; i++ {
			normal[i] = math.Exp(rng.NormFloat64())
			equal[i] = 4.25
			dups[i] = float64(rng.Intn(5))
			asc[i] = float64(i)
			desc[i] = float64(n - i)
		}
		checkAgainstSort(t, "log-normal", normal)
		checkAgainstSort(t, "all-equal", equal)
		checkAgainstSort(t, "duplicate-heavy", dups)
		checkAgainstSort(t, "ascending", asc)
		checkAgainstSort(t, "descending", desc)
	}
	for _, n := range []int{prefilterMinN, 20000} {
		for _, in := range tailInputs(rng, n) {
			for _, p := range []float64{93.75, 99, 99.9, 100} {
				if _, ok := tailOrderStats(in.v, p); p <= 99 && ok != in.prefiltered {
					t.Errorf("%s n=%d p=%v: prefilter used %v, want %v", in.name, n, p, ok, in.prefiltered)
				}
				if got, want := Percentile(in.v, p), percentileBySort(in.v, p); !sameFloat(got, want) {
					t.Errorf("%s n=%d: Percentile(%v) = %v, sort reference %v", in.name, n, p, got, want)
				}
			}
			ps := []float64{99.9, 100, 93.75, 99}
			for i, got := range Quantiles(in.v, ps...) {
				if want := percentileBySort(in.v, ps[i]); !sameFloat(got, want) {
					t.Errorf("%s n=%d: Quantiles[%v] = %v, sort reference %v", in.name, n, ps[i], got, want)
				}
			}
		}
	}
	// One element short of the prefilter, and a percentile too low for it.
	short := NewVector(prefilterMinN - 1)
	for i := range short {
		short[i] = math.Exp(rng.NormFloat64())
	}
	if _, ok := tailOrderStats(short, 99); ok {
		t.Errorf("prefilter used on %d elements", len(short))
	}
	if _, ok := tailOrderStats(append(short, 1), 90); ok {
		t.Errorf("prefilter used for p90")
	}
}

// tailInput is an input to the tail prefilter, and whether the prefilter
// should take it at p93.75 and p99 or fall back to the full copy. (Above
// p99 so few ranks are read that even the fooled sample keeps them all.)
type tailInput struct {
	name        string
	v           Vector
	prefiltered bool
}

// tailInputs are the prefilter's cases at length n: a log-normal tail;
// values on a coarse grid, so every rank read, the threshold among them,
// has ties; all-equal; a NaN off the sampled positions, seen only by the
// copying pass; and a sample that sees only the largest values, so the
// threshold drops ranks to be read.
func tailInputs(rng *rand.Rand, n int) []tailInput {
	normal, grid, equal, nan, fooled := NewVector(n), NewVector(n), NewVector(n), NewVector(n), NewVector(n)
	stride := n / prefilterSample
	for i := 0; i < n; i++ {
		normal[i] = math.Exp(rng.NormFloat64())
		grid[i] = math.Floor(4*math.Exp(rng.NormFloat64())) / 4
		equal[i] = 4.25
		nan[i] = rng.NormFloat64()
		fooled[i] = rng.Float64()
		if i%stride == 0 {
			fooled[i] += 1000
		}
	}
	nan[stride+1] = math.NaN()
	return []tailInput{
		{"log-normal", normal, true},
		{"tied-grid", grid, true},
		{"all-equal", equal, true},
		{"NaN-bearing", nan, false},
		{"sample-fooled", fooled, false},
	}
}

// sort.Float64s orders NaN before every number; the selection keeps that
// answer, so a NaN in the input moves the low ranks and not the tail.
func TestPercentileNaNOrdersFirst(t *testing.T) {
	nan := math.NaN()
	v := Vector{3, nan, 1, 2, nan, 5, 4}
	if got := Percentile(v, 0); got == got {
		t.Errorf("Percentile(0) = %v, want NaN (NaNs order first)", got)
	}
	if got := Percentile(v, 100); got != 5 {
		t.Errorf("Percentile(100) = %v, want 5", got)
	}
	if got := Percentile(v, 50); got != 2 { // sorted: NaN NaN 1 [2] 3 4 5
		t.Errorf("Percentile(50) = %v, want 2", got)
	}
	if got := Percentile(v, 25); got == got { // rank 1.5: NaN·½ + 1·½
		t.Errorf("Percentile(25) = %v, want NaN", got)
	}
	rng := rand.New(rand.NewSource(16))
	big := NewVector(1000)
	for i := range big {
		big[i] = rng.NormFloat64()
		if rng.Intn(50) == 0 {
			big[i] = nan
		}
	}
	checkAgainstSort(t, "NaN-laced", big)
	checkAgainstSort(t, "all-NaN", Vector{nan, nan, nan})
}

// QuantilesMapped over the logs reads the same tail as Quantiles over the
// values whenever f is non-decreasing — what the LC latency reservoir
// relies on to exponentiate two samples instead of every one.
func TestQuantilesMappedMatchesMappingFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	logs, vals := NewVector(20000), NewVector(20000)
	for i := range logs {
		logs[i] = 0.3 + 0.45*rng.NormFloat64()
		vals[i] = math.Exp(logs[i])
	}
	got := QuantilesMapped(logs, math.Exp, 50, 99, 99.9)
	want := Quantiles(vals, 50, 99, 99.9)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("percentile %d: mapped %v, values %v", i, got[i], want[i])
		}
	}
}

// FuzzPercentile feeds arbitrary float bit patterns (NaNs, infinities,
// zeros of both signs, runs of duplicates) through the selection and the
// sort-based reference.
func FuzzPercentile(f *testing.F) {
	enc := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(enc(1), 50.0)
	f.Add(enc(2, 1), 99.0)
	f.Add(enc(3, 1, 2, 2, 2, 1, 3, 3), 99.9)
	f.Add(enc(math.NaN(), 1, math.Inf(1), -1, math.Inf(-1), 0), 75.0)
	f.Add(enc(5, 4, 3, 2, 1, 0, -1, -2, -3, -4, -5, -6, -7, -8, -9, -10, -11, -12, -13, -14), 33.3)
	f.Fuzz(func(t *testing.T, raw []byte, p float64) {
		if len(raw) < 8 || p != p {
			return
		}
		v := NewVector(len(raw) / 8)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		orig := v.Clone()
		if got, want := Percentile(v, p), percentileBySort(v, p); !sameFloat(got, want) {
			t.Fatalf("Percentile(%v, %v) = %v, sort reference %v", v, p, got, want)
		}
		q := Quantiles(v, p, 100-p)
		if want := percentileBySort(v, 100-p); !sameFloat(q[1], want) {
			t.Fatalf("Quantiles(%v, %v, %v)[1] = %v, sort reference %v", v, p, 100-p, q[1], want)
		}
		for i := range v {
			if !sameFloat(v[i], orig[i]) {
				t.Fatalf("input modified at %d", i)
			}
		}
	})
}
