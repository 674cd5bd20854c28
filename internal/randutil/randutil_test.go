package randutil

import (
	"math"
	"math/rand"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce same stream")
		}
	}
}

func TestSplitDecorrelates(t *testing.T) {
	parent := New(1)
	c1 := parent.Split(1)
	parent2 := New(1)
	c2 := parent2.Split(2)
	same := 0
	for i := 0; i < 50; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("children with different labels should diverge, %d/50 equal", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	c1 := New(7).Split(3)
	c2 := New(7).Split(3)
	for i := 0; i < 20; i++ {
		if c1.Int63() != c2.Int63() {
			t.Fatal("Split must be deterministic")
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		x := s.Uniform(2, 5)
		if x < 2 || x >= 5 {
			t.Fatalf("Uniform out of range: %v", x)
		}
	}
}

func TestUniformIntRange(t *testing.T) {
	s := New(4)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		x := s.UniformInt(5, 8)
		if x < 5 || x > 8 {
			t.Fatalf("UniformInt out of range: %v", x)
		}
		seen[x] = true
	}
	for v := 5; v <= 8; v++ {
		if !seen[v] {
			t.Errorf("UniformInt never produced %d", v)
		}
	}
}

func TestUniformIntPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("UniformInt(5,4) should panic")
		}
	}()
	New(1).UniformInt(5, 4)
}

func TestNormalMoments(t *testing.T) {
	s := New(5)
	n := 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		x := s.Normal(10, 2)
		sum += x
		sq += x * x
	}
	mean := sum / float64(n)
	std := math.Sqrt(sq/float64(n) - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("Normal mean = %v", mean)
	}
	if math.Abs(std-2) > 0.1 {
		t.Errorf("Normal std = %v", std)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(6)
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		x := s.Exponential(3)
		if x < 0 {
			t.Fatal("Exponential produced negative value")
		}
		sum += x
	}
	if m := sum / float64(n); math.Abs(m-3) > 0.15 {
		t.Errorf("Exponential mean = %v, want ~3", m)
	}
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exponential(0) should panic")
		}
	}()
	New(1).Exponential(0)
}

func TestBernoulli(t *testing.T) {
	s := New(8)
	if s.Bernoulli(0) {
		t.Error("Bernoulli(0) must be false")
	}
	if !s.Bernoulli(1) {
		t.Error("Bernoulli(1) must be true")
	}
	hits := 0
	n := 10000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.3) > 0.03 {
		t.Errorf("Bernoulli(0.3) rate = %v", p)
	}
}

func TestWeightedChoice(t *testing.T) {
	s := New(9)
	counts := [3]int{}
	n := 30000
	for i := 0; i < n; i++ {
		counts[s.WeightedChoice([]float64{1, 2, 1})]++
	}
	if math.Abs(float64(counts[1])/float64(n)-0.5) > 0.03 {
		t.Errorf("WeightedChoice middle share = %v", float64(counts[1])/float64(n))
	}
	// negative weights skipped
	idx := s.WeightedChoice([]float64{-1, 0, 5})
	if idx != 2 {
		t.Errorf("WeightedChoice should skip non-positive weights, got %d", idx)
	}
}

func TestWeightedChoicePanicsAllZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WeightedChoice with all-zero weights should panic")
		}
	}()
	New(1).WeightedChoice([]float64{0, 0})
}

func TestShuffleIsPermutation(t *testing.T) {
	s := New(10)
	idx := s.Shuffle(20)
	seen := make([]bool, 20)
	for _, i := range idx {
		if i < 0 || i >= 20 || seen[i] {
			t.Fatalf("Shuffle not a permutation: %v", idx)
		}
		seen[i] = true
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(11)
	// theta=0 degenerates to uniform
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[s.Zipf(4, 0)]++
	}
	for _, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("Zipf theta=0 not uniform: %v", counts)
			break
		}
	}
	// skewed: index 0 should dominate
	counts = make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[s.Zipf(10, 1.2)]++
	}
	if counts[0] <= counts[9] {
		t.Errorf("Zipf skew not monotone-ish: %v", counts)
	}
	if counts[0] < 2500 {
		t.Errorf("Zipf hot key too cold: %v", counts)
	}
}

func TestJitterRange(t *testing.T) {
	s := New(12)
	for i := 0; i < 1000; i++ {
		x := s.Jitter(100, 0.1)
		if x < 90 || x >= 110 {
			t.Fatalf("Jitter out of range: %v", x)
		}
	}
}

// eagerSplit is Split as it was when every Source seeded math/rand at
// construction: the reference the lazily seeded Source must reproduce.
func eagerSplit(parent *rand.Rand, label int64) *rand.Rand {
	z := uint64(parent.Int63()) + uint64(label)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// TestSplitLazyMatchesEager splits children off a parent — some sampled at
// once, some much later, some never — and checks each child's first 1 000
// draws and the parent's draws between and after the splits against
// eagerly seeded math/rand streams.
func TestSplitLazyMatchesEager(t *testing.T) {
	parent, ref := New(99), rand.New(rand.NewSource(99))
	var kids []*Source
	var refKids []*rand.Rand
	for label := int64(1); label <= 8; label++ {
		kids = append(kids, parent.Split(label))
		refKids = append(refKids, eagerSplit(ref, label))
		if label%3 == 0 { // the parent keeps drawing between splits
			if got, want := parent.Float64(), ref.Float64(); got != want {
				t.Fatalf("parent draw after split %d = %v, eager %v", label, got, want)
			}
		}
	}
	for k := len(kids) - 1; k >= 0; k -= 2 { // every other child, last first; the rest never draw
		for i := 0; i < 1000; i++ {
			var got, want float64
			switch i % 3 {
			case 0:
				got, want = kids[k].Normal(1, 2), 1+2*refKids[k].NormFloat64()
			case 1:
				got, want = float64(kids[k].Intn(i+1)), float64(refKids[k].Intn(i+1))
			default:
				got, want = kids[k].Float64(), refKids[k].Float64()
			}
			if got != want {
				t.Fatalf("child %d draw %d = %v, eager %v", k, i, got, want)
			}
		}
	}
	for i := 0; i < 1000; i++ {
		if got, want := parent.Int63(), ref.Int63(); got != want {
			t.Fatalf("parent draw %d after the splits = %v, eager %v", i, got, want)
		}
	}
	grand, refGrand := kids[0].Split(5), eagerSplit(refKids[0], 5)
	if got, want := grand.Int63(), refGrand.Int63(); got != want {
		t.Fatalf("grandchild of an unsampled child = %v, eager %v", got, want)
	}
}
