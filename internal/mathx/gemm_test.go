package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randMat fills a matrix of the given shape from rng.
func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// shape draws a bounded random dimension (1..12) from quick's generator.
func shape(rng *rand.Rand) int { return 1 + rng.Intn(12) }

// TestMulNTMatchesMulVecRows: every row of MulNT must be bit-identical to
// MulVec on that row — the per-sample contract of the batched forward.
func TestMulNTMatchesMulVecRows(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		B, K, N := shape(rng), shape(rng), shape(rng)
		a, b := randMat(rng, B, K), randMat(rng, N, K)
		dst := NewMatrix(B, N)
		MulNT(dst, a, b)
		want := NewVector(N)
		for i := 0; i < B; i++ {
			b.MulVec(want, a.Row(i))
			for j := 0; j < N; j++ {
				if dst.At(i, j) != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// scalarGemv is the row-at-a-time loop MulVec and MulNT's remainder rows ran
// before they shared the row-blocked gemv, kept as the reference: one
// accumulator per weight row, from zero, products added in ascending p.
func scalarGemv(dst, w, x []float64) {
	k := len(x)
	for j := range dst {
		var s float64
		for p, wv := range w[j*k : (j+1)*k] {
			s += wv * x[p]
		}
		dst[j] = s
	}
}

// sameBits is bit equality, with every NaN equal to every other: which
// operand's payload survives NaN+NaN is the hardware's choice of operand
// order, not a property of the summation order.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestGemvBlockedMatchesScalar: row-blocking may change which dot products
// are in flight together, never the order of additions inside one. Any
// reassociation (pairwise sums, two accumulators per row, a descending
// walk) moves low bits of Gaussian dot products and fails here.
func TestGemvBlockedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	special := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, math.MaxFloat64, 1e-300,
	}
	fill := func(v []float64, specials bool) {
		for i := range v {
			v[i] = rng.NormFloat64() * math.Exp(8*rng.NormFloat64())
			if specials && rng.Intn(6) == 0 {
				v[i] = special[rng.Intn(len(special))]
			}
		}
	}
	rowsSet := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 48, 64}
	colsSet := []int{1, 7, 19, 23, 32}
	for _, rows := range rowsSet {
		for _, cols := range colsSet {
			for trial := 0; trial < 4; trial++ {
				specials := trial >= 2
				w := NewMatrix(rows, cols)
				fill(w.Data, specials)

				x := NewVector(cols)
				fill(x, specials)
				want := NewVector(rows)
				scalarGemv(want, w.Data, x)
				got := w.MulVec(NewVector(rows), x)
				for j := range want {
					if !sameBits(got[j], want[j]) {
						t.Fatalf("MulVec %dx%d trial %d row %d: %x, scalar loop %x",
							rows, cols, trial, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
					}
				}

				for _, B := range []int{1, 2, 3, 5} {
					a := NewMatrix(B, cols)
					fill(a.Data, specials)
					dst := NewMatrix(B, rows)
					MulNT(dst, a, w)
					for i := 0; i < B; i++ {
						scalarGemv(want, w.Data, a.Row(i))
						for j := range want {
							if !sameBits(dst.At(i, j), want[j]) {
								t.Fatalf("MulNT B=%d %dx%d trial %d sample %d row %d: %x, scalar loop %x",
									B, rows, cols, trial, i, j, math.Float64bits(dst.At(i, j)), math.Float64bits(want[j]))
							}
						}
					}
				}
			}
		}
	}
}

// TestMulNNMatchesMulVecTRows: every row of MulNN(dst, a, b) must be
// bit-identical to MulVecT of b with that row of a — the batched backward
// dX = dY·W contract.
func TestMulNNMatchesMulVecTRows(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		B, K, N := shape(rng), shape(rng), shape(rng)
		a, b := randMat(rng, B, K), randMat(rng, K, N)
		// Sprinkle exact zeros so the zero-skip path is exercised.
		for i := range a.Data {
			if rng.Intn(4) == 0 {
				a.Data[i] = 0
			}
		}
		dst := NewMatrix(B, N)
		MulNN(dst, a, b)
		want := NewVector(N)
		for i := 0; i < B; i++ {
			b.MulVecT(want, a.Row(i))
			for j := 0; j < N; j++ {
				if dst.At(i, j) != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMulNNMatchesNaiveGemm: MulNN against the textbook triple loop with the
// same ascending-k accumulation — exact equality, no tolerance.
func TestMulNNMatchesNaiveGemm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		M, K, N := shape(rng), shape(rng), shape(rng)
		a, b := randMat(rng, M, K), randMat(rng, K, N)
		dst := NewMatrix(M, N)
		MulNN(dst, a, b)
		for i := 0; i < M; i++ {
			for j := 0; j < N; j++ {
				var s float64
				for k := 0; k < K; k++ {
					s += a.At(i, k) * b.At(k, j)
				}
				if dst.At(i, j) != s {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAddMulTNMatchesAddOuterSequence: AddMulTN must be bit-identical to a
// sample-ordered sequence of AddOuter rank-one updates — the batched weight
// gradient contract.
func TestAddMulTNMatchesAddOuterSequence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		B, R, C := shape(rng), shape(rng), shape(rng)
		u, v := randMat(rng, B, R), randMat(rng, B, C)
		got := randMat(rng, R, C)
		want := got.Clone()
		alpha := rng.NormFloat64()
		AddMulTN(got, alpha, u, v)
		for i := 0; i < B; i++ {
			want.AddOuter(alpha, u.Row(i), v.Row(i))
		}
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAccumRowsAddRowBias: the fused row ops against their per-row vector
// equivalents.
func TestAccumRowsAddRowBias(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		B, C := shape(rng), shape(rng)
		m := randMat(rng, B, C)
		acc := randMat(rng, 1, C).Row(0)
		wantAcc := acc.Clone()
		AccumRows(acc, m)
		for i := 0; i < B; i++ {
			wantAcc.Add(m.Row(i))
		}
		for j := range acc {
			if acc[j] != wantAcc[j] {
				return false
			}
		}
		bias := randMat(rng, 1, C).Row(0)
		got := m.Clone()
		got.AddRowBias(bias)
		want := m.Clone()
		for i := 0; i < B; i++ {
			want.Row(i).Add(bias)
		}
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatrixScale(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, -2, 3, 0.5})
	m.Scale(2)
	want := []float64{2, -4, 6, 1}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("Scale: Data[%d] = %v, want %v", i, m.Data[i], want[i])
		}
	}
}

func TestSigmoidApplyOps(t *testing.T) {
	if got := Sigmoid(0); got != 0.5 {
		t.Errorf("Sigmoid(0) = %v", got)
	}
	if got := Sigmoid(1000); got != 1 {
		t.Errorf("Sigmoid(1000) = %v, want exact 1", got)
	}
	if got := Sigmoid(-1000); got != 1/(1+math.Exp(SigmoidClamp)) {
		t.Errorf("Sigmoid(-1000) = %v", got)
	}
	v := Vector{-2, -0.5, 0, 0.5, 2}
	s := v.Clone()
	ApplySigmoid(s)
	th := v.Clone()
	ApplyTanh(th)
	for i, x := range v {
		if s[i] != Sigmoid(x) {
			t.Errorf("ApplySigmoid[%d] = %v, want %v", i, s[i], Sigmoid(x))
		}
		if th[i] != math.Tanh(x) {
			t.Errorf("ApplyTanh[%d] = %v, want %v", i, th[i], math.Tanh(x))
		}
	}
}

func TestEnsureMatrixReuse(t *testing.T) {
	m := NewMatrix(4, 8)
	p := &m.Data[0]
	got := EnsureMatrix(m, 2, 16)
	if got != m || &got.Data[0] != p {
		t.Fatal("EnsureMatrix reallocated despite sufficient capacity")
	}
	if got.Rows != 2 || got.Cols != 16 || len(got.Data) != 32 {
		t.Fatalf("EnsureMatrix shape = %dx%d len %d", got.Rows, got.Cols, len(got.Data))
	}
	grown := EnsureMatrix(m, 8, 8)
	if grown == m {
		t.Fatal("EnsureMatrix reused undersized storage")
	}
	if nil2 := EnsureMatrix(nil, 3, 3); nil2 == nil || nil2.Rows != 3 {
		t.Fatal("EnsureMatrix(nil) must allocate")
	}
	ms := EnsureMatrices(nil, 3, 2, 2)
	if len(ms) != 3 {
		t.Fatalf("EnsureMatrices len = %d", len(ms))
	}
	keep := ms[0]
	ms = EnsureMatrices(ms, 2, 2, 2)
	if len(ms) != 2 || ms[0] != keep {
		t.Fatal("EnsureMatrices must reuse existing matrices")
	}
}

// BenchmarkGEMM times the batched forward kernel at a Dense-layer-like
// shape (B=64 samples through a 64×64 weight): the perf-regression guard
// for the batched tensor core. Steady state must not allocate.
func BenchmarkGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randMat(rng, 64, 64)
	w := randMat(rng, 64, 64)
	dst := NewMatrix(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulNT(dst, x, w)
	}
}

func BenchmarkGEMMBackwardAccum(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dy := randMat(rng, 64, 64)
	x := randMat(rng, 64, 64)
	g := NewMatrix(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddMulTN(g, 1, dy, x)
	}
}
