// Package mathx provides small dense linear-algebra primitives used by the
// neural-network library and the statistics code. It is deliberately minimal:
// float64 vectors and row-major matrices with the handful of operations the
// rest of the repository needs, written for clarity and cache-friendly access.
package mathx

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Fill sets every element of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Zero sets every element of v to zero.
func (v Vector) Zero() { v.Fill(0) }

// Add sets v = v + w and returns v. Panics if lengths differ.
func (v Vector) Add(w Vector) Vector {
	checkLen(len(v), len(w))
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// Sub sets v = v - w and returns v.
func (v Vector) Sub(w Vector) Vector {
	checkLen(len(v), len(w))
	for i := range v {
		v[i] -= w[i]
	}
	return v
}

// Scale sets v = a*v and returns v.
func (v Vector) Scale(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// AddScaled sets v = v + a*w and returns v.
func (v Vector) AddScaled(a float64, w Vector) Vector {
	checkLen(len(v), len(w))
	for i := range v {
		v[i] += a * w[i]
	}
	return v
}

// MulElem sets v = v ⊙ w (element-wise product) and returns v.
func (v Vector) MulElem(w Vector) Vector {
	checkLen(len(v), len(w))
	for i := range v {
		v[i] *= w[i]
	}
	return v
}

// Dot returns the inner product of v and w.
func Dot(v, w Vector) float64 {
	checkLen(len(v), len(w))
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v Vector) float64 { return math.Sqrt(Dot(v, v)) }

// Sum returns the sum of the elements of v.
func Sum(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty vector.
func Mean(v Vector) float64 {
	if len(v) == 0 {
		return 0
	}
	return Sum(v) / float64(len(v))
}

// Variance returns the population variance of v, or 0 for len(v) < 2.
func Variance(v Vector) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// Std returns the population standard deviation of v.
func Std(v Vector) float64 { return math.Sqrt(Variance(v)) }

// Min returns the minimum element of v. Panics on an empty vector.
func Min(v Vector) float64 {
	if len(v) == 0 {
		panic("mathx: Min of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum element of v. Panics on an empty vector.
func Max(v Vector) float64 {
	if len(v) == 0 {
		panic("mathx: Max of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// ArgMax returns the index of the maximum element of v.
func ArgMax(v Vector) int {
	if len(v) == 0 {
		panic("mathx: ArgMax of empty vector")
	}
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("mathx: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// AddScaled sets m = m + a*w, element-wise. Panics on shape mismatch.
func (m *Matrix) AddScaled(a float64, w *Matrix) {
	if m.Rows != w.Rows || m.Cols != w.Cols {
		panic(fmt.Sprintf("mathx: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, w.Rows, w.Cols))
	}
	for i := range m.Data {
		m.Data[i] += a * w.Data[i]
	}
}

// Add sets m = m + w, element-wise, without the scale multiply of
// AddScaled — the hot path of gradient reduction across trainer replicas.
// Panics on shape mismatch.
func (m *Matrix) Add(w *Matrix) {
	if m.Rows != w.Rows || m.Cols != w.Cols {
		panic(fmt.Sprintf("mathx: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, w.Rows, w.Cols))
	}
	for i := range m.Data {
		m.Data[i] += w.Data[i]
	}
}

// CopyFrom overwrites m's elements with w's, reusing m's storage (no
// allocation, unlike Clone) — the weight-broadcast path of the parallel
// trainer. Panics on shape mismatch.
func (m *Matrix) CopyFrom(w *Matrix) {
	if m.Rows != w.Rows || m.Cols != w.Cols {
		panic(fmt.Sprintf("mathx: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, w.Rows, w.Cols))
	}
	copy(m.Data, w.Data)
}

// MulVec computes dst = m · v. dst must have length m.Rows and v length
// m.Cols. dst is returned for chaining. dst must not alias v.
func (m *Matrix) MulVec(dst, v Vector) Vector {
	checkLen(len(v), m.Cols)
	checkLen(len(dst), m.Rows)
	gemv(dst, m.Data, v)
	return dst
}

// MulVecT computes dst = mᵀ · v, i.e. dst[j] = Σ_i m[i][j] v[i].
// dst must have length m.Cols and v length m.Rows.
func (m *Matrix) MulVecT(dst, v Vector) Vector {
	checkLen(len(v), m.Rows)
	checkLen(len(dst), m.Cols)
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		vi := v[i]
		if vi == 0 {
			continue
		}
		for j, x := range row {
			dst[j] += x * vi
		}
	}
	return dst
}

// AddOuter accumulates m += a · u vᵀ (rank-one update); u has length m.Rows
// and v length m.Cols.
func (m *Matrix) AddOuter(a float64, u, v Vector) {
	checkLen(len(u), m.Rows)
	checkLen(len(v), m.Cols)
	for i := 0; i < m.Rows; i++ {
		ui := a * u[i]
		if ui == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range v {
			row[j] += ui * x
		}
	}
}

// Clamp returns x restricted to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Lerp linearly interpolates between a and b with weight t in [0, 1].
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }

func checkLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("mathx: length mismatch %d vs %d", a, b))
	}
}
