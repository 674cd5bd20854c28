// Batched (minibatch-matrix-at-a-time) kernels. The neural-network layers
// process B samples as the rows of a row-major matrix; these kernels give
// them GEMM forward/backward and the row-wise fused ops, written as blocked
// loops over contiguous rows so the per-sample accumulation order is exactly
// the one of the vector kernels (MulVec, MulVecT, AddOuter). That makes the
// batched paths bit-identical per sample to the sequential ones — the same
// reproducibility contract the data-parallel trainer's Workers≤1 path keeps.
package mathx

import "math"

// EnsureMatrix returns m reshaped to rows×cols, reusing the backing slice
// when its capacity allows and allocating otherwise — the scratch-arena
// primitive behind allocation-free steady-state batch inference. The
// element contents after a reshape are unspecified; callers overwrite them.
func EnsureMatrix(m *Matrix, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("mathx: negative matrix dimension")
	}
	n := rows * cols
	if m == nil || cap(m.Data) < n {
		return NewMatrix(rows, cols)
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:n]
	return m
}

// EnsureMatrices resizes a slice of scratch matrices to n entries of shape
// rows×cols, reusing both the slice and every matrix it already holds.
func EnsureMatrices(ms []*Matrix, n, rows, cols int) []*Matrix {
	if cap(ms) < n {
		grown := make([]*Matrix, n)
		copy(grown, ms)
		ms = grown
	}
	ms = ms[:n]
	for i := range ms {
		ms[i] = EnsureMatrix(ms[i], rows, cols)
	}
	return ms
}

// MulNT computes dst = a·bᵀ, i.e. dst[i][j] = Σ_k a[i][k]·b[j][k].
// Each dst element is the dot product of a row of a with a row of b,
// accumulated in ascending k — exactly MulVec applied to every row of a, so
// a batched Dense/LSTM forward (Y = X·Wᵀ) is bit-identical per sample to
// the vector path. dst must not alias a or b.
//
// Rows of a are processed four at a time: a single dot product is one
// serial FP-add dependency chain, but the four samples' accumulators are
// independent, so blocking turns the latency-bound GEMV into four pipelined
// chains per weight-row load — this is where the batch-inference speedup
// comes from. Each sample's own accumulation stays k-ascending, so the
// blocking never reassociates a sum. The rows left over (all of them when
// fewer than four samples arrive, as in single-application decides) go
// through gemv, which blocks over weight rows instead.
func MulNT(dst, a, b *Matrix) {
	checkLen(a.Cols, b.Cols)
	checkLen(dst.Rows, a.Rows)
	checkLen(dst.Cols, b.Rows)
	k, n := a.Cols, b.Rows
	i := 0
	for ; i+8 <= a.Rows; i += 8 {
		a0 := a.Data[i*k : i*k+k]
		a1 := a.Data[(i+1)*k : (i+1)*k+k]
		a2 := a.Data[(i+2)*k : (i+2)*k+k]
		a3 := a.Data[(i+3)*k : (i+3)*k+k]
		a4 := a.Data[(i+4)*k : (i+4)*k+k]
		a5 := a.Data[(i+5)*k : (i+5)*k+k]
		a6 := a.Data[(i+6)*k : (i+6)*k+k]
		a7 := a.Data[(i+7)*k : (i+7)*k+k]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : j*k+k]
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for p, w := range brow {
				s0 += a0[p] * w
				s1 += a1[p] * w
				s2 += a2[p] * w
				s3 += a3[p] * w
				s4 += a4[p] * w
				s5 += a5[p] * w
				s6 += a6[p] * w
				s7 += a7[p] * w
			}
			dst.Data[i*n+j] = s0
			dst.Data[(i+1)*n+j] = s1
			dst.Data[(i+2)*n+j] = s2
			dst.Data[(i+3)*n+j] = s3
			dst.Data[(i+4)*n+j] = s4
			dst.Data[(i+5)*n+j] = s5
			dst.Data[(i+6)*n+j] = s6
			dst.Data[(i+7)*n+j] = s7
		}
	}
	for ; i+4 <= a.Rows; i += 4 {
		a0 := a.Data[i*k : i*k+k]
		a1 := a.Data[(i+1)*k : (i+1)*k+k]
		a2 := a.Data[(i+2)*k : (i+2)*k+k]
		a3 := a.Data[(i+3)*k : (i+3)*k+k]
		d0 := dst.Data[i*n : i*n+n]
		d1 := dst.Data[(i+1)*n : (i+1)*n+n]
		d2 := dst.Data[(i+2)*n : (i+2)*n+n]
		d3 := dst.Data[(i+3)*n : (i+3)*n+n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : j*k+k]
			var s0, s1, s2, s3 float64
			for p, w := range brow {
				s0 += a0[p] * w
				s1 += a1[p] * w
				s2 += a2[p] * w
				s3 += a3[p] * w
			}
			d0[j], d1[j], d2[j], d3[j] = s0, s1, s2, s3
		}
	}
	for ; i < a.Rows; i++ {
		gemv(dst.Data[i*n:(i+1)*n], b.Data, a.Data[i*k:(i+1)*k])
	}
}

// gemv computes dst[j] = Σ_p w[j*k+p]·x[p] over the len(dst) rows of the
// row-major weight block w, k = len(x) — the one GEMV under Matrix.MulVec
// and under MulNT's rows past the last block of four. Four weight rows go
// per pass: a lone dot product is one serial FP-add dependency chain, four
// independent ones pipeline. Every accumulator still starts at zero and
// adds its products in ascending p, so each dst[j] is the same sequence of
// IEEE operations as a row-at-a-time loop — blocking changes which sums are
// in flight together, never the order inside one.
func gemv(dst, w, x []float64) {
	k, n := len(x), len(dst)
	j := 0
	for ; j+4 <= n; j += 4 {
		// Resliced to len(x) so the inner loop carries no bounds checks.
		w0 := w[j*k:][:len(x)]
		w1 := w[(j+1)*k:][:len(x)]
		w2 := w[(j+2)*k:][:len(x)]
		w3 := w[(j+3)*k:][:len(x)]
		var s0, s1, s2, s3 float64
		for p, v := range x {
			s0 += w0[p] * v
			s1 += w1[p] * v
			s2 += w2[p] * v
			s3 += w3[p] * v
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = s0, s1, s2, s3
	}
	for ; j < n; j++ {
		var s float64
		wj := w[j*k:][:len(x)]
		for p, v := range x {
			s += wj[p] * v
		}
		dst[j] = s
	}
}

// MulNN computes dst = a·b, i.e. dst[i][j] = Σ_k a[i][k]·b[k][j], walking k
// in ascending order per element and skipping zero a[i][k] terms — exactly
// MulVecT applied row-wise (the batched backward dX = dY·W, where MulVecT's
// dx = Wᵀ·dy transposes to a row-times-matrix product). dst must not alias
// a or b.
func MulNN(dst, a, b *Matrix) { MulNNFrom(dst, a, b, 0) }

// MulNNFrom is MulNN over the columns from onward only: dst[:, from:] =
// a·b[:, from:], every element summed as MulNN sums it, and dst[:, :from]
// left as it was.
func MulNNFrom(dst, a, b *Matrix, from int) {
	checkLen(a.Cols, b.Rows)
	checkLen(dst.Rows, a.Rows)
	checkLen(dst.Cols, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols+from : (i+1)*dst.Cols]
		clear(drow)
		for k, x := range arow {
			if x == 0 {
				continue
			}
			brow := b.Data[k*b.Cols+from : (k+1)*b.Cols]
			for j, y := range brow {
				drow[j] += x * y
			}
		}
	}
}

// AddMulTN accumulates dst += α·aᵀ·b sample by sample: for each row i of a
// and b (one sample), dst[k][j] += α·a[i][k]·b[i][j]. Sample-major order
// with the zero-term skip makes it exactly a sequence of AddOuter(α,
// a.Row(i), b.Row(i)) calls — the batched weight-gradient accumulation,
// bit-identical to per-sample backward passes run in row order.
func AddMulTN(dst *Matrix, alpha float64, a, b *Matrix) {
	checkLen(a.Rows, b.Rows)
	checkLen(dst.Rows, a.Cols)
	checkLen(dst.Cols, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		brow := b.Data[i*b.Cols : (i+1)*b.Cols]
		for k, u := range arow {
			uk := alpha * u
			if uk == 0 {
				continue
			}
			drow := dst.Data[k*dst.Cols : (k+1)*dst.Cols]
			for j, x := range brow {
				drow[j] += uk * x
			}
		}
	}
}

// AccumRows accumulates every row of m into dst in row order — the batched
// bias-gradient path, bit-identical to calling dst.Add(row) per sample.
func AccumRows(dst Vector, m *Matrix) {
	checkLen(len(dst), m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			dst[j] += x
		}
	}
}

// AddRowBias adds bias to every row of m — the fused batched add-bias op,
// bit-identical to row.Add(bias) per sample.
func (m *Matrix) AddRowBias(bias Vector) {
	checkLen(len(bias), m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, b := range bias {
			row[j] += b
		}
	}
}

// Scale multiplies every element of m by a (row-wise fused scale).
func (m *Matrix) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// SigmoidClamp bounds the pre-activation fed to the logistic function.
// Beyond ±36.7 the output already saturates to exactly 0 or 1 in float64;
// clamping there keeps math.Exp out of its overflow region, so extreme
// logits (diverging training, corrupt inputs) can never produce an Inf
// intermediate.
const SigmoidClamp = 40

// Sigmoid is the clamped logistic function shared by the sequential and
// batched LSTM gate kernels.
func Sigmoid(x float64) float64 {
	x = Clamp(x, -SigmoidClamp, SigmoidClamp)
	return 1 / (1 + math.Exp(-x))
}

// ApplySigmoid applies the clamped logistic element-wise in place.
func ApplySigmoid(v Vector) {
	for i, x := range v {
		v[i] = Sigmoid(x)
	}
}

// ApplyTanh applies tanh element-wise in place.
func ApplyTanh(v Vector) {
	for i, x := range v {
		v[i] = math.Tanh(x)
	}
}
