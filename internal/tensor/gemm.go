package tensor

import "fmt"

// Blocked GEMM kernels for the batched neural-network path. All three
// variants accumulate into C (C += ...) and preserve a strict per-element
// contract: every C element is produced by a single scalar accumulator that
// starts from the current C value and adds its k products in ascending k
// order. That contract is what makes the batched im2col+GEMM forward and
// backward passes bit-identical to the per-sample loops in internal/nn —
// tiling and register blocking only reorder *which* elements are computed
// when, never the addition sequence within one element.
//
// The kernels are written for the shapes the nn hot paths produce: A is a
// large activation (or im2col) block streamed row by row, B is a parameter
// matrix small enough to stay cache-resident across A's rows. On amd64
// hosts with AVX2 they dispatch to the vector kernels of gemm_amd64.s,
// which keep the same per-element contract; the scalar kernels below are
// the fallback and the reference those kernels are tested against.

// gemmKC is the k-tile size of Gemm: one B tile of gemmKC rows is reused
// across a whole stripe of A rows before the next tile is touched, keeping
// the streamed B traffic inside L1/L2 for large k.
const gemmKC = 256

// Gemm computes C += A*B for row-major A (m x k), B (k x n), C (m x n).
func Gemm(c, a, b []float64, m, n, k int) {
	if len(a) != m*k || len(b) != k*n || len(c) != m*n {
		panic(fmt.Sprintf("tensor: Gemm dimension mismatch (a %d, b %d, c %d for m=%d n=%d k=%d)",
			len(a), len(b), len(c), m, n, k))
	}
	if m == 0 || n == 0 || k == 0 {
		return
	}
	gemm(c, a, b, m, n, k)
}

// gemmGeneric is the portable scalar Gemm: the only implementation off
// amd64 and the SPECML_NOASM fallback on it.
func gemmGeneric(c, a, b []float64, m, n, k int) {
	// k-tiles ascending: element (i,j) receives its p-contributions in
	// ascending p order across tiles because C persists between tiles.
	for p0 := 0; p0 < k; p0 += gemmKC {
		p1 := p0 + gemmKC
		if p1 > k {
			p1 = k
		}
		for i := 0; i < m; i++ {
			arow := a[i*k : (i+1)*k]
			crow := c[i*n : (i+1)*n]
			for p := p0; p < p1; p++ {
				av := arow[p]
				if av == 0 {
					// Mirrors the zero-skip of the per-sample MatTVec (and
					// of the historical MatMul): a zero scale contributes
					// ±0 everywhere, and ReLU-sparse gradient blocks make
					// the skip worth a predictable branch.
					continue
				}
				brow := b[p*n : (p+1)*n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
}

// GemmNT computes C += A*Bᵀ for row-major A (m x k), B (n x k), C (m x n):
// C[i][j] is the dot product of A's row i with B's row j, accumulated in
// ascending k order starting from the incoming C value. This is the layout
// of every forward kernel in internal/nn (weights are stored row-major
// [out][in], i.e. already transposed for the dot-product form), and of the
// im2col convolution lowering.
func GemmNT(c, a, b []float64, m, n, k int) {
	if len(a) != m*k || len(b) != n*k || len(c) != m*n {
		panic(fmt.Sprintf("tensor: GemmNT dimension mismatch (a %d, b %d, c %d for m=%d n=%d k=%d)",
			len(a), len(b), len(c), m, n, k))
	}
	if m == 0 || n == 0 || k == 0 {
		return
	}
	gemmNT(c, a, b, m, n, k)
}

// gemmNTGeneric is the portable scalar GemmNT. B rows are register-blocked
// four at a time so each loaded A element feeds four accumulators.
func gemmNTGeneric(c, a, b []float64, m, n, k int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			acc0, acc1, acc2, acc3 := crow[j], crow[j+1], crow[j+2], crow[j+3]
			for p, av := range arow {
				acc0 += av * b0[p]
				acc1 += av * b1[p]
				acc2 += av * b2[p]
				acc3 += av * b3[p]
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = acc0, acc1, acc2, acc3
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			acc := crow[j]
			for p, av := range arow {
				acc += av * brow[p]
			}
			crow[j] = acc
		}
	}
}

// GemmTN computes C += Aᵀ*B for row-major A (k x m), B (k x n), C (m x n):
// the weight-gradient kernel dW += dYᵀ·X, where k runs over the batch (or
// batch x positions) dimension. Each C element receives its k contributions
// in ascending k order because the outer loop walks k while C acts as the
// accumulator; C (a parameter gradient) is small and stays cache-resident.
func GemmTN(c, a, b []float64, m, n, k int) {
	if len(a) != k*m || len(b) != k*n || len(c) != m*n {
		panic(fmt.Sprintf("tensor: GemmTN dimension mismatch (a %d, b %d, c %d for m=%d n=%d k=%d)",
			len(a), len(b), len(c), m, n, k))
	}
	if m == 0 || n == 0 || k == 0 {
		return
	}
	gemmTN(c, a, b, m, n, k)
}

// gemmTNGeneric is the portable scalar GemmTN.
func gemmTNGeneric(c, a, b []float64, m, n, k int) {
	for p := 0; p < k; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				// A zero row scale contributes av*brow[j] = ±0 to every
				// element; skipping it cannot change any finite sum (the
				// accumulators never hold -0: they start at a stored C value
				// produced by additions, and x + ±0 == x for x != -0).
				continue
			}
			crow := c[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// MatMulTo computes dst = A*B in place for row-major matrices A (m x k) and
// B (k x n); dst must be pre-shaped to (m x n) and is overwritten. It is
// the allocation-free core that MatMul delegates to.
func MatMulTo(dst, a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTo shape mismatch %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTo dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	dst.Zero()
	Gemm(dst.Data, a.Data, b.Data, m, n, k)
	return dst
}
