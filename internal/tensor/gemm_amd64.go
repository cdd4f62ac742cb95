//go:build amd64

package tensor

import "specml/internal/tensor/pool"

// AVX2 float GEMM kernels, in gemm_amd64.s. Each keeps the per-element
// contract of gemm.go (one accumulator per C element, seeded from C,
// products added in ascending k with separate multiply and add roundings),
// so dispatch between them and the scalar kernels never changes a bit.

//go:noescape
func gemmNTKernel4x8(c *float64, ldc int, a *float64, lda int, b *float64, k int)

//go:noescape
func gemmNTKernel2x8(c *float64, ldc int, a *float64, lda int, b *float64, k int)

//go:noescape
func gemmNTKernel1x8(c *float64, a *float64, b *float64, k int)

//go:noescape
func packNTPanel8(dst *float64, src *float64, ld int, k int)

//go:noescape
func axpyRows(c *float64, n int, a *float64, as int, b *float64, bs int, k int)

const (
	// ntPackKC x ntPackNC bounds one packed block of B: 256 KiB, sized to
	// stay L2-resident while every 4-row stripe of A streams past it.
	ntPackKC = 256
	ntPackNC = 128 // a multiple of the 8-column panel width

	// ntPackMinRows is the row count from which packing B (n·k copies per
	// call) is amortized by the vector microkernel; a single row is faster
	// scalar. Set from BenchmarkGemmNTRowSweep (BENCH_kernels.json).
	ntPackMinRows = 2
)

// ntPackPool recycles packed-B blocks, so steady-state calls allocate
// nothing however many goroutines run GEMMs concurrently.
var ntPackPool pool.Pool

// gemm and gemmTN take the vector kernel whenever C has a 4-column block.
func gemm(c, a, b []float64, m, n, k int) {
	if hasAVX2 && n >= 4 {
		gemmRowsAVX2(c, a, b, m, n, k, k, 1)
		return
	}
	gemmGeneric(c, a, b, m, n, k)
}

func gemmTN(c, a, b []float64, m, n, k int) {
	if hasAVX2 && n >= 4 {
		gemmRowsAVX2(c, a, b, m, n, k, 1, m)
		return
	}
	gemmTNGeneric(c, a, b, m, n, k)
}

// gemmNT packs only when A has enough rows to amortize the packing and B
// fills at least one 8-column panel. Narrower outputs, such as the 4-wide
// NMR dense head, stay scalar: the packed kernel then fills half of each
// vector, and it won on a 32x4x752 GemmNT (2x) but lost on a 2x4x752 one
// (2.5x slower), so widening the rule needs its own m-sweep.
func gemmNT(c, a, b []float64, m, n, k int) {
	if hasAVX2 && m >= ntPackMinRows && n >= 8 {
		gemmNTPacked(c, a, b, m, n, k)
		return
	}
	gemmNTGeneric(c, a, b, m, n, k)
}

// gemmRowsAVX2 computes C += A·B for B row-major (k x n), where A(i, p) is
// a[i*ai + p*ap]: (ai, ap) = (k, 1) is Gemm, (1, m) is GemmTN. It walks
// the same ascending k-tiles as gemmGeneric; within a tile each C row is
// updated by axpyRows, which holds 16 columns in registers across the
// tile. The n%4 tail columns run the scalar loop.
func gemmRowsAVX2(c, a, b []float64, m, n, k, ai, ap int) {
	n4 := n &^ 3
	for p0 := 0; p0 < k; p0 += gemmKC {
		kc := min(gemmKC, k-p0)
		bt := b[p0*n : (p0+kc)*n]
		for i := 0; i < m; i++ {
			crow := c[i*n : (i+1)*n]
			at := a[i*ai+p0*ap : i*ai+(p0+kc-1)*ap+1]
			axpyRows(&crow[0], n4, &at[0], ap, &bt[0], n, kc)
			for j := n4; j < n; j++ {
				for p := 0; p < kc; p++ {
					if av := at[p*ap]; av != 0 {
						crow[j] += av * bt[p*n+j]
					}
				}
			}
		}
	}
}

// gemmNTPacked computes C += A·Bᵀ (B is n x k) by packing blocks of B
// into 8-column panels — panel row p holds B[j..j+8][p] contiguously — and
// running the 4x8 register-blocked microkernel over every 4-row stripe of
// A, with 2x8 and 1x8 kernels for the m%4 remainder rows. Blocks are taken in
// ascending k, and C carries each accumulator between blocks exactly.
func gemmNTPacked(c, a, b []float64, m, n, k int) {
	buf := ntPackPool.Get(ntPackKC * ntPackNC)
	var tile [4 * 8]float64 // C staging for a panel narrower than 8
	for p0 := 0; p0 < k; p0 += ntPackKC {
		kc := min(ntPackKC, k-p0)
		for j0 := 0; j0 < n; j0 += ntPackNC {
			nc := min(ntPackNC, n-j0)
			packNT(buf, b, k, j0, nc, p0, kc)
			for i := 0; i < m; {
				rows := min(4, m-i)
				if rows == 3 {
					rows = 2
				}
				for q := 0; q*8 < nc; q++ {
					j := j0 + 8*q
					w := min(8, n-j)
					if w == 8 {
						ntKernel(&c[i*n+j], n, &a[i*k+p0], k, &buf[q*kc*8], kc, rows)
						continue
					}
					for r := 0; r < rows; r++ {
						copy(tile[r*8:r*8+w], c[(i+r)*n+j:(i+r)*n+j+w])
					}
					ntKernel(&tile[0], 8, &a[i*k+p0], k, &buf[q*kc*8], kc, rows)
					for r := 0; r < rows; r++ {
						copy(c[(i+r)*n+j:(i+r)*n+j+w], tile[r*8:r*8+w])
					}
				}
				i += rows
			}
		}
	}
	ntPackPool.Put(buf)
}

// ntKernel runs the microkernel for a stripe of 4, 2 or 1 rows.
func ntKernel(c *float64, ldc int, a *float64, lda int, b *float64, k, rows int) {
	switch rows {
	case 4:
		gemmNTKernel4x8(c, ldc, a, lda, b, k)
	case 2:
		gemmNTKernel2x8(c, ldc, a, lda, b, k)
	default:
		gemmNTKernel1x8(c, a, b, k)
	}
}

// packNT copies B rows j0..j0+nc, columns p0..p0+kc, into dst as 8-row
// panels: dst[q*kc*8 + p*8 + r] = B[j0+8q+r][p0+p], zero past row nc.
func packNT(dst, b []float64, k, j0, nc, p0, kc int) {
	q := 0
	for ; 8*q+8 <= nc; q++ {
		panel := dst[q*kc*8 : (q+1)*kc*8]
		rows := b[(j0+8*q)*k+p0 : (j0+8*q+7)*k+p0+kc] // the eight source rows
		packNTPanel8(&panel[0], &rows[0], k, kc)
	}
	if 8*q >= nc {
		return
	}
	panel := dst[q*kc*8 : (q+1)*kc*8]
	clear(panel)
	for r := 0; 8*q+r < nc; r++ {
		at := (j0+8*q+r)*k + p0
		for p, v := range b[at : at+kc] {
			panel[p*8+r] = v
		}
	}
}
