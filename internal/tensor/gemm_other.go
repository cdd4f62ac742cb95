//go:build !amd64

package tensor

func gemm(c, a, b []float64, m, n, k int) {
	gemmGeneric(c, a, b, m, n, k)
}

func gemmNT(c, a, b []float64, m, n, k int) {
	gemmNTGeneric(c, a, b, m, n, k)
}

func gemmTN(c, a, b []float64, m, n, k int) {
	gemmTNGeneric(c, a, b, m, n, k)
}
