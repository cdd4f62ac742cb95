package tensor

import (
	"testing"

	"specml/internal/rng"
)

// Benchmark shapes mirror the serve hot path: a coalesced batch of 32
// spectra through the demo dense stack (199 -> 32), and the Table-1 MS
// convolution lowered by im2col (batch 32, 976 positions x 25-wide kernel
// against 20 filters collapses to one 31232 x 25 x 20 GEMM).

func benchMats(m, n, k int) (a, b, c []float64) {
	src := rng.New(99)
	a = make([]float64, m*k)
	b = make([]float64, k*n)
	c = make([]float64, m*n)
	fillRand(src, a)
	fillRand(src, b)
	return
}

func BenchmarkGemm32x199x32(b *testing.B) {
	m, n, k := 32, 32, 199
	am, bm, cm := benchMats(m, n, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(cm, am, bm, m, n, k)
	}
}

func BenchmarkGemmNTConvLowered(b *testing.B) {
	// batch 32 x outLen 976 rows, fanIn 25, 20 filters (MS CNN layer 1).
	m, n, k := 32*976, 20, 25
	am := make([]float64, m*k)
	bm := make([]float64, n*k)
	cm := make([]float64, m*n)
	src := rng.New(100)
	fillRand(src, am)
	fillRand(src, bm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmNT(cm, am, bm, m, n, k)
	}
}

func BenchmarkGemmTNWeightGrad(b *testing.B) {
	// dW += dYᵀ·X for the demo dense layer over a batch of 32.
	m, n, k := 32, 199, 32
	am := make([]float64, k*m)
	bm := make([]float64, k*n)
	cm := make([]float64, m*n)
	src := rng.New(101)
	fillRand(src, am)
	fillRand(src, bm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmTN(cm, am, bm, m, n, k)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	inLen, inCh, kernel, stride := 2000, 1, 25, 2
	outLen := (inLen-kernel)/stride + 1
	x := make([]float64, inLen*inCh)
	src := rng.New(102)
	fillRand(src, x)
	dst := make([]float64, outLen*kernel*inCh)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(dst, x, inLen, inCh, kernel, stride, outLen)
	}
}

// table1GemmShapes are the four Table-1 conv layers lowered by im2col at
// batch 2 — the coalesced batch size of the fleet-predict benchmark —
// named after their layer index in the model (rows = 2 x output
// positions, n = filters, k = kernel x input channels).
var table1GemmShapes = []struct {
	name    string
	m, n, k int
}{
	{"L1", 360, 25, 20},
	{"L3", 108, 25, 500},
	{"L5", 40, 25, 375},
	{"L7", 4, 15, 375},
}

// BenchmarkGemmNTTable1 pairs the dispatching GemmNT (the AVX2 packed
// kernel on an AVX2 host unless SPECML_NOASM is set) with the scalar
// kernel on each Table-1 conv shape.
func BenchmarkGemmNTTable1(b *testing.B) {
	for _, s := range table1GemmShapes {
		am, bm, cm := benchMats(s.m, s.n, s.k)
		for _, impl := range []struct {
			name string
			f    func(c, a, b []float64, m, n, k int)
		}{{"asm", GemmNT}, {"scalar", gemmNTGeneric}} {
			b.Run(s.name+"/impl="+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					impl.f(cm, am, bm, s.m, s.n, s.k)
				}
			})
		}
	}
}

// BenchmarkGemmTable1Backward pairs the dispatching Gemm and GemmTN with
// their scalar kernels on the backward GEMMs of the Table-1 L3 conv layer
// at batch 2: the input gradient dCol += dY·W (m=108 rows, n=500 fan-in,
// k=25 filters) and the weight gradient dW += dYᵀ·Col (m=25, n=500,
// k=108).
func BenchmarkGemmTable1Backward(b *testing.B) {
	for _, impl := range []struct {
		name   string
		nn, tn func(c, a, b []float64, m, n, k int)
	}{{"asm", Gemm, GemmTN}, {"scalar", gemmGeneric, gemmTNGeneric}} {
		am, bm, cm := benchMats(108, 500, 25)
		b.Run("L3/gemm/impl="+impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.nn(cm, am, bm, 108, 500, 25)
			}
		})
		am, bm, cm = benchMats(25, 500, 108)
		b.Run("L3/gemmTN/impl="+impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.tn(cm, am, bm, 25, 500, 108)
			}
		})
	}
}
