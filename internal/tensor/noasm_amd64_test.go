//go:build amd64

package tensor

import (
	"math"
	"os"
	"testing"

	"specml/internal/rng"
)

// TestNoasmOverride proves the SPECML_NOASM escape hatch for the tensor
// kernels: with the variable set, package init must have disabled the
// AVX2 path, so the run exercises the scalar float and int8 kernels.
func TestNoasmOverride(t *testing.T) {
	if os.Getenv("SPECML_NOASM") != "" {
		if hasAVX2 {
			t.Fatal("SPECML_NOASM is set but the AVX2 path is still enabled")
		}
		return
	}
	if hasAVX2 != detectAVX2() {
		t.Fatalf("hasAVX2 = %v but detectAVX2() = %v with SPECML_NOASM unset", hasAVX2, detectAVX2())
	}
}

// The int8 path contracts bit-identity between the AVX2 kernels and the
// scalar fallbacks (the NOASM CI job runs the same tests down the scalar
// path). These tests pin the two implementations against each other
// directly on an AVX2 host.

func TestGemmInt8AsmMatchesGeneric(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 (or SPECML_NOASM set)")
	}
	src := rng.New(31)
	for _, s := range []struct{ m, n, k int }{
		{1, 1, 16}, {2, 3, 16}, {5, 4, 32}, {7, 9, 48}, {3, 21, 160}, {32, 8, 512},
	} {
		a := make([]int8, s.m*s.k)
		b := make([]int8, s.n*s.k)
		fillCodes(src, a)
		fillCodes(src, b)
		got := make([]int32, s.m*s.n)
		want := make([]int32, s.m*s.n)
		for i := range got {
			got[i] = int32(src.Intn(9) - 4)
			want[i] = got[i]
		}
		gemmInt8NTAVX2(got, a, b, s.m, s.n, s.k)
		gemmInt8NTGeneric(want, a, b, s.m, s.n, s.k)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shape %+v element %d: asm %d vs generic %d", s, i, got[i], want[i])
			}
		}
	}
}

func TestQuantizeInt8AsmMatchesGeneric(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 (or SPECML_NOASM set)")
	}
	src := rng.New(32)
	for trial := 0; trial < 20; trial++ {
		n := 4 * (1 + src.Intn(64))
		x := make([]float64, n)
		for i := range x {
			switch src.Intn(10) {
			case 0:
				x[i] = 0
			case 1:
				x[i] = math.NaN()
			case 2:
				x[i] = src.Uniform(-1000, 1000) // forces both clamp sides
			default:
				x[i] = src.Uniform(-130, 130)
			}
		}
		inv := src.Uniform(0.1, 2)
		got := make([]int8, n)
		want := make([]int8, n)
		quantizeInt8AVX2(got, x, inv)
		quantizeInt8Generic(want, x, inv)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d element %d (x=%g inv=%g): asm %d vs generic %d",
					trial, i, x[i], inv, got[i], want[i])
			}
		}
	}
}

func TestMaxAbsAsmMatchesGeneric(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 (or SPECML_NOASM set)")
	}
	src := rng.New(33)
	for trial := 0; trial < 20; trial++ {
		n := 4 * (1 + src.Intn(64))
		x := make([]float64, n)
		for i := range x {
			x[i] = src.Uniform(-50, 50)
		}
		got := maxAbsAVX2(x)
		want := maxAbsGeneric(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: asm %g vs generic %g", trial, got, want)
		}
	}
}

// The float GEMM kernels contract bit-identity with the scalar kernels of
// gemm.go: the AVX2 entry points are called directly here (whatever the
// dispatch thresholds say) and compared bitwise against the generic ones.

// floatAsmShapes covers m<4, m%4≠0, n<8, n%8≠0, k=1, k- and n-blocking
// boundaries of the packed path, the Table-1 conv GEMMs at batch 2 (im2col
// rows x filters x fan-in: L1 k20s1, L3 k20s3, L5 k15s2, L7 k15s4) with
// the dense head, and the NMR monitor LSTM at batch 2 (input projection
// over 5 steps x 1700 features, recurrent step over 32 units).
var floatAsmShapes = []struct{ m, n, k int }{
	{1, 1, 1}, {1, 8, 1}, {2, 3, 5}, {3, 8, 7}, {4, 8, 1}, {4, 4, 4},
	{5, 9, 3}, {6, 7, 13}, {7, 16, 2}, {9, 17, 33}, {11, 24, 64},
	{13, 21, 300}, {4, 8, 257}, {8, 130, 20}, {5, 136, 513},
	{360, 25, 20}, {108, 25, 500}, {40, 25, 375}, {4, 15, 375}, {2, 8, 30},
	{10, 128, 1700}, {2, 128, 32},
}

// fillFloatEdge fills s with a mix of normal values and the IEEE edge
// cases: ±0, ±Inf, NaN and subnormals of both signs.
func fillFloatEdge(src *rng.Source, s []float64) {
	edge := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -3e-310,
	}
	for i := range s {
		if src.Float64() < 0.15 {
			s[i] = edge[src.Intn(len(edge))]
		} else {
			s[i] = src.Uniform(-2, 2)
		}
	}
}

// sameFloat is bitwise equality, except that any two NaNs match. When
// both operands of an add are NaN, x86 returns the first operand's
// payload, and which operand comes first in the compiled scalar kernels
// is the compiler's choice: `acc += a*b` keeps the accumulator first in
// gemmNTGeneric but the product first in gemmGeneric, and the order
// changes again under fuzzing instrumentation. Every non-NaN result, the
// sign of zero included, must match bit for bit.
func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// floatGemmAsmCheck runs one shape through the three AVX2 entry points and the
// generic kernels on identical copies, failing on the first differing bit.
func floatGemmAsmCheck(t *testing.T, src *rng.Source, m, n, k int, fill func(*rng.Source, []float64)) {
	t.Helper()
	a := make([]float64, m*k)
	bNT := make([]float64, n*k) // n x k for GemmNT; k x n for Gemm and GemmTN
	c := make([]float64, m*n)
	fill(src, a)
	fill(src, bNT)
	fill(src, c)
	run := func(name string, asm, generic func(c []float64)) {
		t.Helper()
		got := append([]float64(nil), c...)
		want := append([]float64(nil), c...)
		asm(got)
		generic(want)
		for i := range got {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("%s m=%d n=%d k=%d element %d: asm %g (%#x) vs scalar %g (%#x)",
					name, m, n, k, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	run("GemmNT", func(c []float64) { gemmNTPacked(c, a, bNT, m, n, k) },
		func(c []float64) { gemmNTGeneric(c, a, bNT, m, n, k) })
	run("Gemm", func(c []float64) { gemmRowsAVX2(c, a, bNT, m, n, k, k, 1) },
		func(c []float64) { gemmGeneric(c, a, bNT, m, n, k) })
	// GemmTN reads A as k x m: the same m*k values, transposed roles.
	run("GemmTN", func(c []float64) { gemmRowsAVX2(c, a, bNT, m, n, k, 1, m) },
		func(c []float64) { gemmTNGeneric(c, a, bNT, m, n, k) })
}

func TestGemmFloatAsmMatchesGeneric(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 (or SPECML_NOASM set)")
	}
	src := rng.New(34)
	for _, s := range floatAsmShapes {
		floatGemmAsmCheck(t, src, s.m, s.n, s.k, fillRand)
	}
}

func TestGemmFloatAsmMatchesGenericEdgeValues(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 (or SPECML_NOASM set)")
	}
	src := rng.New(35)
	for _, s := range floatAsmShapes {
		floatGemmAsmCheck(t, src, s.m, s.n, s.k, fillFloatEdge)
	}
	// All-zero operands: every product is ±0 and every A scale is skipped
	// by Gemm/GemmTN, so C must come back with its signs of zero intact.
	zeros := func(src *rng.Source, s []float64) {
		for i := range s {
			s[i] = math.Copysign(0, float64(src.Intn(2))-0.5)
		}
	}
	floatGemmAsmCheck(t, src, 9, 17, 33, zeros)
}

// FuzzGemmFloat is the differential harness for the float kernels: random
// shapes and operands, including the IEEE edge values, through the AVX2
// entry points and the scalar kernels, compared bit for bit.
func FuzzGemmFloat(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(1), uint8(1), false)
	f.Add(uint64(2), uint8(4), uint8(8), uint8(16), false)
	f.Add(uint64(3), uint8(7), uint8(25), uint8(20), true)
	f.Add(uint64(4), uint8(13), uint8(9), uint8(255), true)
	f.Add(uint64(5), uint8(40), uint8(15), uint8(200), false)
	f.Fuzz(func(t *testing.T, seed uint64, mm, nn, kk uint8, edge bool) {
		if !hasAVX2 {
			t.Skip("no AVX2 (or SPECML_NOASM set)")
		}
		m := 1 + int(mm)%48
		n := 1 + int(nn)%40
		k := 1 + int(kk)*3 // up to 766: crosses the 256-wide k blocks
		fill := fillRand
		if edge {
			fill = fillFloatEdge
		}
		floatGemmAsmCheck(t, rng.New(seed), m, n, k, fill)
	})
}
