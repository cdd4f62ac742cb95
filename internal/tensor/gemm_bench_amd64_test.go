//go:build amd64

package tensor

import (
	"fmt"
	"testing"
)

// BenchmarkGemmNTRowSweep times the packed AVX2 GemmNT against the scalar
// kernel over the row count m, on the NMR monitor's LSTM input projection
// (n = 4 x 32 gates, k = 1700 features) and the last Table-1 conv layer
// (n = 15, k = 375). The smallest m at which packed wins on both sets
// ntPackMinRows.
func BenchmarkGemmNTRowSweep(b *testing.B) {
	if !hasAVX2 {
		b.Skip("no AVX2 (or SPECML_NOASM set)")
	}
	for _, s := range []struct {
		name string
		n, k int
	}{{"lstm", 128, 1700}, {"L7", 15, 375}} {
		for _, m := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
			am, bm, cm := benchMats(m, s.n, s.k)
			for _, impl := range []struct {
				name string
				f    func(c, a, b []float64, m, n, k int)
			}{{"packed", gemmNTPacked}, {"scalar", gemmNTGeneric}} {
				b.Run(fmt.Sprintf("%s/m=%d/impl=%s", s.name, m, impl.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						impl.f(cm, am, bm, m, s.n, s.k)
					}
				})
			}
		}
	}
}
