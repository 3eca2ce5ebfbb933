package core

import (
	"fmt"
	"testing"

	"zerorefresh/internal/workload"
)

// BenchmarkFillPageFromProfile measures one op = one page filled with
// profile content through the full write datapath, at the base 4 KB row
// and the largest Figure 18 row (8 KB). The fill streams lines from a
// stack cursor, so it must report 0 allocs/op: a per-fill line buffer
// coming back shows up here and fails the alloc gate.
func BenchmarkFillPageFromProfile(b *testing.B) {
	prof, _ := workload.ByName("mcf")
	for _, rowBytes := range []int{4096, 8192} {
		b.Run(fmt.Sprintf("%dKB", rowBytes/1024), func(b *testing.B) {
			cfg := DefaultConfig(2 << 20)
			cfg.RowBytes = rowBytes
			sys, err := NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			pages := sys.Pages()
			for p := 0; p < pages; p++ { // materialize every row first
				if err := sys.FillPageFromProfile(prof, p, 7, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.FillPageFromProfile(prof, i%pages, 7, uint64(i/pages)+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
