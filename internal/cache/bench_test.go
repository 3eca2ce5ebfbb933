package cache

import (
	"testing"

	"zerorefresh/internal/workload"
)

// BenchmarkHierarchyAccess drives the Table II L1/L2 hierarchy with the
// load/store stream of a tpch-q5 core — the stream the execution drivers
// feed it, with its repeated touches, sequential runs, hot-set revisits
// and cold jumps over a 2.4 MB working set — so each op mixes L1 hits, L2
// hits, fills and dirty writebacks in the drivers' proportions. One op is
// one access; it must stay allocation-free.
func BenchmarkHierarchyAccess(b *testing.B) {
	prof, _ := workload.ByName("tpch-q5")
	gen := workload.NewAccessGen(prof, 1, 0)
	stream := make([]workload.Access, 1<<18)
	for i := range stream {
		stream[i] = gen.Next()
	}
	h := NewHierarchy()
	var traffic int64
	h.OnFill = func(uint64) { traffic++ }
	h.OnWriteback = func(uint64) { traffic++ }
	for _, a := range stream { // warm both levels
		h.Access(a.Addr, a.Write)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := stream[i&(len(stream)-1)]
		h.Access(a.Addr, a.Write)
	}
	if traffic == 0 {
		b.Fatal("no memory traffic")
	}
}
