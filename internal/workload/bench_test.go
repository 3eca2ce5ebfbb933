package workload

import "testing"

// Content-generation microbenchmarks, tracked in the zrbench baseline. One
// op is one generated cacheline: LineAt pays the segment lookup on every
// call (the random-access path the execution drivers take); the cursor
// pays it once per walk and one boundary check per 1 KB chunk after that
// (the sequential path page fills and scans take). Both must stay
// allocation-free.

var benchSink [64]byte

func BenchmarkLineAt(b *testing.B) {
	p, _ := ByName("mcf")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Stride across chunks so every call lands mid-segment.
		benchSink = p.LineAt(1, uint64(i)*37, 0)
	}
}

func BenchmarkContentCursor(b *testing.B) {
	p, _ := ByName("mcf")
	b.ReportAllocs()
	cur := p.Cursor(1, 0, 0)
	for i := 0; i < b.N; i++ {
		benchSink = cur.Next()
	}
}
