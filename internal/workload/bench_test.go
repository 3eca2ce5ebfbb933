package workload

import "testing"

// Content-generation microbenchmarks, tracked in the zrbench baseline. One
// op is one generated cacheline: LineAt pays the segment lookup on every
// call; an Image pays it once, for a whole working set, when it is built
// (the random-access path the execution drivers take); the cursor pays it
// once per walk and one boundary check per 1 KB chunk after that (the
// sequential path page fills and scans take). All must stay
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

func BenchmarkImageLineAt(b *testing.B) {
	p, _ := ByName("mcf")
	lines := uint64(p.WorkingSetBytes) / 64
	im := p.Image(1, 0, lines)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Stride across the working set as the cache hierarchy's
		// fills and writebacks do.
		benchSink = im.LineAt(uint64(i)*37%lines, 0)
	}
}
