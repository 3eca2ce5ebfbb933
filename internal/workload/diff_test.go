package workload

import "testing"

// Differential tests: the production content path against the reference
// oracle (oracle_test.go) for every profile. Starts are chosen at and
// around the forced segment boundaries, where the cursor's one backward
// walk is longest or shortest, and runs cross several chunks.

// forcedEdgeChunks are chunk indices at and around forced boundaries.
var forcedEdgeChunks = []uint64{0, 1, 255, 256, 257, 511, 512, 4093, 4095, 4096}

// edgeStarts are global line indices at, just before and just after the
// first line of each forced-edge chunk.
func edgeStarts() []uint64 {
	var out []uint64
	for _, ch := range forcedEdgeChunks {
		first := ch * ChunkLines
		if first > 0 {
			out = append(out, first-1)
		}
		out = append(out, first, first+1, first+ChunkLines-1)
	}
	return out
}

func TestLineAtMatchesOracle(t *testing.T) {
	for _, p := range Benchmarks() {
		for _, seed := range []uint64{0, 1, 7} {
			for _, start := range edgeStarts() {
				for _, v := range []uint64{0, 3} {
					if got, want := p.LineAt(seed, start, v), p.oracleLineAt(seed, start, v); got != want {
						t.Fatalf("%s seed %d line %d v%d: LineAt diverged from the oracle", p.Name, seed, start, v)
					}
				}
			}
		}
	}
}

func TestClassOfChunkMatchesOracle(t *testing.T) {
	for _, p := range Benchmarks() {
		for _, seed := range []uint64{0, 1, 7} {
			for ch := uint64(0); ch < 600; ch += 7 {
				if got, want := p.ClassOfChunk(seed, ch), p.oracleClassOfChunk(seed, ch); got != want {
					t.Fatalf("%s seed %d chunk %d: class %v, oracle %v", p.Name, seed, ch, got, want)
				}
			}
			for _, ch := range forcedEdgeChunks {
				if got, want := p.ClassOfChunk(seed, ch), p.oracleClassOfChunk(seed, ch); got != want {
					t.Fatalf("%s seed %d chunk %d: class %v, oracle %v", p.Name, seed, ch, got, want)
				}
			}
		}
	}
}

func TestSkipUnitFractionMatchesOracle(t *testing.T) {
	for _, p := range Benchmarks() {
		for _, unit := range []int{512, 8 * 1024, 8 * 4096} {
			got, want := p.SkipUnitFraction(1, unit, 40), p.oracleSkipUnitFraction(1, unit, 40)
			if got != want {
				t.Fatalf("%s unit %d: SkipUnitFraction %v, oracle %v", p.Name, unit, got, want)
			}
		}
	}
}

func TestMeasureContentMatchesOracle(t *testing.T) {
	for _, p := range Benchmarks() {
		if got, want := p.MeasureContent(7, 9), p.oracleMeasureContent(7, 9); got != want {
			t.Fatalf("%s: MeasureContent %+v, oracle %+v", p.Name, got, want)
		}
	}
}

func TestCursorMatchesOracle(t *testing.T) {
	const run = 3*ChunkLines + 5 // crosses several chunk (and segment) edges
	for _, p := range Benchmarks() {
		for _, seed := range []uint64{0, 1, 7} {
			for _, start := range edgeStarts() {
				cur := p.Cursor(seed, start, 2)
				for i := uint64(0); i < run; i++ {
					if got, want := cur.Next(), p.oracleLineAt(seed, start+i, 2); got != want {
						t.Fatalf("%s seed %d: cursor from line %d diverged at line %d", p.Name, seed, start, start+i)
					}
				}
			}
		}
	}
}

func TestCursorPagesMatchOracle(t *testing.T) {
	// Whole rows at the Figure 18 row sizes, the unit FillPageFromProfile
	// streams, including pages that straddle a forced boundary.
	for _, p := range Benchmarks() {
		for _, pageBytes := range []uint64{2048, 4096, 8192} {
			lines := pageBytes / 64
			for _, page := range []uint64{0, 1, 63, 64, 127, 128, 1023} {
				first := page * lines
				cur := p.Cursor(1, first, 5)
				for ln := uint64(0); ln < lines; ln++ {
					if got, want := cur.Next(), p.oracleLineAt(1, first+ln, 5); got != want {
						t.Fatalf("%s %d B page %d: line %d diverged", p.Name, pageBytes, page, ln)
					}
				}
			}
		}
	}
}

func TestSegmentWalkMatchesOracle(t *testing.T) {
	// One forward walk over 5 forced intervals classifies every chunk as
	// the per-chunk definition does.
	for _, p := range Benchmarks() {
		s := p.segmentsAt(7, 0)
		for ch := uint64(0); ch < 5*forcedBoundaryInterval; ch++ {
			if ch > 0 {
				s.next()
			}
			if want := p.oracleClassOfChunk(7, ch); s.class != want {
				t.Fatalf("%s chunk %d: walk class %v, oracle %v", p.Name, ch, s.class, want)
			}
		}
	}
}
