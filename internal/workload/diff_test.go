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

// imageRanges are [first, first+lines) line ranges whose ends sit on and
// around the forced-edge chunks 0/255/256/257/4095/4096.
func imageRanges() [][2]uint64 {
	var out [][2]uint64
	for _, a := range []uint64{0, 255, 256, 257, 4095} {
		for _, b := range []uint64{256, 257, 4095, 4096} {
			if b <= a {
				continue
			}
			// From a's first line to b's last; and from a's last line
			// to b's first.
			out = append(out,
				[2]uint64{a * ChunkLines, (b + 1) * ChunkLines},
				[2]uint64{a*ChunkLines + ChunkLines - 1, b*ChunkLines - a*ChunkLines - ChunkLines + 2})
		}
	}
	return out
}

// imageProbes are the lines of [first, first+lines) the image tests read:
// both ends, the chunk edges inside, and one line a stride apart, plus the
// lines just outside the range that must take the fallback.
func imageProbes(first, lines uint64) []uint64 {
	out := []uint64{first, first + lines - 1, first + lines, first + lines + 5*ChunkLines}
	if first > 0 {
		out = append(out, first-1, first/2)
	}
	for _, ch := range forcedEdgeChunks {
		for _, l := range []uint64{ch * ChunkLines, ch*ChunkLines + ChunkLines - 1} {
			if l >= first && l < first+lines {
				out = append(out, l)
			}
		}
	}
	for l := first; l < first+lines; l += 509 {
		out = append(out, l)
	}
	return out
}

func TestImageMatchesOracle(t *testing.T) {
	for _, p := range Benchmarks() {
		for _, seed := range []uint64{0, 1} {
			for _, r := range imageRanges() {
				im := p.Image(seed, r[0], r[1])
				for _, line := range imageProbes(r[0], r[1]) {
					for _, v := range []uint64{0, 3} {
						got := im.LineAt(line, v)
						if want := p.oracleLineAt(seed, line, v); got != want {
							t.Fatalf("%s seed %d image [%d,+%d) line %d v%d: diverged from the oracle",
								p.Name, seed, r[0], r[1], line, v)
						}
						if want := p.LineAt(seed, line, v); got != want {
							t.Fatalf("%s seed %d image [%d,+%d) line %d v%d: diverged from LineAt",
								p.Name, seed, r[0], r[1], line, v)
						}
					}
				}
			}
		}
	}
}

func TestImageCoversEveryLine(t *testing.T) {
	// A whole 2.4 MB working set (tpch-q5's) at an unaligned base: every
	// line from the class table agrees with the per-line definition.
	p, _ := ByName("tpch-q5")
	first := uint64(3*ChunkLines + 7)
	lines := uint64(p.WorkingSetBytes) / 64
	im := p.Image(1, first, lines)
	if want := (first+lines-1)/ChunkLines - first/ChunkLines + 1; uint64(len(im.classes)) != want {
		t.Fatalf("class table has %d chunks, want %d", len(im.classes), want)
	}
	cur := p.Cursor(1, first, 2)
	for l := first; l < first+lines; l++ {
		if got, want := im.LineAt(l, 2), cur.Next(); got != want {
			t.Fatalf("line %d: image diverged from the cursor", l)
		}
	}
}

func TestEmptyImageFallsBack(t *testing.T) {
	p, _ := ByName("mcf")
	im := p.Image(7, 4096*ChunkLines, 0)
	for _, line := range []uint64{0, 4096 * ChunkLines, 4096*ChunkLines + 1} {
		if got, want := im.LineAt(line, 1), p.oracleLineAt(7, line, 1); got != want {
			t.Fatalf("line %d: empty image diverged from the oracle", line)
		}
	}
}
