package workload

import (
	"math"
	"testing"

	"zerorefresh/internal/transform"
)

func TestSuiteComposition(t *testing.T) {
	// Section VI-A: 17 SPEC CPU2006 + 2 NPB + 4 TPC-H benchmarks.
	counts := map[string]int{}
	for _, b := range Benchmarks() {
		counts[b.Suite]++
	}
	if counts["SPEC2006"] != 17 || counts["NPB"] != 2 || counts["TPC-H"] != 4 {
		t.Fatalf("suite composition %v, want 17/2/4", counts)
	}
	if len(Benchmarks()) != 23 {
		t.Fatalf("suite size %d, want 23", len(Benchmarks()))
	}
}

func TestAllProfilesValid(t *testing.T) {
	for _, b := range Benchmarks() {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestMeanReductionMatchesPaperBallpark(t *testing.T) {
	// Figure 14: average 37.1% reduction with 100% allocation. Two
	// analytic views bracket the simulated value: the homogeneous mix
	// average is an upper bound (no block straddling, no writes), and
	// the block-aware SkipUnitFraction sits just above the measured
	// number (which additionally pays write-traffic penalties).
	upper := MeanExpectedReduction()
	if upper < 0.38 || upper > 0.50 {
		t.Fatalf("homogeneous mean reduction = %.3f, want ~0.44", upper)
	}
	sum := 0.0
	for _, b := range Benchmarks() {
		sum += b.SkipUnitFraction(1, 8*4096, 500)
	}
	blockAware := sum / float64(len(Benchmarks()))
	if blockAware < 0.35 || blockAware > 0.45 {
		t.Fatalf("block-aware mean reduction = %.3f, want ~0.40", blockAware)
	}
	if blockAware >= upper {
		t.Fatalf("block-aware (%.3f) should be below the homogeneous bound (%.3f)", blockAware, upper)
	}
}

func TestPerBenchmarkOrdering(t *testing.T) {
	// Figure 14's qualitative ordering: gemsFDTD and sphinx3 high;
	// omnetpp, perlbench and sp.C low.
	r := map[string]float64{}
	for _, b := range Benchmarks() {
		r[b.Name] = b.ExpectedReduction()
	}
	for _, hi := range []string{"gemsFDTD", "sphinx3"} {
		if r[hi] < 0.55 {
			t.Errorf("%s reduction %.3f, want high (>0.55)", hi, r[hi])
		}
	}
	for _, lo := range []string{"omnetpp", "perlbench", "sp.C"} {
		if r[lo] > 0.20 {
			t.Errorf("%s reduction %.3f, want low (<0.20)", lo, r[lo])
		}
	}
}

func TestByName(t *testing.T) {
	if p, ok := ByName("mcf"); !ok || p.Name != "mcf" {
		t.Fatal("mcf not found")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Fatal("phantom benchmark found")
	}
	if len(Names()) != len(Benchmarks()) {
		t.Fatal("Names/Benchmarks mismatch")
	}
}

func TestClassOfChunkIsDeterministicAndMixFaithful(t *testing.T) {
	p, _ := ByName("gcc")
	const pages = 60000
	counts := map[PageClass]int{}
	for i := uint64(0); i < pages; i++ {
		// The first chunk of each 4 KB page.
		c1 := p.ClassOfChunk(7, i*(4096/ChunkBytes))
		c2 := p.ClassOfChunk(7, i*(4096/ChunkBytes))
		if c1 != c2 {
			t.Fatal("page class not deterministic")
		}
		counts[c1]++
	}
	// Segments are ~80 KB (20 pages), so the effective sample is
	// pages/20 independent draws; allow a correspondingly loose band.
	for class, want := range p.Mix {
		got := float64(counts[class]) / pages
		if math.Abs(got-want) > 0.035 {
			t.Errorf("class %v frequency %.3f, want %.3f", class, got, want)
		}
	}
}

func TestLineAtDeterministic(t *testing.T) {
	p, _ := ByName("mcf")
	// Line slot 7 of 4 KB page 42, at version 0.
	const line = 42*(4096/64) + 7
	a := p.LineAt(1, line, 0)
	b := p.LineAt(1, line, 0)
	if a != b {
		t.Fatal("content not deterministic")
	}
	c := p.LineAt(2, line, 0)
	if a == c {
		t.Fatal("different seeds should give different content")
	}
}

func TestPageClassSkippableGuarantees(t *testing.T) {
	// For every class, generate many lines and verify the transformed
	// line really has at least SkippableClasses() zero words in the
	// positions the rotation relies on (the tail), i.e. the analytic
	// class table is a true lower bound.
	for c := PageClass(0); c < numPageClasses; c++ {
		minTail := 8
		for i := 0; i < 200; i++ {
			rng := NewSplitMix(Hash(uint64(c), uint64(i)))
			l := c.Line(rng)
			enc := transform.BitPlaneTranspose(transform.EBDIEncode(l))
			zt := enc.ZeroTailWords()
			if c == PageZero {
				zt = 8 // all-zero line: every word qualifies
			}
			if zt < minTail {
				minTail = zt
			}
		}
		if want := c.SkippableClasses(); minTail < want {
			t.Errorf("class %v: observed min zero tail %d < promised %d", c, minTail, want)
		}
	}
}

func TestPageClassStrings(t *testing.T) {
	for c := PageClass(0); c < numPageClasses; c++ {
		if c.String() == "unknown" {
			t.Errorf("class %d has no name", c)
		}
	}
}

func TestExpectedZeroByteFractionBallpark(t *testing.T) {
	// Figure 6: ~43% zero bytes on average across the suite.
	sum := 0.0
	for _, b := range Benchmarks() {
		sum += b.ExpectedZeroByteFraction()
	}
	mean := sum / float64(len(Benchmarks()))
	if mean < 0.30 || mean > 0.55 {
		t.Fatalf("mean zero-byte fraction = %.3f, want ~0.43", mean)
	}
}

func TestPageClassGeneratorProperties(t *testing.T) {
	// Each class's generator must actually have the structure its
	// SkippableClasses/ZeroByteFraction tables assume.
	for i := 0; i < 200; i++ {
		rng := NewSplitMix(Hash(0xabc, uint64(i)))

		// Pointers: all words within one arena's 2^22 span, in the
		// canonical user-space range.
		ptr := PagePointer.Line(rng)
		for _, w := range ptr {
			d := int64(w - ptr[0])
			if d < -(1<<22) || d >= 1<<22 {
				t.Fatalf("pointer delta %d exceeds the arena span", d)
			}
			if w>>40 != 0x7f {
				t.Fatalf("pointer %#x outside the 0x7f.. heap range", w)
			}
		}

		// Floats: all words share sign and exponent.
		flt := PageFloat.Line(rng)
		exp := flt[0] >> 52
		for _, w := range flt {
			if w>>52 != exp {
				t.Fatalf("float words with different exponents: %#x vs %#x", w, flt[0])
			}
		}

		// Small ints: values below 2^15 (six zero high bytes).
		i8 := PageInt8.Line(rng)
		for _, w := range i8 {
			if w >= 1<<15 {
				t.Fatalf("int8-delta word %#x too large", w)
			}
		}

		// Text: printable ASCII only.
		txt := PageText.Line(rng).Bytes()
		for _, b := range txt {
			if b < 0x20 || b > 0x7e {
				t.Fatalf("text byte %#x not printable", b)
			}
		}
	}
}
