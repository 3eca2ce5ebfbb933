package workload

import "zerorefresh/internal/rng"

// Content generation walks a profile's memory image forward.
//
// Every hash of the image is Hash(seed, HashString(name), a, b) for a
// per-use pair (a, b), so the (seed, name) prefix is absorbed once per
// walk (rng.Prefix) and each hash pays only for its own two words. A chunk
// is a segment boundary as a pure function of its index, so a walk finds
// the segment of its first chunk by walking back once — at most
// forcedBoundaryInterval-1 chunks, since every multiple of it is a
// boundary — and from then on each new chunk costs one boundary check.
// Both are exact: the walk reproduces the per-line definition (pinned by
// the oracle differential tests and testdata/content.golden) bit for bit.

// segments tracks the segment class of the chunk a walk is in.
type segments struct {
	pre rng.HashPrefix // Hash state after (seed, HashString(name))
	// cum is the profile mix accumulated in classOrder, summed in the
	// same order as the per-line definition so the float thresholds are
	// identical.
	cum   [numPageClasses]float64
	chunk uint64
	class PageClass
}

// segmentsAt positions a segment walk on chunk.
func (p Profile) segmentsAt(seed, chunk uint64) segments {
	s := segments{pre: rng.Prefix(seed, HashString(p.Name)), chunk: chunk}
	acc := 0.0
	for i, c := range classOrder {
		acc += p.Mix[c]
		s.cum[i] = acc
	}
	seg := chunk
	for !s.isBoundary(seg) {
		seg--
	}
	s.class = s.classOf(seg)
	return s
}

// isBoundary reports whether a new segment starts at chunk.
func (s *segments) isBoundary(chunk uint64) bool {
	if chunk%forcedBoundaryInterval == 0 {
		return true
	}
	var r SplitMix
	r.Reseed(rng.HashFrom(s.pre, chunk, 0xb0))
	return r.Float64() < segmentBoundaryProb
}

// classOf draws the class of the segment starting at chunk seg.
func (s *segments) classOf(seg uint64) PageClass {
	var r SplitMix
	r.Reseed(rng.HashFrom(s.pre, seg, 0xc1))
	u := r.Float64()
	for i, acc := range s.cum {
		if u < acc {
			return classOrder[i]
		}
	}
	return PageRandom
}

// next steps the walk to the following chunk.
func (s *segments) next() {
	s.chunk++
	if s.isBoundary(s.chunk) {
		s.class = s.classOf(s.chunk)
	}
}

// Cursor generates consecutive cachelines of a profile's memory image:
// Next returns the content of line firstLine, then firstLine+1, and so on,
// exactly as LineAt would. It is a plain value with no heap state, meant to
// live on the caller's stack for the length of one page or one scan.
type Cursor struct {
	seg     segments
	line    uint64
	version uint64
}

// Cursor starts a forward walk at global line firstLine (byte address /
// 64) of the image at value generation version.
func (p Profile) Cursor(seed, firstLine, version uint64) Cursor {
	return Cursor{seg: p.segmentsAt(seed, firstLine/ChunkLines), line: firstLine, version: version}
}

// Next returns the content of the cursor's line and advances to the next.
//
//zr:hotpath
func (c *Cursor) Next() [64]byte {
	if c.line/ChunkLines != c.seg.chunk {
		c.seg.next()
	}
	var r SplitMix
	r.Reseed(rng.HashFrom(c.seg.pre, c.line+1, c.version))
	c.line++
	return c.seg.class.Line(&r).Bytes()
}
