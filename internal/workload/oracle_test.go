package workload

// The reference oracle: the original per-call content generator, kept
// verbatim as the specification the production cursor path must match bit
// for bit. Every call re-derives everything from scratch — the segment is
// found by walking backwards chunk by chunk, and every hash re-absorbs the
// (seed, profile name) prefix — which is exactly what makes it slow and
// exactly what makes it obviously right.

func (p Profile) oracleIsBoundary(seed, chunk uint64) bool {
	if chunk%forcedBoundaryInterval == 0 {
		return true
	}
	return NewSplitMix(Hash(seed, HashString(p.Name), chunk, 0xb0)).Float64() < segmentBoundaryProb
}

func (p Profile) oracleSegmentStart(seed, chunk uint64) uint64 {
	for j := chunk; ; j-- {
		if p.oracleIsBoundary(seed, j) {
			return j
		}
	}
}

func (p Profile) oracleClassOfChunk(seed, chunk uint64) PageClass {
	seg := p.oracleSegmentStart(seed, chunk)
	u := NewSplitMix(Hash(seed, HashString(p.Name), seg, 0xc1)).Float64()
	acc := 0.0
	for _, c := range classOrder {
		acc += p.Mix[c]
		if u < acc {
			return c
		}
	}
	return PageRandom
}

func (p Profile) oracleLineAt(seed, globalLine, version uint64) [64]byte {
	class := p.oracleClassOfChunk(seed, globalLine/ChunkLines)
	rng := NewSplitMix(Hash(seed, HashString(p.Name), globalLine+1, version))
	return class.Line(rng).Bytes()
}

func (p Profile) oracleSkipUnitFraction(seed uint64, unitBytes, samples int) float64 {
	chunksPerUnit := unitBytes / ChunkBytes
	if chunksPerUnit < 1 {
		chunksPerUnit = 1
	}
	total := 0
	for r := 0; r < samples; r++ {
		mink := 8
		for c := 0; c < chunksPerUnit; c++ {
			k := p.oracleClassOfChunk(seed, uint64(r*chunksPerUnit+c)).SkippableClasses()
			if k < mink {
				mink = k
			}
		}
		total += mink
	}
	return float64(total) / float64(samples*8)
}

func (p Profile) oracleMeasureContent(seed uint64, pages int) ContentStats {
	st := ContentStats{Pages: pages}
	for pg := 0; pg < pages; pg++ {
		for blk := 0; blk < 4096/ChunkBytes; blk++ {
			blockZero := true
			for ln := 0; ln < ChunkLines; ln++ {
				gl := uint64(pg*4096/64 + blk*ChunkLines + ln)
				for _, b := range p.oracleLineAt(seed, gl, 0) {
					if b == 0 {
						st.ZeroBytes++
					} else {
						blockZero = false
					}
				}
				st.Bytes += 64
			}
			st.Blocks1K++
			if blockZero {
				st.ZeroBlock1K++
			}
		}
	}
	return st
}
