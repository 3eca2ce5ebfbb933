// Package rng is the simulator's only sanctioned source of pseudo-randomness:
// a splitmix64 generator plus coordinate-hash seeding helpers. It is a leaf
// package (no imports at all) precisely so that every layer — workload
// content generators, baseline policies, the cell-type noise model — can
// draw from the same explicitly seeded stream without creating import
// cycles.
//
// The determinism invariant the zrlint `determinism` analyzer enforces is
// stated here: simulation packages must not call time.Now or the global
// math/rand functions, because the golden-stats tests require every run to
// be bit-identical given a seed. A SplitMix seeded from hashed coordinates
// regenerates identical values in any order, which is what makes the
// per-rank sharded execution deterministic.
package rng

// SplitMix is a splitmix64 PRNG: tiny, fast, and — unlike math/rand —
// trivially seedable from hashed coordinates so that any (page, line) pair
// regenerates identical content in any order.
type SplitMix struct{ state uint64 }

// NewSplitMix seeds a generator.
func NewSplitMix(seed uint64) *SplitMix { return &SplitMix{state: seed} }

// Reseed restarts the generator from seed, as if freshly built by
// NewSplitMix(seed); hot loops reseed a stack value instead of building a
// new generator per draw.
func (s *SplitMix) Reseed(seed uint64) { s.state = seed }

// Uint64 returns the next pseudo-random value.
func (s *SplitMix) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). n must be positive.
func (s *SplitMix) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn needs positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (s *SplitMix) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// FNV-1a constants of Hash's absorb stage.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// Hash mixes several coordinates into one 64-bit seed (Fowler–Noll–Vo over
// the words, then a splitmix finalizer).
func Hash(parts ...uint64) uint64 {
	return finalize(absorb(fnvOffset, parts))
}

// HashPrefix is Hash's state after absorbing a fixed leading run of
// coordinates. Hash absorbs its words strictly left to right and only then
// finalizes, so the state after the first k words is all the later words
// need: HashFrom(Prefix(a...), b...) == Hash(a..., b...) for every split.
// Callers that hash many coordinates under one constant prefix (a profile's
// seed and name) absorb that prefix once instead of once per hash.
type HashPrefix uint64

// Prefix absorbs the leading coordinates of a Hash.
func Prefix(parts ...uint64) HashPrefix {
	return HashPrefix(absorb(fnvOffset, parts))
}

// HashFrom completes a Hash whose leading coordinates are already absorbed
// in pre.
func HashFrom(pre HashPrefix, parts ...uint64) uint64 {
	return finalize(absorb(uint64(pre), parts))
}

// absorb folds the words into an FNV-1a state, one byte at a time, low
// byte first. A zero byte's step is a bare multiply by the prime, so once
// a word's remaining high bytes are all zero — the common case for
// coordinates like chunk and line indices — their steps collapse into one
// multiply by the matching prime power; the state is unchanged, only the
// work shrinks.
func absorb(h uint64, parts []uint64) uint64 {
	for _, p := range parts {
		i := 0
		for ; i < 8 && p != 0; i++ {
			h ^= p & 0xff
			h *= fnvPrime
			p >>= 8
		}
		h *= fnvPrimePow[8-i]
	}
	return h
}

// fnvPrimePow[k] is fnvPrime^k (mod 2^64).
var fnvPrimePow = func() (pow [9]uint64) {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * fnvPrime
	}
	return pow
}()

// finalize is the splitmix64 output mix applied to an absorbed state.
func finalize(h uint64) uint64 {
	z := h + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// HashString folds a string into the coordinate space of Hash.
func HashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}
