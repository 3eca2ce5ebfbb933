package rng

import "testing"

func TestSplitMixDeterministic(t *testing.T) {
	a, b := NewSplitMix(42), NewSplitMix(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d diverged: %#x != %#x", i, av, bv)
		}
	}
	c := NewSplitMix(43)
	if a.Uint64() == c.Uint64() {
		t.Fatal("different seeds produced the same first draw")
	}
}

func TestSplitMixGoldenSequence(t *testing.T) {
	// Pin the splitmix64 output so a refactor can't silently change every
	// seeded workload in the repo. Reference values for seed 0 from the
	// original splitmix64 algorithm.
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	s := NewSplitMix(0)
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("draw %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestIntn(t *testing.T) {
	s := NewSplitMix(7)
	for i := 0; i < 10000; i++ {
		if v := s.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	s.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := NewSplitMix(99)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean %v far from 0.5; generator badly biased", mean)
	}
}

func TestHashOrderAndArity(t *testing.T) {
	if Hash(1, 2) == Hash(2, 1) {
		t.Fatal("Hash ignores coordinate order")
	}
	if Hash(1) == Hash(1, 0) {
		t.Fatal("Hash ignores arity")
	}
	if Hash(5, 6) != Hash(5, 6) {
		t.Fatal("Hash is not a pure function")
	}
}

func TestHashStringDistinct(t *testing.T) {
	if HashString("gemsFDTD") == HashString("mcf") {
		t.Fatal("distinct names collided")
	}
	if HashString("x") != HashString("x") {
		t.Fatal("HashString is not a pure function")
	}
}

func TestHashGoldenValues(t *testing.T) {
	// Pin Hash's output: every generated memory image in the repo is a
	// function of it, so a refactor of the absorb/finalize stages must
	// reproduce these exactly.
	for _, c := range []struct {
		got, want uint64
	}{
		{Hash(), 0xc3817c016ba4ff30},
		{Hash(0), 0x5ba314b8cfda3b6b},
		{Hash(1, 2, 3), 0x08638879170c2de7},
		{Hash(0xdeadbeef, HashString("mcf"), 42, 0xb0), 0x54b87d21ba220143},
	} {
		if c.got != c.want {
			t.Errorf("Hash = %#x, want %#x", c.got, c.want)
		}
	}
}

// refHash is the textbook byte-at-a-time FNV-1a absorb plus the splitmix
// finalizer: the definition absorb's zero-tail shortcut must reproduce.
func refHash(parts ...uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, p := range parts {
		for i := 0; i < 8; i++ {
			h ^= (p >> (8 * i)) & 0xff
			h *= 0x100000001b3
		}
	}
	z := h + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func TestHashMatchesByteWiseDefinition(t *testing.T) {
	// Words of every byte length, so the zero-high-byte shortcut is hit
	// at each of its nine exits, plus words with zero bytes in the middle.
	s := NewSplitMix(11)
	for trial := 0; trial < 2000; trial++ {
		words := make([]uint64, 1+trial%4)
		for i := range words {
			w := s.Uint64()
			if n := s.Intn(9); n < 8 {
				w &= 1<<(8*n) - 1
			}
			if s.Intn(2) == 0 {
				w &^= 0xff << (8 * s.Intn(8))
			}
			words[i] = w
		}
		if got, want := Hash(words...), refHash(words...); got != want {
			t.Fatalf("Hash(%#x) = %#x, byte-wise definition %#x", words, got, want)
		}
	}
}

// checkPrefixSplits asserts HashFrom(Prefix(a...), b...) == Hash(a..., b...)
// for every split point of words, against the byte-wise definition.
func checkPrefixSplits(t *testing.T, words []uint64) {
	t.Helper()
	want := refHash(words...)
	for k := 0; k <= len(words); k++ {
		if got := HashFrom(Prefix(words[:k]...), words[k:]...); got != want {
			t.Fatalf("split %d of %#x: HashFrom = %#x, Hash = %#x", k, words, got, want)
		}
		if got := Hash(words...); got != want {
			t.Fatalf("Hash(%#x) = %#x, byte-wise definition %#x", words, got, want)
		}
	}
}

func TestHashPrefixMatchesHash(t *testing.T) {
	s := NewSplitMix(3)
	for n := 0; n <= 6; n++ {
		for trial := 0; trial < 50; trial++ {
			words := make([]uint64, n)
			for i := range words {
				words[i] = s.Uint64()
			}
			checkPrefixSplits(t, words)
		}
	}
	// The content generator's own shape: (seed, name) hoisted once.
	pre := Prefix(1, HashString("gemsFDTD"))
	if HashFrom(pre, 17, 0xb0) != Hash(1, HashString("gemsFDTD"), 17, 0xb0) {
		t.Fatal("hoisted (seed, name) prefix diverged from Hash")
	}
}

func FuzzHashPrefix(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint8(4), uint64(1), uint64(0xcbf29ce484222325), uint64(7), uint64(0xb0), uint64(1<<63), uint64(42))
	f.Fuzz(func(t *testing.T, n uint8, w0, w1, w2, w3, w4, w5 uint64) {
		words := []uint64{w0, w1, w2, w3, w4, w5}[:n%7]
		checkPrefixSplits(t, words)
	})
}

func TestReseedMatchesNewSplitMix(t *testing.T) {
	var s SplitMix
	s.Uint64()
	s.Reseed(42)
	fresh := NewSplitMix(42)
	for i := 0; i < 8; i++ {
		if a, b := s.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("draw %d after Reseed = %#x, NewSplitMix = %#x", i, a, b)
		}
	}
}
