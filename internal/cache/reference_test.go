package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"zerorefresh/internal/dram"
)

// The reference twin: the original array-of-structs cache, kept verbatim
// (bar renaming) as the specification the struct-of-arrays Cache must match
// access for access — same hits, same victims, same eviction addresses and
// dirty bits, same counters.

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

type refCache struct {
	sets    [][]refLine
	setMask uint64
	useCtr  uint64
	stats   Stats
}

func newRefCache(cfg Config) *refCache {
	nsets := cfg.SizeBytes / dram.LineBytes / cfg.Ways
	c := &refCache{setMask: uint64(nsets - 1)}
	c.sets = make([][]refLine, nsets)
	backing := make([]refLine, nsets*cfg.Ways)
	for i := range c.sets {
		c.sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return c
}

func (c *refCache) index(addr uint64) (set, tag uint64) {
	blk := addr / dram.LineBytes
	return blk & c.setMask, blk >> uint(bits.TrailingZeros64(c.setMask+1))
}

func (c *refCache) evictAddr(set, tag uint64) uint64 {
	return (tag<<uint(bits.TrailingZeros64(c.setMask+1)) | set) * dram.LineBytes
}

func (c *refCache) Access(addr uint64, write bool) (hit bool, ev *Eviction) {
	set, tag := c.index(addr)
	ways := c.sets[set]
	c.stats.Accesses++
	c.useCtr++
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.useCtr
			if write {
				ways[i].dirty = true
			}
			c.stats.Hits++
			return true, nil
		}
	}
	c.stats.Misses++
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	if ways[victim].valid {
		c.stats.Evictions++
		ev = &Eviction{Addr: c.evictAddr(set, ways[victim].tag), Dirty: ways[victim].dirty}
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	ways[victim] = refLine{tag: tag, valid: true, dirty: write, lru: c.useCtr}
	return false, ev
}

func (c *refCache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for _, w := range c.sets[set] {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Invalidate(addr uint64) (present, dirty bool) {
	set, tag := c.index(addr)
	ways := c.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			d := ways[i].dirty
			ways[i] = refLine{}
			return true, d
		}
	}
	return false, false
}

// TestCacheMatchesReference drives the production cache and the reference
// twin with the same random stream on L1- and L2-shaped configurations and
// requires every access to agree. Footprints of 2x and 8x capacity keep
// both hit and eviction paths busy; occasional invalidations punch holes in
// full sets so the first-invalid-way victim rule is exercised mid-set; and
// half the ops repeat the previous line, as core streams do, so the
// last-line shortcut is exercised, also after its line is invalidated.
func TestCacheMatchesReference(t *testing.T) {
	for _, cfg := range []Config{L1Config, L2Config, {SizeBytes: 4096, Ways: 4}} {
		for _, spread := range []int{2, 8} {
			t.Run(fmt.Sprintf("%dB_%dway_x%d", cfg.SizeBytes, cfg.Ways, spread), func(t *testing.T) {
				got, want := New(cfg), newRefCache(cfg)
				rng := rand.New(rand.NewSource(int64(cfg.SizeBytes + spread)))
				lines := cfg.SizeBytes / dram.LineBytes * spread
				var addr uint64
				for i := 0; i < 300000; i++ {
					if rng.Intn(2) == 0 {
						addr = uint64(rng.Intn(lines)) * dram.LineBytes
					}
					if rng.Intn(64) == 0 {
						gp, gd := got.Invalidate(addr)
						wp, wd := want.Invalidate(addr)
						if gp != wp || gd != wd {
							t.Fatalf("op %d: Invalidate(%#x) = %v,%v, reference %v,%v", i, addr, gp, gd, wp, wd)
						}
						continue
					}
					write := rng.Intn(3) == 0
					hit, ev, evicted := got.Access(addr, write)
					rhit, rev := want.Access(addr, write)
					if hit != rhit || evicted != (rev != nil) {
						t.Fatalf("op %d: Access(%#x) hit=%v evicted=%v, reference hit=%v evicted=%v",
							i, addr, hit, evicted, rhit, rev != nil)
					}
					if evicted && ev != *rev {
						t.Fatalf("op %d: Access(%#x) evicted %+v, reference %+v", i, addr, ev, *rev)
					}
					if probe := uint64(rng.Intn(lines)) * dram.LineBytes; got.Contains(probe) != want.Contains(probe) {
						t.Fatalf("op %d: Contains(%#x) disagrees with the reference", i, probe)
					}
				}
				if got.Stats() != want.stats {
					t.Fatalf("stats %+v, reference %+v", got.Stats(), want.stats)
				}
			})
		}
	}
}
