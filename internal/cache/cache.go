// Package cache implements the write-back cache hierarchy between the cores
// and the memory controller: set-associative L1 and L2 (LLC) caches with
// true-LRU replacement and write-allocate semantics. Its role in the
// ZERO-REFRESH evaluation is to turn raw access streams into the LLC miss
// and dirty-writeback traffic that reaches DRAM — the point where the value
// transformation is applied (Figure 7).
package cache

import (
	"fmt"
	"math/bits"

	"zerorefresh/internal/dram"
)

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
}

// Table II parameters.
var (
	// L1Config is the 32 KB, 8-way, 64 B-line L1 data cache.
	L1Config = Config{SizeBytes: 32 << 10, Ways: 8}
	// L2Config is the 2 MB, 32-way per-core L2, the last-level cache.
	L2Config = Config{SizeBytes: 2 << 20, Ways: 32}
)

// Stats counts accesses at one level.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64 // dirty evictions
}

// MissRate returns Misses/Accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one set-associative write-back level. The ways are stored as
// parallel arrays, set-major (way w of set s at index s*ways+w), so a
// lookup scans only the set's tags: 256 B per 32-way set.
type Cache struct {
	ways int
	// tags holds tag+1 per way; 0 marks an invalid way.
	tags []uint64
	// lru is a per-way use stamp; larger is more recent.
	lru      []uint64
	dirty    []bool
	setMask  uint64
	setShift uint
	useCtr   uint64
	stats    Stats
	// mruBlk and mruWay remember the line the last access left in the
	// cache. Core streams touch a line several times in a row, and a
	// repeat finds it without scanning the set; the tag check keeps
	// the shortcut exact after the way is evicted or invalidated.
	mruBlk uint64
	mruWay int
}

// New builds a cache level. Sizes must yield a power-of-two number of sets.
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
		panic("cache: size and ways must be positive")
	}
	lines := cfg.SizeBytes / dram.LineBytes
	if lines%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by %d ways", lines, cfg.Ways))
	}
	nsets := lines / cfg.Ways
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets is not a power of two", nsets))
	}
	return &Cache{
		ways:     cfg.Ways,
		tags:     make([]uint64, lines),
		lru:      make([]uint64, lines),
		dirty:    make([]bool, lines),
		setMask:  uint64(nsets - 1),
		setShift: uint(bits.TrailingZeros64(uint64(nsets))),
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask + 1) }

func (c *Cache) index(addr uint64) (set, tag uint64) {
	blk := addr / dram.LineBytes
	return blk & c.setMask, blk >> c.setShift
}

// find returns the index of the way holding tag in set, or -1.
func (c *Cache) find(set, tag uint64) int {
	base := int(set) * c.ways
	key := tag + 1
	for i, t := range c.tags[base : base+c.ways] {
		if t == key {
			return base + i
		}
	}
	return -1
}

// Eviction describes a line pushed out of the cache.
type Eviction struct {
	Addr  uint64
	Dirty bool
}

// Access looks up addr, allocating on miss. It returns whether the access
// hit and, when a miss displaced a valid line, the eviction with evicted
// set.
//
//zr:hotpath
func (c *Cache) Access(addr uint64, write bool) (hit bool, ev Eviction, evicted bool) {
	set, tag := c.index(addr)
	c.stats.Accesses++
	c.useCtr++
	blk := addr / dram.LineBytes
	w := c.mruWay
	if blk != c.mruBlk || c.tags[w] != tag+1 {
		w = c.find(set, tag)
	}
	if w >= 0 {
		c.mruBlk, c.mruWay = blk, w
		c.lru[w] = c.useCtr
		if write {
			c.dirty[w] = true
		}
		c.stats.Hits++
		return true, Eviction{}, false
	}
	c.stats.Misses++
	// Choose a victim: the first invalid way, else the first way with
	// the lowest use stamp.
	base := int(set) * c.ways
	tags := c.tags[base : base+c.ways]
	lru := c.lru[base : base+c.ways]
	victim := 0
	for i, t := range tags {
		if t == 0 {
			victim = i
			break
		}
		if lru[i] < lru[victim] {
			victim = i
		}
	}
	v := base + victim
	c.mruBlk, c.mruWay = blk, v
	if tags[victim] != 0 {
		c.stats.Evictions++
		ev = Eviction{Addr: c.evictAddr(set, tags[victim]-1), Dirty: c.dirty[v]}
		evicted = true
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	tags[victim] = tag + 1
	lru[victim] = c.useCtr
	c.dirty[v] = write
	return false, ev, evicted
}

// Contains reports whether addr is present (without touching LRU state).
func (c *Cache) Contains(addr uint64) bool {
	return c.find(c.index(addr)) >= 0
}

// Invalidate drops addr if present, returning whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	w := c.find(c.index(addr))
	if w < 0 {
		return false, false
	}
	d := c.dirty[w]
	c.tags[w], c.lru[w], c.dirty[w] = 0, 0, false
	return true, d
}

func (c *Cache) evictAddr(set, tag uint64) uint64 {
	return (tag<<c.setShift | set) * dram.LineBytes
}
