package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() *Cache { return New(Config{SizeBytes: 4096, Ways: 4}) } // 16 sets

func TestMissThenHit(t *testing.T) {
	c := small()
	if hit, _, _ := c.Access(0x1000, false); hit {
		t.Fatal("cold access hit")
	}
	if hit, _, _ := c.Access(0x1000, false); !hit {
		t.Fatal("warm access missed")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := small() // 4 ways per set
	// Five conflicting lines (same set, different tags).
	stride := uint64(c.Sets() * 64)
	for i := uint64(0); i < 5; i++ {
		c.Access(i*stride, false)
	}
	// Line 0 was LRU and must be gone; lines 1-4 remain.
	if c.Contains(0) {
		t.Fatal("LRU victim still present")
	}
	for i := uint64(1); i < 5; i++ {
		if !c.Contains(i * stride) {
			t.Fatalf("line %d wrongly evicted", i)
		}
	}
	// Touch line 1, then insert another conflicting line: victim must
	// now be line 2.
	c.Access(1*stride, false)
	c.Access(5*stride, false)
	if !c.Contains(1 * stride) {
		t.Fatal("recently used line evicted")
	}
	if c.Contains(2 * stride) {
		t.Fatal("expected line 2 to be the victim")
	}
}

func TestDirtyEvictionCarriesAddress(t *testing.T) {
	c := small()
	stride := uint64(c.Sets() * 64)
	c.Access(0, true) // dirty
	var ev Eviction
	evicted := false
	for i := uint64(1); !evicted; i++ {
		_, ev, evicted = c.Access(i*stride, false)
	}
	if !ev.Dirty || ev.Addr != 0 {
		t.Fatalf("eviction %+v, want dirty addr 0", ev)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("Writebacks = %d", c.Stats().Writebacks)
	}
}

func TestCleanEvictionNotWriteback(t *testing.T) {
	c := small()
	stride := uint64(c.Sets() * 64)
	for i := uint64(0); i <= 4; i++ {
		c.Access(i*stride, false)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Writebacks != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Access(0x40, true)
	if p, d := c.Invalidate(0x40); !p || !d {
		t.Fatalf("Invalidate = %v,%v", p, d)
	}
	if c.Contains(0x40) {
		t.Fatal("line survived invalidation")
	}
	if p, _ := c.Invalidate(0x40); p {
		t.Fatal("double invalidate reported present")
	}
}

func TestEvictAddrRoundTrip(t *testing.T) {
	c := small()
	f := func(n uint32) bool {
		addr := uint64(n) &^ 63
		set, tag := c.index(addr)
		return c.evictAddr(set, tag) == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestTableIIConfigs(t *testing.T) {
	l1 := New(L1Config)
	if l1.Sets() != 64 { // 32KB / 64B / 8 ways
		t.Fatalf("L1 sets = %d, want 64", l1.Sets())
	}
	l2 := New(L2Config)
	if l2.Sets() != 1024 { // 2MB / 64B / 32 ways
		t.Fatalf("L2 sets = %d, want 1024", l2.Sets())
	}
}

func TestBadConfigsPanic(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero size":    {SizeBytes: 0, Ways: 4},
		"zero ways":    {SizeBytes: 4096, Ways: 0},
		"nondivisible": {SizeBytes: 4096, Ways: 7},
		"non-pow2":     {SizeBytes: 3 * 64 * 4, Ways: 4},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			New(cfg)
		})
	}
}

func TestHierarchyInclusionTraffic(t *testing.T) {
	h := NewHierarchy()
	var fills, wbs []uint64
	h.OnFill = func(a uint64) { fills = append(fills, a) }
	h.OnWriteback = func(a uint64) { wbs = append(wbs, a) }

	h.Access(0x1000, false)
	if len(fills) != 1 || fills[0] != 0x1000 {
		t.Fatalf("fills = %v", fills)
	}
	// L1 hit: no new fill.
	h.Access(0x1000, false)
	if h.Fills() != 1 {
		t.Fatalf("Fills = %d", h.Fills())
	}
	if len(wbs) != 0 {
		t.Fatal("unexpected writeback")
	}
}

func TestHierarchyL2HitAfterL1Eviction(t *testing.T) {
	h := NewHierarchy()
	// Fill enough conflicting lines to evict addr 0 from L1 (64 sets,
	// 8 ways) but not from L2 (1024 sets, 32 ways).
	l1Stride := uint64(h.L1.Sets() * 64)
	h.Access(0, false)
	for i := uint64(1); i <= 8; i++ {
		h.Access(i*l1Stride, false)
	}
	if h.L1.Contains(0) {
		t.Fatal("L1 should have evicted addr 0")
	}
	l1Hit, l2Hit := h.Access(0, false)
	if l1Hit || !l2Hit {
		t.Fatalf("expected L2 hit, got l1=%v l2=%v", l1Hit, l2Hit)
	}
}

func TestHierarchyDirtyDataReachesMemory(t *testing.T) {
	h := NewHierarchy()
	wbs := map[uint64]bool{}
	h.OnWriteback = func(a uint64) { wbs[a] = true }

	h.Access(0x2000, true) // dirty in L1
	// Evict it from L1 (into L2 dirty), then from L2 (to memory).
	l1Stride := uint64(h.L1.Sets() * 64)
	for i := uint64(1); i <= 8; i++ {
		h.Access(0x2000+i*l1Stride, false)
	}
	if wbs[0x2000] {
		t.Fatal("writeback reached memory while still in L2")
	}
	l2Stride := uint64(h.L2.Sets() * 64)
	for i := uint64(1); i <= 33; i++ {
		h.Access(0x2000+i*l2Stride, false)
	}
	if !wbs[0x2000] {
		t.Fatal("dirty line never written back to memory")
	}
}

func TestHierarchyWritebackHitStats(t *testing.T) {
	h := NewHierarchy()
	h.Access(0x2000, true) // dirty in L1, allocated in L2
	// Conflict addr 0x2000 out of its 8-way L1 set; the dirty victim is
	// written into L2, which still holds the line: a writeback hit.
	l1Stride := uint64(h.L1.Sets() * 64)
	for i := uint64(1); i <= 8; i++ {
		h.Access(0x2000+i*l1Stride, false)
	}
	if h.L1WritebackHits() != 1 || h.L1WritebackMisses() != 0 {
		t.Fatalf("wb hits/misses = %d/%d, want 1/0",
			h.L1WritebackHits(), h.L1WritebackMisses())
	}
}

func TestHierarchyRandomizedCounters(t *testing.T) {
	h := NewHierarchy()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200000; i++ {
		addr := uint64(rng.Intn(1<<22)) &^ 63 // 4 MB footprint > LLC
		h.Access(addr, rng.Intn(4) == 0)
	}
	if h.Fills() == 0 || h.Writebacks() == 0 {
		t.Fatal("expected memory traffic")
	}
	if h.Writebacks() > h.Fills() {
		t.Fatalf("writebacks (%d) exceed fills (%d)", h.Writebacks(), h.Fills())
	}
	l2 := h.L2.Stats()
	if l2.Misses != h.Fills() {
		t.Fatalf("LLC misses %d != fills %d", l2.Misses, h.Fills())
	}
}
