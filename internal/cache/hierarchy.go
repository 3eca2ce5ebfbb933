package cache

// Hierarchy chains a private L1 and L2 (the LLC in the Table II system) and
// reports the memory-side traffic: LLC misses (reads from DRAM) and dirty
// LLC evictions (writebacks to DRAM). The ZERO-REFRESH value transformation
// operates exactly on this traffic (Figure 7: "between the LLC miss
// handling and memory controllers").
type Hierarchy struct {
	L1 *Cache
	L2 *Cache

	// OnFill, if non-nil, is called for every line fetched from memory
	// (an LLC miss).
	OnFill func(addr uint64)
	// OnWriteback, if non-nil, is called for every dirty line written
	// back to memory (a dirty LLC eviction).
	OnWriteback func(addr uint64)

	fills      int64
	writebacks int64
	// wbHits and wbMisses partition the L1 dirty victims written into L2:
	// a hit merges into a line L2 already held, a miss means inclusion was
	// broken (L2 evicted the line first) and the victim re-allocates it.
	wbHits   int64
	wbMisses int64
}

// NewHierarchy builds the Table II two-level hierarchy.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{L1: New(L1Config), L2: New(L2Config)}
}

// Fills returns the number of lines fetched from memory.
func (h *Hierarchy) Fills() int64 { return h.fills }

// Writebacks returns the number of dirty lines written to memory.
func (h *Hierarchy) Writebacks() int64 { return h.writebacks }

// L1WritebackHits returns how many dirty L1 victims merged into a line L2
// still held (the inclusive-hierarchy common case).
func (h *Hierarchy) L1WritebackHits() int64 { return h.wbHits }

// L1WritebackMisses returns how many dirty L1 victims found their line
// already evicted from L2 and had to re-allocate it.
func (h *Hierarchy) L1WritebackMisses() int64 { return h.wbMisses }

// Access performs one load (write=false) or store (write=true) at the
// line-aligned address and propagates misses and evictions down the
// hierarchy. It returns which levels hit.
//
//zr:hotpath
func (h *Hierarchy) Access(addr uint64, write bool) (l1Hit, l2Hit bool) {
	l1Hit, l1Ev, l1Evicted := h.L1.Access(addr, write)
	if l1Evicted && l1Ev.Dirty {
		// Dirty L1 victim is written into L2. The line is inclusive
		// in this model, so this is a hit unless L2 already evicted
		// it; either way it becomes dirty in L2.
		hit, l2Ev, l2Evicted := h.L2.Access(l1Ev.Addr, true)
		if hit {
			h.wbHits++
		} else {
			h.wbMisses++
		}
		h.memEvict(l2Ev, l2Evicted)
	}
	if l1Hit {
		return true, false
	}
	l2Hit, l2Ev, l2Evicted := h.L2.Access(addr, false)
	h.memEvict(l2Ev, l2Evicted)
	if !l2Hit {
		h.fills++
		if h.OnFill != nil {
			h.OnFill(addr)
		}
	}
	return false, l2Hit
}

func (h *Hierarchy) memEvict(ev Eviction, evicted bool) {
	if !evicted || !ev.Dirty {
		return
	}
	h.writebacks++
	if h.OnWriteback != nil {
		h.OnWriteback(ev.Addr)
	}
}
