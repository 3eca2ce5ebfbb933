package core

import (
	"fmt"

	"zerorefresh/internal/cache"
	"zerorefresh/internal/dram"
	"zerorefresh/internal/workload"
)

// ExecutionDriver runs one core's load/store stream through a private
// L1/L2 cache hierarchy into the system's memory datapath, with real
// content end to end: stores update the logical memory image (a version
// bump of the line's generated content), dirty LLC evictions write the
// image through the value-transformation pipeline into DRAM, and LLC misses
// read DRAM back and *verify* it against the image — so the whole
// core→cache→transform→DRAM→inverse-transform path is checked continuously
// while the refresh engine skips everything it can.
type ExecutionDriver struct {
	sys  *System
	img  workload.Image
	gen  *workload.AccessGen
	hier *cache.Hierarchy

	// cacheVersion is the version of a line as the core sees it
	// (bumped by stores); dramVersion is the version last written back
	// to memory. Both are indexed by the line's slot in the working set
	// (see slot); every line starts at version 0.
	baseLine     uint64
	cacheVersion []uint64
	dramVersion  []uint64

	accesses   int64
	fills      int64
	writebacks int64
	verifyErr  error
}

// NewExecutionDriver builds a driver for one core running prof with its
// working set based at byte address base (line aligned, within capacity).
func NewExecutionDriver(sys *System, prof workload.Profile, seed uint64, base uint64) (*ExecutionDriver, error) {
	if base%dram.LineBytes != 0 {
		return nil, fmt.Errorf("core: base %#x not line aligned", base)
	}
	end := base + uint64(prof.WorkingSetBytes)
	if end > uint64(len(sys.Ranks))*uint64(sys.DRAM.Config().Capacity()) {
		return nil, fmt.Errorf("core: working set [%#x,%#x) beyond capacity", base, end)
	}
	wsLines := max(1, (uint64(prof.WorkingSetBytes)+dram.LineBytes-1)/dram.LineBytes)
	d := &ExecutionDriver{
		sys:          sys,
		img:          prof.Image(seed, base/dram.LineBytes, wsLines),
		gen:          workload.NewAccessGen(prof, seed, base),
		hier:         cache.NewHierarchy(),
		baseLine:     base / dram.LineBytes,
		cacheVersion: make([]uint64, wsLines),
		dramVersion:  make([]uint64, wsLines),
	}
	d.hier.OnWriteback = d.writeback
	d.hier.OnFill = d.fill
	return d, nil
}

// slot maps a line address in the working set to its version-table index.
// The access stream never leaves [base, base+WorkingSetBytes), so the
// tables are dense: one word per working-set line.
func (d *ExecutionDriver) slot(addr uint64) uint64 {
	return addr/dram.LineBytes - d.baseLine
}

// content generates the line image at a given version.
func (d *ExecutionDriver) content(addr uint64, version uint64) [64]byte {
	return d.img.LineAt(addr/dram.LineBytes, version)
}

func (d *ExecutionDriver) writeback(addr uint64) {
	v := d.cacheVersion[d.slot(addr)]
	if err := d.sys.WriteLineAt(addr, d.content(addr, v)); err != nil && d.verifyErr == nil {
		d.verifyErr = err
	}
	d.dramVersion[d.slot(addr)] = v
	d.writebacks++
}

func (d *ExecutionDriver) fill(addr uint64) {
	got, err := d.sys.ReadLineAt(addr)
	if err != nil {
		if d.verifyErr == nil {
			d.verifyErr = err
		}
		return
	}
	d.fills++
	line := d.slot(addr)
	want := d.content(addr, d.dramVersion[line])
	if d.dramVersion[line] == 0 {
		// Never written back: memory holds either the pre-filled
		// image (version 0) or boot zeros; accept both.
		if got != want && got != ([64]byte{}) {
			d.fail(addr)
			return
		}
		return
	}
	if got != want {
		d.fail(addr)
	}
	// The fill resynchronizes the cache's view with memory.
	d.cacheVersion[line] = d.dramVersion[line]
}

func (d *ExecutionDriver) fail(addr uint64) {
	if d.verifyErr == nil {
		d.verifyErr = fmt.Errorf("core: line %#x read from DRAM does not match the logical image", addr)
	}
}

// Run executes n memory accesses. It returns the first datapath or
// verification error encountered.
func (d *ExecutionDriver) Run(n int) error {
	for i := 0; i < n; i++ {
		a := d.gen.Next()
		// The access (and any fill it triggers) happens before the
		// store's version bump: a write-allocate fetches the line's
		// current memory content first, then the store mutates it.
		d.hier.Access(a.Addr, a.Write)
		if a.Write {
			d.cacheVersion[d.slot(a.Addr)]++
		}
		d.accesses++
		if d.verifyErr != nil {
			return d.verifyErr
		}
	}
	return nil
}

// Stats reports the driver's traffic counters.
func (d *ExecutionDriver) Stats() (accesses, fills, writebacks int64) {
	return d.accesses, d.fills, d.writebacks
}

// Hierarchy exposes the driver's cache hierarchy for inspection.
func (d *ExecutionDriver) Hierarchy() *cache.Hierarchy { return d.hier }
