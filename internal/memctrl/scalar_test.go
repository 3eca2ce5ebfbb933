package memctrl

import (
	"zerorefresh/internal/dram"
	"zerorefresh/internal/transform"
)

// Scalar reference twins of the controller's batched datapath: one
// WriteWord or ReadWord per chip, the loops WriteLine, ReadLine and
// WriteZeroRow replace. The differential tests and the scalar benchmark
// subs drive them.

// writeLineScalar is the scalar write path, one WriteWord per chip: the
// reference for WriteLine.
func (c *Controller) writeLineScalar(addr uint64, data [64]byte, now dram.Time) error {
	loc, err := c.amap.Locate(addr)
	if err != nil {
		return err
	}
	enc := c.pipe.Encode(transform.LineFromBytes(&data), loc.Row)
	words := c.mapping.Scatter(enc, loc.Row)
	for chip, w := range words {
		c.mod.WriteWord(chip, loc.Bank, loc.Row, loc.Slot, w, now)
	}
	c.noteLineWritten(loc, now)
	return nil
}

// readLineScalar is the scalar read path, one ReadWord per chip: the
// reference for ReadLine.
func (c *Controller) readLineScalar(addr uint64, now dram.Time) ([64]byte, error) {
	loc, err := c.amap.Locate(addr)
	if err != nil {
		return [64]byte{}, err
	}
	var words [8]uint64
	for chip := range words {
		words[chip] = c.mod.ReadWord(chip, loc.Bank, loc.Row, loc.Slot, now)
	}
	line := c.pipe.Decode(c.mapping.Gather(words, loc.Row), loc.Row)
	c.linesRead.Inc()
	return line.Bytes(), nil
}

// writeZeroRowScalar is the slot-by-slot page-cleansing loop, the reference
// for WriteZeroRow.
func (c *Controller) writeZeroRowScalar(addr uint64, now dram.Time) error {
	base := c.amap.RowBase(addr)
	var zero [64]byte
	for off := uint64(0); off < uint64(c.mod.Config().RowBytes); off += dram.LineBytes {
		if err := c.writeLineScalar(base+off, zero, now); err != nil {
			return err
		}
	}
	return nil
}
