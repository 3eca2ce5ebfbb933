package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped protobuf profiles runtime/pprof writes,
// so the harness folds its own CPU profile without a toolchain at run time
// or a module outside the standard library. Only the fields folding needs
// are decoded: sample types, samples (location ids and values), locations
// (with their inlined line stacks), functions and the string table.

// stackSample is one profile sample: its call stack as function names,
// leaf first (inlined frames expanded), and its CPU nanoseconds.
type stackSample struct {
	Stack []string
	NS    int64
}

// parseCPUProfile decodes a gzipped CPU profile into stack samples.
func parseCPUProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sampleRec struct{ locs, vals []uint64 }
	var (
		sampleTypes []uint64 // string index of each value's type
		samples     []sampleRec
		locLines    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames   = map[uint64]uint64{}   // function id -> string index
		strs        []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s sampleRec
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendRepeated(&s.locs, w, v, b)
				case 2:
					return appendRepeated(&s.vals, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// The CPU value is the one typed "cpu"; fall back to the last value.
	valIdx := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			valIdx = i
		}
	}
	if valIdx < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if valIdx >= len(s.vals) {
			return nil, errors.New("profile: sample has too few values")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		out = append(out, stackSample{Stack: stack, NS: int64(s.vals[valIdx])})
	}
	return out, nil
}

// walkFields calls fn for every field of one protobuf message. For varint
// and fixed-width fields v holds the value; for length-delimited fields b
// holds the payload.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendRepeated appends a repeated varint field, packed or not.
func appendRepeated(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// module is the import-path prefix of the simulator's packages.
const module = "zerorefresh/internal/"

// layers are the simulator packages reported as <layer>.cpu_s. Samples
// whose leaf lies in the Go runtime fold into "runtime"; everything else
// (other simulator packages, the standard library, the harness) into
// "other", so the layers sum to the sampled total.
var layers = []string{
	"workload", "rng", "transform", "memctrl", "dram", "refresh",
	"metrics", "core", "engine", "cache", "sim",
}

// entryPoints maps each <entry>.cum_s metric to the public functions
// whose cumulative time it reports; a sample counts once if any frame of
// its stack is one of them.
var entryPoints = map[string][]string{
	"workload.LineAt":            {module + "workload.Profile.LineAt"},
	"workload.AccessGen":         {module + "workload.(*AccessGen).Next"},
	"transform.Encode":           {module + "transform.(*Pipeline).Encode", module + "transform.(*Pipeline).EncodeFill"},
	"transform.Decode":           {module + "transform.(*Pipeline).Decode"},
	"memctrl.WriteLine":          {module + "memctrl.(*Controller).WriteLine"},
	"memctrl.ReadLine":           {module + "memctrl.(*Controller).ReadLine"},
	"memctrl.WriteZeroRow":       {module + "memctrl.(*Controller).WriteZeroRow"},
	"memctrl.SimulateClosedLoop": {module + "memctrl.SimulateClosedLoop"},
	"core.FillPageFromProfile":   {module + "core.(*System).FillPageFromProfile"},
	"core.CleansePage":           {module + "core.(*System).CleansePage"},
	"core.RunUntil":              {module + "core.(*System).RunUntil"},
	"core.RunWindow":             {module + "core.(*System).RunWindow"},
	"refresh.RunCycle":           {module + "refresh.(*Engine).RunCycle"},
	"refresh.ReplayIdleCycles":   {module + "refresh.(*Engine).ReplayIdleCycles"},
	"cache.Access":               {module + "cache.(*Hierarchy).Access"},
}

// windowDrivers run retention windows; a sample under either counts once
// toward host time per simulated window.
var windowDrivers = []string{module + "core.(*System).RunUntil", module + "core.(*System).RunWindow"}

// folded is a CPU profile reduced to per-layer self time and cumulative
// time under the entry points and the window drivers, in nanoseconds.
type folded struct {
	TotalNS  int64
	SelfNS   map[string]int64
	CumNS    map[string]int64
	WindowNS int64
}

// fold reduces stack samples to per-layer self time (attributed by the
// package of the leaf frame) and cumulative time under each entry point.
func fold(samples []stackSample) folded {
	f := folded{SelfNS: map[string]int64{}, CumNS: map[string]int64{}}
	for _, s := range samples {
		f.TotalNS += s.NS
		leaf := ""
		if len(s.Stack) > 0 {
			leaf = s.Stack[0]
		}
		f.SelfNS[layerOf(leaf)] += s.NS
		for entry, fns := range entryPoints {
			if stackHasAny(s.Stack, fns) {
				f.CumNS[entry] += s.NS
			}
		}
		if stackHasAny(s.Stack, windowDrivers) {
			f.WindowNS += s.NS
		}
	}
	return f
}

func stackHasAny(stack, fns []string) bool {
	for _, fr := range stack {
		for _, fn := range fns {
			if fr == fn {
				return true
			}
		}
	}
	return false
}

// layerOf names the layer a function belongs to: its simulator package,
// "runtime" for the Go runtime, or "other".
func layerOf(fn string) string {
	pkg := packageOf(fn)
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(pkg, module); ok {
		for _, l := range layers {
			if rest == l {
				return l
			}
		}
	}
	return "other"
}

// packageOf returns the import path of a Go symbol name such as
// "zerorefresh/internal/core.(*System).RunWindow".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
