package memctrl

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"zerorefresh/internal/attr"
	"zerorefresh/internal/dram"
	"zerorefresh/internal/metrics"
	"zerorefresh/internal/refresh"
	"zerorefresh/internal/trace"
	"zerorefresh/internal/transform"
)

// Full-stack differential test: the batched controller datapath
// (WriteLine/ReadLine/WriteZeroRow over the line-granular backend calls) is
// driven against the retained scalar loops on a twin stack, across every
// transform option combination, both cell types, spared rows and decay
// windows. Both stacks must agree on every returned byte, every metrics
// snapshot and the exact merged trace-event stream.

// diffStack is one complete simulator stack with per-layer trace shards.
type diffStack struct {
	mod  *dram.Module
	eng  *refresh.Engine
	pipe *transform.Pipeline
	ctrl *Controller
	tr   *trace.Tracer
}

func newDiffStack(opts transform.Options) *diffStack {
	cfg := dram.DefaultConfig(8 << 20)
	cfg.CellGroupRows = 64
	mod := dram.New(cfg)
	eng := refresh.NewEngine(mod, refresh.Config{
		Skip: true, RowsPerAR: 32, Stagger: true, StatusInDRAM: true,
	})
	pipe := transform.NewPipeline(opts, transform.ExactTypes{Cfg: cfg})
	ctrl := NewController(mod, eng, pipe, transform.RotatedMapping{})
	tr := trace.New(1 << 17)
	// Separate shards per layer keep the comparison exact even where the
	// batched path reorders emissions across layers (the bulk row fill
	// emits its writeback events after the fill instead of interleaved).
	mod.SetTracer(tr.NewShard("rank"))
	eng.SetTracer(tr.NewShard("refresh"))
	pipe.SetTracer(tr.NewShard("cpu"))
	ctrl.SetTracer(tr.NewShard("ctrl"))
	for r := 0; r < cfg.RowsPerBank; r += 41 {
		mod.MarkSpared(r)
	}
	return &diffStack{mod: mod, eng: eng, pipe: pipe, ctrl: ctrl, tr: tr}
}

// randomLine mixes the content classes the transform cares about: zero
// lines, value-local lines (small deltas around a base) and uniform noise.
func randomLine(rng *rand.Rand) [64]byte {
	var l transform.Line
	switch rng.Intn(4) {
	case 0: // zero
	case 1, 2: // value-local
		base := rng.Uint64()
		l[0] = base
		for i := 1; i < 8; i++ {
			l[i] = base + uint64(rng.Intn(200)) - 100
		}
	default:
		for i := range l {
			l[i] = rng.Uint64()
		}
	}
	return l.Bytes()
}

func compareStacks(t *testing.T, opts transform.Options, batched, scalar *diffStack) {
	t.Helper()
	if a, b := batched.mod.Stats(), scalar.mod.Stats(); a != b {
		t.Fatalf("opts=%+v: module stats diverged:\nbatched %+v\nscalar  %+v", opts, a, b)
	}
	pairs := []struct {
		name string
		a, b interface{}
	}{
		// The dram.storage.* samples describe the storage layout (arena
		// slots vs CoW sentinel aliases), which the two drives legitimately
		// reach by different routes; everything else must match bit for bit.
		{"module", withoutStorageMetrics(batched.mod.Metrics().Snapshot()), withoutStorageMetrics(scalar.mod.Metrics().Snapshot())},
		{"engine", batched.eng.Metrics().Snapshot(), scalar.eng.Metrics().Snapshot()},
		{"pipeline", batched.pipe.Metrics().Snapshot(), scalar.pipe.Metrics().Snapshot()},
		{"controller", batched.ctrl.Metrics().Snapshot(), scalar.ctrl.Metrics().Snapshot()},
	}
	for _, p := range pairs {
		if !reflect.DeepEqual(p.a, p.b) {
			t.Fatalf("opts=%+v: %s metrics diverged:\nbatched %+v\nscalar  %+v", opts, p.name, p.a, p.b)
		}
	}
	attr.MustMatch(t, fmt.Sprintf("opts=%+v: batched vs scalar", opts), batched.tr.Events(), scalar.tr.Events())
	cfg := batched.mod.Config()
	for chip := 0; chip < dram.LineChips; chip++ {
		for bank := 0; bank < cfg.Banks; bank++ {
			for row := 0; row < cfg.RowsPerBank; row++ {
				a := batched.mod.ChargedCellCount(chip, bank, row)
				b := scalar.mod.ChargedCellCount(chip, bank, row)
				if a != b {
					t.Fatalf("opts=%+v: charged cells diverged at (%d,%d,%d): %d vs %d", opts, chip, bank, row, a, b)
				}
			}
		}
	}
}

// withoutStorageMetrics strips the dram.storage.* memory-footprint samples
// from a module snapshot before twin comparison.
func withoutStorageMetrics(s metrics.Snapshot) metrics.Snapshot {
	out := s
	out.Samples = nil
	for _, smp := range s.Samples {
		if !strings.HasPrefix(smp.Name, "dram.storage.") {
			out.Samples = append(out.Samples, smp)
		}
	}
	return out
}

func TestBatchedDatapathMatchesScalar(t *testing.T) {
	const opsPerCombo = 2000 // ~1400 writes per stack per combo: >10k lines over the 8 combos
	for opt := 0; opt < 8; opt++ {
		opts := transform.Options{EBDI: opt&1 != 0, BitPlane: opt&2 != 0, CellAware: opt&4 != 0}
		batched, scalar := newDiffStack(opts), newDiffStack(opts)
		rng := rand.New(rand.NewSource(int64(100 + opt)))
		cfg := batched.mod.Config()
		tret := cfg.Timing.TRET
		capacity := uint64(cfg.Capacity())
		now := dram.Time(0)
		window := 0
		for i := 0; i < opsPerCombo; i++ {
			now += dram.Time(rng.Int63n(int64(tret) / 256))
			addr := (uint64(rng.Int63()) * dram.LineBytes) % capacity
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5, 6: // write a line
				data := randomLine(rng)
				if err := batched.ctrl.WriteLine(addr, data, now); err != nil {
					t.Fatal(err)
				}
				if err := scalar.ctrl.writeLineScalar(addr, data, now); err != nil {
					t.Fatal(err)
				}
			case 7, 8: // read a line back
				a, errA := batched.ctrl.ReadLine(addr, now)
				b, errB := scalar.ctrl.readLineScalar(addr, now)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("op %d: read errors diverged: %v vs %v", i, errA, errB)
				}
				if a != b {
					t.Fatalf("op %d: read contents diverged at %#x", i, addr)
				}
			default: // cleanse a row
				if err := batched.ctrl.WriteZeroRow(addr, now); err != nil {
					t.Fatal(err)
				}
				if err := scalar.ctrl.writeZeroRowScalar(addr, now); err != nil {
					t.Fatal(err)
				}
			}
			// A few refresh windows per combo, including stretches long
			// enough for charged rows to decay between cycles.
			if i%700 == 699 {
				window += 1 + rng.Intn(2) // sometimes skip a window: decay
				start := dram.Time(window) * tret
				if start < now {
					start = now
				}
				a, b := batched.eng.RunCycle(start), scalar.eng.RunCycle(start)
				if a != b {
					t.Fatalf("opts=%+v window %d: cycle stats diverged:\nbatched %+v\nscalar  %+v", opts, window, a, b)
				}
				now = start + tret/dram.Time(2)
			}
		}
		compareStacks(t, opts, batched, scalar)
	}
}
