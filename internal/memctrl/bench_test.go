package memctrl

import (
	"math/rand"
	"testing"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/engine"
	"zerorefresh/internal/transform"
)

// Hot-path microbenchmarks for the controller datapath. The scalar subs
// drive the retained per-chip loops; the batched subs drive the
// line-granular backend calls that replaced them. The raw-codec pairs
// isolate the datapath itself (no transform cost); the pipeline pairs show
// the win in the context of the full encode/decode stack.

func benchController(codec string) *Controller {
	cfg := dram.DefaultConfig(8 << 20)
	cfg.CellGroupRows = 64
	mod := dram.New(cfg)
	var pipe engine.LineCodec
	if codec == "raw" {
		pipe = transform.Raw{}
	} else {
		pipe = transform.NewPipeline(transform.DefaultOptions(), transform.ExactTypes{Cfg: cfg})
	}
	return NewController(mod, nil, pipe, transform.RotatedMapping{})
}

func benchAddrs(ctrl *Controller, n int) []uint64 {
	rng := rand.New(rand.NewSource(77))
	capacity := uint64(ctrl.Module().Config().Capacity())
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = (uint64(rng.Int63()) * dram.LineBytes) % capacity
	}
	return addrs
}

func benchLines(n int) [][64]byte {
	rng := rand.New(rand.NewSource(78))
	lines := make([][64]byte, n)
	for i := range lines {
		rng.Read(lines[i][:])
	}
	return lines
}

func BenchmarkWriteLine(b *testing.B) {
	const working = 1024
	lines := benchLines(working)
	for _, codec := range []string{"raw", "pipeline"} {
		ctrl := benchController(codec)
		addrs := benchAddrs(ctrl, working)
		b.Run(codec+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % working
				if err := ctrl.writeLineScalar(addrs[k], lines[k], 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(codec+"/batched", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % working
				if err := ctrl.WriteLine(addrs[k], lines[k], 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReadLine(b *testing.B) {
	const working = 1024
	lines := benchLines(working)
	for _, codec := range []string{"raw", "pipeline"} {
		ctrl := benchController(codec)
		addrs := benchAddrs(ctrl, working)
		for k := range addrs {
			if err := ctrl.WriteLine(addrs[k], lines[k], 0); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(codec+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ctrl.readLineScalar(addrs[i%working], 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(codec+"/batched", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ctrl.ReadLine(addrs[i%working], 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWriteZeroRow(b *testing.B) {
	for _, codec := range []string{"raw", "pipeline"} {
		ctrl := benchController(codec)
		addrs := benchAddrs(ctrl, 256)
		b.Run(codec+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ctrl.writeZeroRowScalar(addrs[i%len(addrs)], 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(codec+"/batched", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ctrl.WriteZeroRow(addrs[i%len(addrs)], 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulateClosedLoop times one Figure 17 closed-loop run: the
// 8-bank rank at the paper-scale AR cadence, 4 cores x MLP 4 over a 2 ms
// horizon, a tpch-q5-like request mix, under a recorded per-AR schedule in
// which most commands are partly skipped. One op is one whole run, which
// builds its per-run refresh windows and bank state.
func BenchmarkSimulateClosedLoop(b *testing.B) {
	t := dram.DefaultTiming()
	cfg := ClosedLoopConfig{
		Perf: PerfConfig{
			Banks:       8,
			ARInterval:  t.TRET / 8192,
			HitService:  t.TCAS + t.TBurst,
			MissService: t.TRP + t.TRCD + t.TCAS + t.TBurst,
		},
		Cores: 4, MLP: 4,
		ThinkNs:    4 * 100 * 0.55 / 4.0, // MLP x instructions/miss x CPI / GHz
		RowHitRate: 0.70, WriteFrac: 0.25, Seed: 1,
	}
	rng := rand.New(rand.NewSource(3))
	busy := make([][]dram.Time, cfg.Perf.Banks)
	for bk := range busy {
		busy[bk] = make([]dram.Time, 1024)
		for k := range busy[bk] {
			busy[bk][k] = dram.Time(rng.Intn(350))
		}
	}
	sched := SliceSchedule{Busy: busy}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := SimulateClosedLoop(cfg, sched, 2*dram.Millisecond); r.Reads == 0 {
			b.Fatal("no requests completed")
		}
	}
}
