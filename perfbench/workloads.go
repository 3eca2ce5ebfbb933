package main

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"zerorefresh/internal/core"
	"zerorefresh/internal/dram"
	"zerorefresh/internal/engine"
	"zerorefresh/internal/metrics"
	"zerorefresh/internal/ostrace"
	"zerorefresh/internal/sim"
	"zerorefresh/internal/workload"
)

// params are a workload's scale parameters, stamped on every result.
type params map[string]int

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	// unit names what units_per_s counts.
	unit string
	// full is the benchmark's scale; tiny keeps the harness tests fast.
	full, tiny params
	// units is the number of work units one iteration attempts.
	units func(params) int64
	// run executes one iteration: set-up, then x.begin(), the measured
	// calls, x.end(), then the output checks. It returns the outputs to
	// compare across iterations and against the reference.
	run func(x *iter) ([]row, error)
}

// row is one checked output: the values one unit (or a group of units)
// produced. A row whose values differ from the reference iteration fails
// its Units.
type row struct {
	Name  string    `json:"name"`
	Vals  []float64 `json:"vals"`
	Units int64     `json:"units"`
}

var workloads = []*workloadDef{refreshMatrix, idleWindows, execDriven, ipcTiming}

func workloadByName(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// Published suite means the accuracy metric compares against.
var (
	paperFig14 = []float64{0.629, 0.54, 0.43, 0.17}
	paperFig17 = 1.057
)

// refreshMatrix is the paper's headline experiment (Figure 14): every
// profile under the four allocation scenarios on the default dense driver.
var refreshMatrix = &workloadDef{
	name: "refresh_matrix",
	unit: "scenario units",
	full: params{"capacity_kb": 512, "windows": 1},
	tiny: params{"capacity_kb": 256, "windows": 1},
	units: func(params) int64 {
		return int64(len(workload.Benchmarks()) * len(sim.Scenarios()))
	},
	run: func(x *iter) ([]row, error) {
		o := sim.Options{
			Capacity:   int64(x.p["capacity_kb"]) << 10,
			Windows:    x.p["windows"],
			Seed:       x.seed,
			Benchmarks: workload.Benchmarks(),
		}
		scs := sim.Scenarios()
		x.begin()
		var t *sim.Table
		var err error
		if x.tr == nil {
			t, err = sim.RunFig14(o)
		} else {
			// One span per unit, fanned out through the program's own
			// worker pool exactly as RunFig14 fans them out.
			res := make([]sim.ScenarioResult, len(o.Benchmarks)*len(scs))
			err = engine.ForEach(len(res), func(i int) error {
				prof, sc := o.Benchmarks[i/len(scs)], scs[i%len(scs)]
				sp := x.tr.start("sim.RunScenario")
				r, err := sim.RunScenario(o, prof, sc.AllocFrac)
				x.tr.finish(sp)
				if err != nil {
					return fmt.Errorf("%s/%s: %w", prof.Name, sc.Name, err)
				}
				res[i] = r
				return nil
			})
			t = &sim.Table{}
			for _, sc := range scs {
				t.Columns = append(t.Columns, sc.Name)
			}
			snaps := make([]metrics.Snapshot, len(res))
			for i, prof := range o.Benchmarks {
				vals := make([]float64, len(scs))
				for j := range scs {
					vals[j] = res[i*len(scs)+j].NormRefresh
					snaps[i*len(scs)+j] = res[i*len(scs)+j].Metrics
				}
				t.AddRow(prof.Name, vals...)
			}
			t.AddMeanRow()
			x.countSnapshots(snaps...)
		}
		x.end()
		if err != nil {
			return nil, err
		}
		mean, ok := t.Find("MEAN")
		if !ok {
			return nil, errors.New("fig14: no MEAN row")
		}
		var sum float64
		for i, p := range paperFig14 {
			sum += math.Abs(mean.Values[i] - p)
		}
		x.paperErr = sum / float64(len(paperFig14))
		return tableRows(t, scs), nil
	},
}

// tableRows flattens a Figure 14 table into one row per (profile,
// scenario) unit plus the derived MEAN row, which fails no unit.
func tableRows(t *sim.Table, scs []sim.Scenario) []row {
	var out []row
	for _, r := range t.Rows {
		if r.Name == "MEAN" {
			out = append(out, row{Name: r.Name, Vals: r.Values})
			continue
		}
		for j, v := range r.Values {
			out = append(out, row{Name: r.Name + "/" + scs[j].Name, Vals: []float64{v}, Units: 1})
		}
	}
	return out
}

// ipcTiming is Figure 17: a content simulation per profile, then the
// closed-loop bank-queue timing model.
var ipcTiming = &workloadDef{
	name: "ipc_timing",
	unit: "profiles",
	full: params{"capacity_kb": 1024},
	tiny: params{"capacity_kb": 256},
	units: func(params) int64 {
		return int64(len(workload.Benchmarks()))
	},
	run: func(x *iter) ([]row, error) {
		o := sim.Options{
			Capacity:   int64(x.p["capacity_kb"]) << 10,
			Seed:       x.seed,
			Benchmarks: workload.Benchmarks(),
		}
		x.begin()
		var t *sim.Table
		var err error
		if x.tr == nil {
			t, err = sim.RunFig17(o)
		} else {
			res := make([]sim.IPCResult, len(o.Benchmarks))
			err = engine.ForEach(len(res), func(i int) error {
				sp := x.tr.start("sim.RunIPC")
				r, err := sim.RunIPC(o, o.Benchmarks[i])
				x.tr.finish(sp)
				res[i] = r
				return err
			})
			t = &sim.Table{Columns: []string{"base IPC", "ZR IPC", "normalized"}}
			for i, prof := range o.Benchmarks {
				t.AddRow(prof.Name, res[i].BaselineIPC, res[i].ZeroIPC, res[i].Speedup)
			}
			t.AddMeanRow()
		}
		x.end()
		if err != nil {
			return nil, err
		}
		var out []row
		for _, r := range t.Rows {
			units := int64(1)
			if r.Name == "MEAN" {
				units = 0
				x.paperErr = math.Abs(r.Values[2] - paperFig17)
			}
			out = append(out, row{Name: r.Name, Vals: r.Values, Units: units})
		}
		return out, nil
	},
}

// Idle-windows shape: a quarter of the rank populated, and every tenth
// retention window a burst of stores dirtying a few lines in each of a
// few pages.
const (
	idleProfile     = "mcf"
	idlePopulated   = 0.25
	idleBurstEvery  = 10
	idleBurstPages  = 4
	idleBurstLines  = 4
	idleBurstStream = 0x1d1e
)

// idleWindows is the long-uptime operating point on the event core.
var idleWindows = &workloadDef{
	name: "idle_windows",
	unit: "retention windows",
	full: params{"capacity_kb": 32768, "windows": 20000},
	tiny: params{"capacity_kb": 512, "windows": 400},
	units: func(p params) int64 {
		return int64(p["windows"])
	},
	run: func(x *iter) ([]row, error) {
		prof, _ := workload.ByName(idleProfile)
		cfg := core.DefaultConfig(int64(x.p["capacity_kb"]) << 10)
		cfg.Seed = x.seed
		sp := x.tr.start("core.NewSystem")
		sys, err := core.NewSystem(cfg)
		x.tr.finish(sp)
		if err != nil {
			return nil, err
		}

		sp = x.tr.start("core.populate")
		alloc := ostrace.NewAllocator(sys.Pages())
		var fillErr error
		alloc.OnAllocate = func(p int) {
			if err := sys.FillPageFromProfile(prof, p, x.seed, 0); err != nil && fillErr == nil {
				fillErr = err
			}
		}
		err = alloc.SetTargetFraction(idlePopulated)
		x.tr.finish(sp)
		if err = errors.Join(err, fillErr); err != nil {
			return nil, err
		}
		allocated := alloc.AllocatedPageIndices()
		sys.RunWindow() // the learning window

		before := sys.MetricsSnapshot()
		x.begin()
		windows := x.p["windows"]
		tret := sys.DRAM.Config().Timing.TRET
		base := sys.Clock
		linesPerPage := sys.DRAM.Config().RowBytes / dram.LineBytes
		version := make(map[uint64]uint64) // global line -> last version stored
		var burstErr error
		for w := 0; w < windows; w += idleBurstEvery {
			w := w
			sys.ScheduleWriteBurst(base+dram.Time(w)*tret, func(dram.Time) {
				bsp := x.tr.start("core.burst")
				for _, i := range workload.PickRows(workload.Hash(x.seed, idleBurstStream), w, len(allocated), idleBurstPages) {
					first := uint64(allocated[i] * linesPerPage)
					for _, ln := range workload.PickRows(workload.Hash(x.seed, idleBurstStream, first), w, linesPerPage, idleBurstLines) {
						gl := first + uint64(ln)
						err := sys.WriteLineAt(gl*dram.LineBytes, prof.LineAt(x.seed, gl, uint64(w)+1))
						burstErr = errors.Join(burstErr, err)
						version[gl] = uint64(w) + 1
					}
				}
				x.tr.finish(bsp)
			})
		}
		cycles := sys.RunUntil(base + dram.Time(windows)*tret)
		x.end()
		after := sys.MetricsSnapshot()
		if burstErr != nil {
			return nil, burstErr
		}
		if err := checkSystem(sys); err != nil {
			return nil, err
		}
		// Read back every line a burst stored, and the first line of every
		// populated page.
		for _, page := range allocated {
			gl := uint64(page * linesPerPage)
			if _, ok := version[gl]; !ok {
				version[gl] = 0
			}
		}
		for gl, v := range version {
			got, err := sys.ReadLineAt(gl * dram.LineBytes)
			if err != nil {
				return nil, err
			}
			if got != prof.LineAt(x.seed, gl, v) {
				return nil, fmt.Errorf("line %d does not hold version %d", gl, v)
			}
		}
		st := sys.EventStats()
		x.countSnapshots(after.Delta(before))
		x.counts["core.replayed_frac"] = float64(st.Replayed) / float64(st.Windows)
		x.counts["engine.events_popped"] = float64(st.Popped)
		return []row{{
			Name:  "horizon",
			Vals:  []float64{cycles.NormalizedRefresh(), float64(st.Popped), float64(st.Windows), float64(st.Replayed)},
			Units: int64(windows),
		}}, nil
	},
}

// Execution-driven shape, as in examples/executiondriven: four cores
// running the same profile on private working sets.
const (
	execProfile = "tpch-q5"
	execCores   = 4
)

// execDriven drives core.ExecutionDriver access streams through the cache
// hierarchies, with every LLC miss read back and verified.
var execDriven = &workloadDef{
	name: "exec_driven",
	unit: "core memory accesses",
	full: params{"capacity_kb": 16384, "phases": 4, "accesses": 400000},
	tiny: params{"capacity_kb": 16384, "phases": 2, "accesses": 5000},
	units: func(p params) int64 {
		return int64(execCores * p["phases"] * p["accesses"])
	},
	run: func(x *iter) ([]row, error) {
		prof, _ := workload.ByName(execProfile)
		cfg := core.DefaultConfig(int64(x.p["capacity_kb"]) << 10)
		cfg.Seed = x.seed
		sp := x.tr.start("core.NewSystem")
		sys, err := core.NewSystem(cfg)
		x.tr.finish(sp)
		if err != nil {
			return nil, err
		}

		// Each core's working set starts on its own page, pre-filled with
		// the version-0 image of the content its driver generates, so
		// every first fill verifies real content.
		rowBytes := uint64(sys.DRAM.Config().RowBytes)
		stride := (uint64(prof.WorkingSetBytes) + 2*rowBytes - 1) / rowBytes * rowBytes
		sp = x.tr.start("core.populate")
		drivers := make([]*core.ExecutionDriver, execCores)
		for c := range drivers {
			seed := x.seed*execCores + uint64(c)
			base := uint64(c) * stride
			if drivers[c], err = core.NewExecutionDriver(sys, prof, seed, base); err != nil {
				break
			}
			for a := base; a < base+uint64(prof.WorkingSetBytes) && err == nil; a += rowBytes {
				err = sys.FillPageFromProfile(prof, int(a/rowBytes), seed, 0)
			}
		}
		x.tr.finish(sp)
		if err != nil {
			return nil, err
		}
		sys.RunWindow() // the learning window

		before := sys.MetricsSnapshot()
		x.begin()
		vals, err := runPhases(x, sys, drivers)
		x.end()
		after := sys.MetricsSnapshot()
		if err != nil {
			return nil, err
		}
		if err := checkSystem(sys); err != nil {
			return nil, err
		}
		var l1Acc, l1Miss, l2Acc, l2Miss, fills, wbs float64
		for _, d := range drivers {
			acc, f, wb := d.Stats()
			vals = append(vals, float64(acc), float64(f), float64(wb))
			l1, l2 := d.Hierarchy().L1.Stats(), d.Hierarchy().L2.Stats()
			l1Acc, l1Miss = l1Acc+float64(l1.Accesses), l1Miss+float64(l1.Misses)
			l2Acc, l2Miss = l2Acc+float64(l2.Accesses), l2Miss+float64(l2.Misses)
			fills, wbs = fills+float64(f), wbs+float64(wb)
		}
		x.countSnapshots(after.Delta(before))
		x.counts["cache.l1_miss_ratio"] = l1Miss / l1Acc
		x.counts["cache.l2_miss_ratio"] = l2Miss / l2Acc
		x.counts["core.fills"] = fills
		x.counts["core.writebacks"] = wbs
		return []row{{Name: "phases+cores", Vals: vals, Units: int64(execCores * x.p["phases"] * x.p["accesses"])}}, nil
	},
}

// runPhases interleaves the drivers' access streams with retention
// windows and returns each window's refresh reduction.
func runPhases(x *iter, sys *core.System, drivers []*core.ExecutionDriver) ([]float64, error) {
	var reductions []float64
	for phase := 0; phase < x.p["phases"]; phase++ {
		for _, d := range drivers {
			if err := d.Run(x.p["accesses"]); err != nil {
				return nil, err
			}
		}
		st := sys.RunWindow()
		reductions = append(reductions, st.Reduction())
	}
	return reductions, nil
}

// checkSystem fails a run that lost data to retention.
func checkSystem(sys *core.System) error {
	if d := sys.DecayEvents(); d != 0 {
		return fmt.Errorf("%d retention failures", d)
	}
	return nil
}

// countSnapshots records the layer counters of metrics snapshots, summed
// over snapshots and ranks (sample names carry "rankN/" and "cpu/"
// prefixes).
func (x *iter) countSnapshots(snaps ...metrics.Snapshot) {
	sum := func(name string) float64 {
		var v float64
		for _, snap := range snaps {
			for _, s := range snap.Samples {
				if s.Name == name || strings.HasSuffix(s.Name, "/"+name) {
					if s.Kind == metrics.KindGauge {
						v += s.Float
					} else {
						v += float64(s.Int)
					}
				}
			}
		}
		return v
	}
	for metric, sample := range map[string]string{
		"transform.ops":             "transform.ops",
		"ctrl.lines_written":        "ctrl.lines_written",
		"ctrl.lines_read":           "ctrl.lines_read",
		"dram.materialized_rows":    "dram.storage.materialized_rows",
		"dram.cow_hits":             "dram.storage.cow_hits",
		"refresh.ar_commands":       "refresh.ar_commands",
		"refresh.fully_skipped_ars": "refresh.fully_skipped_ars",
		"core.windows":              "core.windows",
	} {
		x.counts[metric] = sum(sample)
	}
	if considered := sum("refresh.steps_considered"); considered > 0 {
		x.counts["refresh.skip_ratio"] = sum("refresh.steps_skipped") / considered
	}
}
