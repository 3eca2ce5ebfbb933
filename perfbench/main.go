// Command perfbench is the repository benchmark: it runs one named workload
// of the simulator for a fixed number of seconds, checks every output, and
// prints its metrics. With --trace 0 it reports the end-to-end metrics;
// with --trace 1 the per-layer metrics. See README.md.
//
//	perfbench --workload refresh_matrix --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 92, "failed": 0, "metrics": {"wall_s": {"value": 5.1, "unit": "s"}, ...}}
//
// The exit code is 0 only when every output check passed.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run: host costs a user of the
// simulator sees, as medians over the run's iterations.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"units_per_s", "units/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, as means over its traced
// iterations. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	// Sampled CPU by package (self time of the leaf frame).
	{"profile.sampled_cpu_s", "s"},
	{"workload.cpu_s", "s"},
	{"rng.cpu_s", "s"},
	{"transform.cpu_s", "s"},
	{"memctrl.cpu_s", "s"},
	{"dram.cpu_s", "s"},
	{"refresh.cpu_s", "s"},
	{"metrics.cpu_s", "s"},
	{"core.cpu_s", "s"},
	{"engine.cpu_s", "s"},
	{"cache.cpu_s", "s"},
	{"sim.cpu_s", "s"},
	{"runtime.cpu_s", "s"},
	{"other.cpu_s", "s"},
	// Sampled CPU cumulative under public entry points.
	{"workload.LineAt.cum_s", "s"},
	{"workload.AccessGen.cum_s", "s"},
	{"transform.Encode.cum_s", "s"},
	{"transform.Decode.cum_s", "s"},
	{"memctrl.WriteLine.cum_s", "s"},
	{"memctrl.ReadLine.cum_s", "s"},
	{"memctrl.WriteZeroRow.cum_s", "s"},
	{"memctrl.SimulateClosedLoop.cum_s", "s"},
	{"core.FillPageFromProfile.cum_s", "s"},
	{"core.CleansePage.cum_s", "s"},
	{"core.RunUntil.cum_s", "s"},
	{"core.RunWindow.cum_s", "s"},
	{"refresh.RunCycle.cum_s", "s"},
	{"refresh.ReplayIdleCycles.cum_s", "s"},
	{"cache.Access.cum_s", "s"},
	{"host_ns_per_line", "ns"},
	{"host_us_per_window", "us"},
	// Counts read through the program's public stats.
	{"transform.ops", "count"},
	{"ctrl.lines_written", "count"},
	{"ctrl.lines_read", "count"},
	{"dram.materialized_rows", "count"},
	{"dram.cow_hits", "count"},
	{"refresh.ar_commands", "count"},
	{"refresh.fully_skipped_ars", "count"},
	{"refresh.skip_ratio", "ratio"},
	{"core.windows", "count"},
	{"core.replayed_frac", "ratio"},
	{"engine.events_popped", "count"},
	{"cache.l1_miss_ratio", "ratio"},
	{"cache.l2_miss_ratio", "ratio"},
	{"core.fills", "count"},
	{"core.writebacks", "count"},
	// Spans the harness records around its own calls.
	{"sim.RunScenario.samples", "count"},
	{"sim.RunScenario.p50_ms", "ms"},
	{"sim.RunScenario.tail_ms", "ms"},
	{"sim.RunIPC.samples", "count"},
	{"sim.RunIPC.p50_ms", "ms"},
	{"core.burst.samples", "count"},
	{"core.burst.p50_us", "us"},
	{"core.burst.tail_us", "us"},
	{"core.NewSystem.s", "s"},
	{"core.populate.s", "s"},
	// Go runtime.
	{"runtime.alloc_bytes", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.peak_heap_bytes", "bytes"},
	// The run as a whole.
	{"trace_overhead_frac", "ratio"},
	{"paper_err", "ratio"},
	{"failed_frac", "ratio"},
}

func main() {
	if os.Getenv(childEnv) != "" {
		if err := childMain(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

// childProcs is the GOMAXPROCS every iteration runs with. On the shared
// 2-vCPU guest the benchmark was built on, runs that kept both vCPUs busy
// were the noisiest (five back-to-back runs of refresh_matrix spread 54%
// in wall time). The fan-out workloads still go through engine.ForEach,
// with one worker.
const childProcs = 1

// options configure one benchmark invocation.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	scale   string
}

// parentMain parses the command line, runs the named workload (or all of
// them) and returns the exit code.
func parentMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Uint64("seed", 1, "workload seed; the reference outputs are for seed 1")
	seconds := fs.Float64("seconds", 30, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	scale := fs.String("scale", "full", "full, or tiny for a quick smoke run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	opts := options{seed: *seed, seconds: *seconds, traced: *trace == 1, scale: *scale}
	var todo []*workloadDef
	if *name == "all" {
		todo = workloads
	} else if w, ok := workloadByName(*name); ok {
		todo = []*workloadDef{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	code := 0
	for _, w := range todo {
		res, err := runWorkload(exe, w, opts, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		printResult(stdout, w, opts, res)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func scaleParams(w *workloadDef, scale string) (params, error) {
	switch scale {
	case "full":
		return w.full, nil
	case "tiny":
		return w.tiny, nil
	}
	return nil, fmt.Errorf("unknown scale %q", scale)
}

// measurement is one child iteration as the parent saw it.
type measurement struct {
	traced bool
	wall   time.Duration
	cpu    time.Duration
	rec    childRecord
	// err is set when the child produced no usable record.
	err error
}

// result is the outcome of one workload run.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]float64
	// Runs are the iterations as measured, for the per-iteration report.
	Runs   []measurement
	Digest string
	// Reference is "match", "mismatch" or "none" (no reference for this
	// seed and scale).
	Reference string
	Params    params
	Failures  []string
}

// runWorkload runs iterations of w, alternating untraced and traced ones
// in a traced run, until the next iteration would overrun opts.seconds
// (but at least one of each kind), then checks and summarizes them.
func runWorkload(exe string, w *workloadDef, opts options, stderr io.Writer) (result, error) {
	p, err := scaleParams(w, opts.scale)
	if err != nil {
		return result{}, err
	}
	start := time.Now()
	var runs []measurement
	var longest time.Duration
	var untraced, traced int
	for {
		tr := opts.traced && untraced > traced
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(opts.seed), "-scale", opts.scale, fmt.Sprintf("-trace=%t", tr)}
		m := spawn(exe, args, stderr)
		m.traced = tr
		runs = append(runs, m)
		if tr {
			traced++
		} else {
			untraced++
		}
		longest = max(longest, m.wall)
		enough := untraced > 0 && (!opts.traced || traced > 0)
		if enough && time.Since(start)+longest > time.Duration(opts.seconds*float64(time.Second)) {
			break
		}
	}
	return summarize(w, p, opts, runs), nil
}

// spawn runs one child iteration and measures it.
func spawn(exe string, args []string, stderr io.Writer) measurement {
	var m measurement
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1", fmt.Sprintf("GOMAXPROCS=%d", childProcs))
	cmd.Stdout = &out
	cmd.Stderr = stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		m.err = err
		return m
	}
	waitErr := cmd.Wait()
	m.wall = time.Since(t0)
	m.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if waitErr != nil {
		m.err = fmt.Errorf("child %v: %w", args, waitErr)
		return m
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &m.rec); err != nil {
		m.err = fmt.Errorf("child %v: bad record: %w", args, err)
	}
	return m
}

// summarize checks every iteration's outputs — against the first
// iteration that produced outputs, and against the recorded reference for
// the seed and scale when there is one — and reduces the measurements to
// the run's metrics.
func summarize(w *workloadDef, p params, opts options, runs []measurement) result {
	res := result{Params: p, Runs: runs, Reference: "none", Metrics: map[string]float64{}}
	units := w.units(p)
	ref, haveRef := reference[referenceKey(w.name, opts.seed, p)]
	var base *childRecord
	for i := range runs {
		m := &runs[i]
		res.Attempted += units
		why := ""
		switch {
		case m.err != nil:
			why = m.err.Error()
		case m.rec.Error != "":
			why = m.rec.Error
		case haveRef && m.rec.Digest != ref:
			why = fmt.Sprintf("output digest %s differs from the reference %s", m.rec.Digest, ref)
		}
		if why != "" {
			res.Failed += units
			res.Failures = append(res.Failures, fmt.Sprintf("iteration %d: %s", i, why))
			continue
		}
		if base == nil {
			base = &m.rec
			res.Digest = m.rec.Digest
			continue
		}
		if failed, why := compareRows(base.Rows, m.rec.Rows, units); failed > 0 {
			res.Failed += failed
			res.Failures = append(res.Failures, fmt.Sprintf("iteration %d (traced=%t): %s", i, m.traced, why))
		}
	}
	if haveRef {
		res.Reference = "match"
		if res.Failed > 0 {
			res.Reference = "mismatch"
		}
	}
	res.Correct = res.Failed == 0

	var wall, cpu, setup, rate, rss, tracedWall []float64
	for _, m := range runs {
		if m.err != nil || m.rec.Error != "" {
			continue
		}
		if m.traced {
			tracedWall = append(tracedWall, m.wall.Seconds())
			continue
		}
		wall = append(wall, m.wall.Seconds())
		cpu = append(cpu, m.cpu.Seconds())
		setup = append(setup, m.rec.SetupS)
		rate = append(rate, float64(units)/m.rec.MeasuredS)
		rss = append(rss, m.rec.PeakRSSMB)
	}
	if !opts.traced {
		res.Metrics["wall_s"] = median(wall)
		res.Metrics["cpu_s"] = median(cpu)
		res.Metrics["setup_s"] = median(setup)
		res.Metrics["units_per_s"] = median(rate)
		res.Metrics["peak_rss_mb"] = median(rss)
		return res
	}
	var n float64
	for _, m := range runs {
		if m.traced && m.err == nil && m.rec.Error == "" {
			n++
			for k, v := range m.rec.Layer {
				res.Metrics[k] += v
			}
		}
	}
	for k := range res.Metrics {
		res.Metrics[k] /= n
	}
	if len(wall) > 0 && len(tracedWall) > 0 {
		res.Metrics["trace_overhead_frac"] = median(tracedWall)/median(wall) - 1
	}
	res.Metrics["paper_err"] = -1
	if base != nil {
		res.Metrics["paper_err"] = base.PaperErr
	}
	res.Metrics["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	return res
}

// compareRows returns the units whose rows differ between two iterations.
func compareRows(want, got []row, total int64) (int64, string) {
	if len(want) != len(got) {
		return total, fmt.Sprintf("%d output rows, want %d", len(got), len(want))
	}
	var failed int64
	var first string
	for i := range want {
		if want[i].Name != got[i].Name || !slices.Equal(want[i].Vals, got[i].Vals) {
			failed += got[i].Units
			if first == "" {
				first = fmt.Sprintf("row %q = %v, want %v", got[i].Name, got[i].Vals, want[i].Vals)
			}
		}
	}
	if first != "" && failed == 0 {
		failed = 1 // a derived row differs: at least one unit is wrong
	}
	return failed, first
}

// median returns the median of v (0 when empty).
func median[T ~int64 | ~float64](v []T) T {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// printResult prints the run's provenance and metrics for a reader, then
// the result object as the last line.
func printResult(out io.Writer, w *workloadDef, opts options, res result) {
	trace := 0
	defs := endToEnd
	if opts.traced {
		trace, defs = 1, perLayer
	}
	var traced int
	for _, m := range res.Runs {
		if m.traced {
			traced++
		}
	}
	prov, _ := json.Marshal(map[string]any{
		"workload":   w.name,
		"seed":       opts.seed,
		"trace":      trace,
		"go":         runtime.Version(),
		"gomaxprocs": childProcs,
		"nproc":      runtime.NumCPU(),
		"revision":   vcsRevision(),
		"scale":      res.Params,
		"unit":       w.unit,
		"untraced":   len(res.Runs) - traced,
		"traced":     traced,
		"digest":     res.Digest,
		"reference":  res.Reference,
	})
	fmt.Fprintf(out, "# provenance %s\n", prov)
	for i, m := range res.Runs {
		fmt.Fprintf(out, "# iteration %d traced=%t wall_s=%.4f cpu_s=%.4f setup_s=%.6f measured_s=%.4f peak_rss_mb=%.2f\n",
			i, m.traced, m.wall.Seconds(), m.cpu.Seconds(), m.rec.SetupS, m.rec.MeasuredS, m.rec.PeakRSSMB)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(out, "# FAILED %s\n", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := res.Metrics[d.name]
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(out, "%-34s %16.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		// Only a NaN or infinite metric can fail to encode.
		panic(errors.Join(errors.New("perfbench: encoding result"), err))
	}
	fmt.Fprintf(out, "%s\n", line)
}

// vcsRevision reports the VCS revision the binary was built from, with a
// "+modified" suffix for a dirty tree, or "unknown" outside a repository.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if modified {
		rev += "+modified"
	}
	return rev
}
