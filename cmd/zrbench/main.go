// Command zrbench runs the simulator's hot-path microbenchmarks and emits a
// machine-readable performance baseline. The committed BENCH_10.json at the
// repository root is its output: regenerate with `make perfbench` after any
// datapath or scheduler change. The suite covers the line-granular
// scalar/batched pairs, the arena/CoW storage primitives, the event-queue
// primitives, the dense-vs-event window drivers at several idle ratios, and
// the workload content generator (per-line, cursor and whole-page fill).
//
// The report schema is deterministic — a fixed benchmark set, names sorted,
// GOMAXPROCS suffixes stripped — so two runs differ only in the measured
// ns/op values, never in shape. With -count > 1 each benchmark's lowest
// ns/op repetition is kept: the least-interference measurement, which is
// the stable quantity on shared runners.
//
// The -diff mode compares two baselines and fails on regressions, which is
// how CI gates a PR against the previous baseline generation:
//
//	zrbench -diff BENCH_9.json,BENCH_10.json -tolerance 0.10
//
// Only benchmarks present in both files are compared (a new generation may
// add suites); a shared benchmark more than tolerance slower fails.
//
// The -allocgate mode audits a committed baseline's allocs/op column: every
// benchmark in the steady-state set (everything except the whole-window
// drivers, which legitimately build per-window experiment state) must report
// exactly zero allocations per operation, or the gate fails. This is how CI
// pins the hot paths allocation-free without re-measuring them.
//
// Usage:
//
//	zrbench [-out BENCH_10.json] [-benchtime 100ms] [-count 1]
//	zrbench -diff OLD.json,NEW.json [-tolerance 0.10]
//	zrbench -allocgate BENCH_10.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// suite is one `go test -bench` invocation over a hot-path package.
type suite struct {
	pkg   string
	bench string
}

// suites is the fixed benchmark set of the baseline: the batched-datapath
// pairs in the controller and refresh engine, the arena/CoW storage and
// bitmap-scan primitives in the rank model, the transform kernels, the
// event-queue primitive, the dense-vs-event window drivers and the
// whole-page content fill, the introspection plane's trace tee, the
// trace-diff lockstep loop, and the content generator's per-line and
// cursor paths.
var suites = []suite{
	{"./internal/dram", "BenchmarkFillRowWords|BenchmarkRefreshGroup|BenchmarkReplayRefreshGroup|BenchmarkNextRetentionDeadline"},
	{"./internal/memctrl", "BenchmarkWriteLine|BenchmarkReadLine|BenchmarkWriteZeroRow"},
	{"./internal/refresh", "BenchmarkAutoRefreshSet"},
	{"./internal/transform", "BenchmarkBitPlaneInverse|BenchmarkPipelineEncodeDecode"},
	{"./internal/engine", "BenchmarkEventQueuePushPop"},
	{"./internal/core", "BenchmarkWindowsDense|BenchmarkWindowsEvent|BenchmarkFillPageFromProfile"},
	{"./internal/obs", "BenchmarkFlightRecorderEmit"},
	{"./internal/attr", "BenchmarkDiffLockstep"},
	{"./internal/workload", "BenchmarkLineAt|BenchmarkContentCursor"},
}

// result is one benchmark measurement.
type result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// report is the BENCH_10.json document.
type report struct {
	Schema     string   `json:"schema"`
	BenchTime  string   `json:"benchtime"`
	Benchmarks []result `json:"benchmarks"`
}

// gomaxprocsSuffix is the `-8` style suffix the testing package appends to
// benchmark names; it varies by machine, so the baseline strips it.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts benchmark results from `go test -bench -benchmem`
// output. Non-benchmark lines (goos/pkg headers, PASS, ok) are skipped.
func parseBench(pkg string, out []byte) ([]result, error) {
	var results []result
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		r := result{
			Name:    gomaxprocsSuffix.ReplaceAllString(fields[0], ""),
			Package: pkg,
		}
		rest := fields[2:]
		for i := 0; i+1 < len(rest); i += 2 {
			v, err := strconv.ParseFloat(rest[i], 64)
			if err != nil {
				return nil, fmt.Errorf("parsing %q of %q: %v", rest[i], line, err)
			}
			switch rest[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			}
		}
		if r.NsPerOp == 0 {
			return nil, fmt.Errorf("no ns/op in benchmark line %q", line)
		}
		results = append(results, r)
	}
	return results, nil
}

// minByBench collapses -count repetitions of the same benchmark into the
// repetition with the lowest ns/op: the measurement with the least
// scheduler/noisy-neighbor interference, which is the stable quantity on
// shared runners. Order of first appearance is preserved (run sorts the
// final set anyway).
func minByBench(all []result) []result {
	idx := make(map[string]int, len(all))
	var folded []result
	for _, r := range all {
		key := r.Package + "." + r.Name
		if i, ok := idx[key]; ok {
			if r.NsPerOp < folded[i].NsPerOp {
				folded[i] = r
			}
			continue
		}
		idx[key] = len(folded)
		folded = append(folded, r)
	}
	return folded
}

func run(out, benchtime string, count int) error {
	var all []result
	for _, s := range suites {
		args := []string{"test", "-run", "^$", "-bench", s.bench, "-benchmem",
			"-benchtime", benchtime, "-count", strconv.Itoa(count), s.pkg}
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		output, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, output)
		}
		results, err := parseBench(strings.TrimPrefix(s.pkg, "./"), output)
		if err != nil {
			return err
		}
		if len(results) == 0 {
			return fmt.Errorf("%s: no benchmarks matched %q", s.pkg, s.bench)
		}
		all = append(all, results...)
	}
	all = minByBench(all)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Package != all[j].Package {
			return all[i].Package < all[j].Package
		}
		return all[i].Name < all[j].Name
	})
	doc, err := json.MarshalIndent(report{
		Schema: "zrbench/1", BenchTime: benchtime, Benchmarks: all,
	}, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(doc)
		return err
	}
	return os.WriteFile(out, doc, 0o644)
}

func main() {
	out := flag.String("out", "BENCH_10.json", "output file, or - for stdout")
	benchtime := flag.String("benchtime", "100ms", "per-benchmark measurement time (go test -benchtime)")
	count := flag.Int("count", 1, "benchmark repetitions (go test -count)")
	diffFiles := flag.String("diff", "", "compare two baselines (OLD.json,NEW.json) instead of benchmarking; exits 1 on regressions")
	tolerance := flag.Float64("tolerance", 0.10, "with -diff, allowed fractional ns/op slowdown in shared benchmarks")
	allocGate := flag.String("allocgate", "", "audit a baseline's steady-state benchmarks for allocs/op == 0; exits 1 on violations")
	flag.Parse()
	if *diffFiles != "" {
		if err := runDiff(*diffFiles, *tolerance, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "zrbench:", err)
			os.Exit(1)
		}
		return
	}
	if *allocGate != "" {
		if err := runAllocGate(*allocGate, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "zrbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*out, *benchtime, *count); err != nil {
		fmt.Fprintln(os.Stderr, "zrbench:", err)
		os.Exit(1)
	}
}
