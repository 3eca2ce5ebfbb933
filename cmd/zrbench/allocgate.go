package main

import (
	"fmt"
	"io"
	"regexp"
)

// Allocation gate: the CI check that the steady-state hot paths stay
// allocation-free.
//
// The perf work that keeps the simulator fast leans on a simple global
// invariant — after warm-up, the per-operation paths (line reads/writes,
// refresh groups, bitmap scans, idle replay, transform kernels, event-queue
// churn) never touch the allocator. A single escaped closure or interface
// boxing on one of these paths shows up as allocs/op > 0 in the committed
// baseline long before it shows up as a ns/op regression, so the gate audits
// the allocs/op column of the baseline directly instead of re-measuring.
//
// The benchmark set is pinned in the binary rather than configured: a gate
// that a PR can re-scope in the same commit that regresses it gates nothing.
// Only whole-experiment benchmarks are exempt, because each op there builds
// per-run state by design: the whole-window drivers (internal/core
// BenchmarkWindows*) build modules, engines and tracers, and one Figure 17
// closed-loop run (internal/memctrl BenchmarkSimulateClosedLoop) builds its
// refresh windows, bank tables and slot heap.

// allocExempt matches the benchmark keys (package.Name) whose operations
// legitimately allocate. Everything else in the baseline must be zero.
var allocExempt = regexp.MustCompile(`^internal/core\.BenchmarkWindows(Dense|Event)/|^internal/memctrl\.BenchmarkSimulateClosedLoop$`)

// runAllocGate implements the -allocgate mode: load a baseline and fail if
// any non-exempt benchmark reports a nonzero allocs/op.
func runAllocGate(file string, w io.Writer) error {
	r, err := loadReport(file)
	if err != nil {
		return err
	}
	var checked, violations int
	for _, b := range r.Benchmarks {
		key := benchKey(b)
		if allocExempt.MatchString(key) {
			continue
		}
		checked++
		if b.AllocsPerOp != 0 {
			violations++
			fmt.Fprintf(w, "  ALLOCS: %s %d allocs/op, %d B/op (steady-state paths must be allocation-free)\n",
				key, b.AllocsPerOp, b.BytesPerOp)
		}
	}
	fmt.Fprintf(w, "zrbench allocgate: %d steady-state benchmark(s) checked, %d violation(s)\n",
		checked, violations)
	if violations > 0 {
		return fmt.Errorf("%d steady-state benchmark(s) allocate per op", violations)
	}
	if checked == 0 {
		return fmt.Errorf("%s: no steady-state benchmarks to audit", file)
	}
	return nil
}
