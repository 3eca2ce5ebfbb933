package main

import (
	"strings"
	"testing"
)

func TestRunAllocGateClean(t *testing.T) {
	dir := t.TempDir()
	path := writeReport(t, dir, "clean.json", rep(
		result{Name: "BenchmarkRefreshGroup/discharged", Package: "internal/dram", NsPerOp: 40},
		result{Name: "BenchmarkWindowsEvent/idle99", Package: "internal/core", NsPerOp: 780156, BytesPerOp: 627, AllocsPerOp: 9},
	))
	var out strings.Builder
	if err := runAllocGate(path, &out); err != nil {
		t.Fatalf("clean gate failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "1 steady-state benchmark(s) checked, 0 violation(s)") {
		t.Fatalf("unexpected summary:\n%s", out.String())
	}
}

func TestRunAllocGateFlagsSteadyStateAllocs(t *testing.T) {
	dir := t.TempDir()
	path := writeReport(t, dir, "dirty.json", rep(
		result{Name: "BenchmarkFillRowWords/cow", Package: "internal/dram", NsPerOp: 90, BytesPerOp: 48, AllocsPerOp: 1},
		result{Name: "BenchmarkWriteLine/raw/batched", Package: "internal/memctrl", NsPerOp: 148},
	))
	var out strings.Builder
	err := runAllocGate(path, &out)
	if err == nil {
		t.Fatalf("allocating steady-state benchmark not fatal:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ALLOCS: internal/dram.BenchmarkFillRowWords/cow 1 allocs/op") {
		t.Fatalf("violation not reported:\n%s", out.String())
	}
}

func TestRunAllocGateExemptOnlyIsError(t *testing.T) {
	dir := t.TempDir()
	path := writeReport(t, dir, "exempt.json", rep(
		result{Name: "BenchmarkWindowsDense/idle50", Package: "internal/core", NsPerOp: 1, AllocsPerOp: 200}))
	var out strings.Builder
	if err := runAllocGate(path, &out); err == nil {
		t.Fatal("gate with nothing to audit should fail loudly")
	}
}

func TestRunAllocGateRejectsBadFile(t *testing.T) {
	var out strings.Builder
	if err := runAllocGate("no-such-file.json", &out); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

func TestRunAllocGateExemptsOnlyWholeRuns(t *testing.T) {
	// A whole closed-loop run builds per-run state and is exempt; the
	// per-access hierarchy and per-line image paths are audited.
	dir := t.TempDir()
	path := writeReport(t, dir, "mixed.json", rep(
		result{Name: "BenchmarkSimulateClosedLoop", Package: "internal/memctrl", NsPerOp: 2e7, BytesPerOp: 173000, AllocsPerOp: 90},
		result{Name: "BenchmarkHierarchyAccess", Package: "internal/cache", NsPerOp: 130, BytesPerOp: 16, AllocsPerOp: 1},
		result{Name: "BenchmarkImageLineAt", Package: "internal/workload", NsPerOp: 50},
	))
	var out strings.Builder
	if err := runAllocGate(path, &out); err == nil {
		t.Fatalf("allocating hierarchy access not fatal:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "2 steady-state benchmark(s) checked, 1 violation(s)") ||
		!strings.Contains(out.String(), "ALLOCS: internal/cache.BenchmarkHierarchyAccess") {
		t.Fatalf("unexpected report:\n%s", out.String())
	}
}
