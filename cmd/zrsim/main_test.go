package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"zerorefresh/internal/sim"
	"zerorefresh/internal/trace"
	"zerorefresh/internal/workload"
)

func quickOpts() sim.Options {
	p, _ := workload.ByName("sphinx3")
	return sim.Options{
		Capacity:   4 << 20,
		Windows:    2,
		Seed:       1,
		Benchmarks: []workload.Profile{p},
	}
}

func TestRunDispatchesEveryExperiment(t *testing.T) {
	o := quickOpts()
	for _, id := range []string{
		"table1", "table2", "fig4", "fig5", "fig6",
		"fig14", "fig15", "fig16", "fig17", "fig18",
		"cmdlevel", "power", "smoke", "timeline",
	} {
		if err := run(id, o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

func TestWriteTimelineAndTraceExporters(t *testing.T) {
	dir := t.TempDir()
	o := quickOpts()
	o.Trace = trace.New(1 << 8)
	o.Timeline = true
	_, epochs, err := sim.RunSmoke(o)
	if err != nil {
		t.Fatal(err)
	}
	csvPath := dir + "/m.csv"
	jsonPath := dir + "/m.json"
	tracePath := dir + "/t.json"
	if err := writeTimeline(csvPath, epochs); err != nil {
		t.Fatal(err)
	}
	if err := writeTimeline(jsonPath, epochs); err != nil {
		t.Fatal(err)
	}
	if err := writeTimeline("", epochs); err != nil {
		t.Fatalf("empty path must be a no-op, got %v", err)
	}
	if err := writeTrace(tracePath, o.Trace); err != nil {
		t.Fatal(err)
	}
	for path, prefix := range map[string]string{
		csvPath:   "window,start_ns",
		jsonPath:  "[",
		tracePath: `{"traceEvents":[`,
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(b), prefix) {
			t.Fatalf("%s: got prefix %q, want %q", path, string(b[:min(len(b), 40)]), prefix)
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run("fig99", quickOpts()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestMain lets a test re-run this binary as the zrsim command: with
// ZRSIM_RUN_MAIN set, the process runs main with the arguments that follow
// "--" instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("ZRSIM_RUN_MAIN") == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"zrsim"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNegativeScaleFlagsExitNonZero pins that a negative or explicitly zero
// -capacity or -windows exits 1 with a message naming the bad value instead
// of running with a default.
func TestNegativeScaleFlagsExitNonZero(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "fig14", "-windows", "-1"}, "negative"},
		{[]string{"-exp", "table1", "-capacity", "-8"}, "negative"},
		{[]string{"-exp", "table1", "-capacity", "0"}, "-capacity 0"},
		{[]string{"-exp", "table1", "-windows", "0"}, "-windows 0"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, tc.args...)...)
		cmd.Env = append(os.Environ(), "ZRSIM_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("zrsim %v: err = %v, want exit status 1\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Fatalf("zrsim %v: output does not contain %q:\n%s", tc.args, tc.want, out)
		}
	}
}
