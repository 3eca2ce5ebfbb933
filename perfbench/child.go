package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Every measured iteration runs in a child process of its own, so wall
// time, CPU time, peak RSS and set-up time are those of one workload run.
// The parent re-executes its own binary with childEnv set; the child runs
// one iteration and prints a childRecord as JSON on standard output.

const childEnv = "PERFBENCH_CHILD"

// childRecord is what one iteration reports to the parent.
type childRecord struct {
	Rows      []row   `json:"rows"`
	Digest    string  `json:"digest"`
	MeasuredS float64 `json:"measured_s"`
	// SetupS is the CPU time (user + sys) the process had used when its
	// set-up ended, from exec on: the set-up work without the time the
	// process waited to be scheduled, which on a shared host can triple
	// the few milliseconds the fan-out workloads spend there.
	SetupS float64 `json:"setup_s"`
	// PeakRSSMB is the process's peak resident set (VmHWM). The parent
	// cannot take it from wait4: a child started with vfork, as os/exec
	// starts it, inherits the parent's high-water mark.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// PaperErr is the accuracy against the paper, -1 where the workload
	// has no published counterpart.
	PaperErr float64 `json:"paper_err"`
	// Layer holds the per-layer metrics of a traced iteration.
	Layer map[string]float64 `json:"layer,omitempty"`
	Error string             `json:"error,omitempty"`
}

// iter is the context of one iteration.
type iter struct {
	seed uint64
	p    params
	// tr records spans; nil in an untraced iteration.
	tr *tracer
	// setup is the process's CPU time when set-up ended.
	setup    time.Duration
	t0       time.Time
	measured time.Duration
	paperErr float64
	// counts holds layer counts read through the program's public stats.
	counts map[string]float64

	// A traced iteration profiles the measured phase: CPU samples into
	// prof, runtime statistics through rt.
	prof    bytes.Buffer
	rt      *runtimeSampler
	profErr error
}

// begin ends set-up and starts the measured phase.
func (x *iter) begin() {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	x.setup = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	if x.tr != nil {
		x.rt = startRuntimeSampler()
		x.profErr = pprof.StartCPUProfile(&x.prof)
	}
	x.t0 = time.Now()
}

// end closes the measured phase.
func (x *iter) end() {
	x.measured = time.Since(x.t0)
	if x.tr != nil {
		pprof.StopCPUProfile()
		x.rt.stop()
	}
}

// childMain runs one iteration as described by args and writes its record
// to stdout.
func childMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench-child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	traced := fs.Bool("trace", false, "record spans and a CPU profile")
	scale := fs.String("scale", "full", "full or tiny")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	p, err := scaleParams(w, *scale)
	if err != nil {
		return err
	}
	x := &iter{seed: *seed, p: p, paperErr: -1, counts: map[string]float64{}}
	rec, err := runIteration(w, x, *traced)
	if err != nil {
		return err
	}
	if rec.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(rec)
}

// peakRSSMB reads the process's peak resident set size from
// /proc/self/status.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runIteration runs one iteration of w, traced or not, and builds its
// record. Only a failure of the harness itself is returned as an error; a
// failure of the program lands in the record.
func runIteration(w *workloadDef, x *iter, traced bool) (childRecord, error) {
	if traced {
		x.tr = newTracer()
	}
	rows, runErr := w.run(x)
	rec := childRecord{Rows: rows, Digest: digest(rows), MeasuredS: x.measured.Seconds(), SetupS: x.setup.Seconds(), PaperErr: x.paperErr}
	if runErr != nil {
		rec.Error = runErr.Error()
	}
	if !traced || x.rt == nil { // untraced, or failed before the measured phase
		return rec, nil
	}
	if x.profErr != nil {
		return childRecord{}, x.profErr
	}
	samples, err := parseCPUProfile(x.prof.Bytes())
	if err != nil {
		return childRecord{}, err
	}
	rec.Layer = layerMetrics(x, fold(samples), x.rt)
	return rec, nil
}

// digest hashes the output rows: names and the exact bits of every value.
func digest(rows []row) string {
	h := sha256.New()
	var b [8]byte
	for _, r := range rows {
		fmt.Fprintf(h, "%s\x00%d\x00", r.Name, len(r.Vals))
		for _, v := range r.Vals {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// layerMetrics assembles a traced iteration's per-layer metrics from the
// folded profile, the spans, the workload's counts and the runtime.
func layerMetrics(x *iter, f folded, rt *runtimeSampler) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	m["profile.sampled_cpu_s"] = sec(f.TotalNS)
	for _, l := range layers {
		m[l+".cpu_s"] = sec(f.SelfNS[l])
	}
	m["runtime.cpu_s"] = sec(f.SelfNS["runtime"])
	m["other.cpu_s"] = sec(f.SelfNS["other"])
	for entry := range entryPoints {
		m[entry+".cum_s"] = sec(f.CumNS[entry])
	}
	for k, v := range x.counts {
		m[k] = v
	}
	if lines := x.counts["ctrl.lines_written"]; lines > 0 {
		m["host_ns_per_line"] = float64(f.CumNS["workload.LineAt"]) / lines
	}
	if windows := x.counts["core.windows"]; windows > 0 {
		m["host_us_per_window"] = float64(f.WindowNS) / 1e3 / windows
	}

	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	scen := x.tr.durations("sim.RunScenario")
	m["sim.RunScenario.samples"] = float64(len(scen))
	m["sim.RunScenario.p50_ms"] = ms(median(scen))
	m["sim.RunScenario.tail_ms"] = ms(tail(scen))
	ipc := x.tr.durations("sim.RunIPC")
	m["sim.RunIPC.samples"] = float64(len(ipc))
	m["sim.RunIPC.p50_ms"] = ms(median(ipc))
	burst := x.tr.durations("core.burst")
	m["core.burst.samples"] = float64(len(burst))
	m["core.burst.p50_us"] = us(median(burst))
	m["core.burst.tail_us"] = us(tail(burst))
	m["core.NewSystem.s"] = x.tr.total("core.NewSystem").Seconds()
	m["core.populate.s"] = x.tr.total("core.populate").Seconds()

	m["runtime.alloc_bytes"] = float64(rt.allocBytes)
	m["runtime.gc_cycles"] = float64(rt.gcCycles)
	m["runtime.peak_heap_bytes"] = float64(rt.peakHeap)
	return m
}

// runtimeSampler tracks the Go runtime's allocation, GC and peak live
// heap over the measured phase of a traced iteration. The peak is sampled
// every few milliseconds by a goroutine that stop waits for.
type runtimeSampler struct {
	start    []metrics.Sample
	done     chan struct{}
	exited   chan struct{}
	peakHeap uint64

	allocBytes, gcCycles uint64
}

const (
	rtAllocs = "/gc/heap/allocs:bytes"
	rtGC     = "/gc/cycles/total:gc-cycles"
	rtHeap   = "/memory/classes/heap/objects:bytes"
)

func readRuntime() []metrics.Sample {
	s := []metrics.Sample{{Name: rtAllocs}, {Name: rtGC}, {Name: rtHeap}}
	metrics.Read(s)
	return s
}

func startRuntimeSampler() *runtimeSampler {
	r := &runtimeSampler{start: readRuntime(), done: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(r.exited)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if h := readRuntime()[2].Value.Uint64(); h > r.peakHeap {
				r.peakHeap = h
			}
			select {
			case <-r.done:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// stop ends sampling and records the allocation and GC deltas.
func (r *runtimeSampler) stop() {
	close(r.done)
	<-r.exited
	end := readRuntime()
	r.allocBytes = end[0].Value.Uint64() - r.start[0].Value.Uint64()
	r.gcCycles = end[1].Value.Uint64() - r.start[1].Value.Uint64()
}
