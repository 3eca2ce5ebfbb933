package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// parent re-executes itself as a child iteration.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		if err := childMain(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(2)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkFile is the subset of BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkFileNamesTheHarnessWorkloads(t *testing.T) {
	b := readBenchmarkFile(t)
	var got []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	if want := workloadNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads = %v, harness has %v", got, want)
	}
}

// TestTinyRunEmitsBenchmarkMetrics runs every workload at the tiny scale,
// untraced and traced, through the same parent/child path the benchmark
// uses, and checks the result line against BENCHMARK.json.
func TestTinyRunEmitsBenchmarkMetrics(t *testing.T) {
	b := readBenchmarkFile(t)
	want := map[int]map[string]string{0: {}, 1: {}}
	for _, m := range b.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, trace), func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := parentMain([]string{"--workload", w.name, "--seed", "3", "--seconds", "0",
					"--trace", fmt.Sprint(trace), "--scale", "tiny"}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   *bool `json:"correct"`
					Attempted *int64
					Failed    *int64
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 ||
					res.Failed == nil || *res.Failed != 0 {
					t.Fatalf("result = %s", lines[len(lines)-1])
				}
				got := map[string]string{}
				for name, v := range res.Metrics {
					got[name] = v.Unit
					if !metricName.MatchString(name) {
						t.Errorf("metric name %q does not match %s", name, metricName)
					}
					if v.Value == nil {
						t.Errorf("metric %s has no value", name)
					} else if trace == 0 && *v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, *v.Value)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want[trace]) {
					t.Errorf("metrics = %v\nBENCHMARK.json = %v", got, want[trace])
				}
			})
		}
	}
}

// TestLayerMetricsAreDeclared checks that a traced iteration emits only
// declared per-layer metrics, so none is silently dropped.
func TestLayerMetricsAreDeclared(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	x := &iter{tr: newTracer(), counts: map[string]float64{
		"transform.ops": 1, "core.windows": 1, "ctrl.lines_written": 1,
	}}
	x.counts["core.replayed_frac"] = 0.5
	for name := range layerMetrics(x, fold(nil), &runtimeSampler{}) {
		if !declared[name] {
			t.Errorf("layer metric %q is not declared in perLayer", name)
		}
	}
}

// TestTracedOutputsMatchUntraced runs each workload in-process, once
// untraced and once traced, and requires identical outputs.
func TestTracedOutputsMatchUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var recs [2]childRecord
			for i, traced := range []bool{false, true} {
				x := &iter{seed: 5, p: w.tiny, paperErr: -1, counts: map[string]float64{}}
				rec, err := runIteration(w, x, traced)
				if err != nil || rec.Error != "" {
					t.Fatalf("traced=%t: %v %s", traced, err, rec.Error)
				}
				recs[i] = rec
			}
			if recs[0].Digest != recs[1].Digest {
				t.Errorf("traced digest %s != untraced %s", recs[1].Digest, recs[0].Digest)
			}
			if failed, why := compareRows(recs[0].Rows, recs[1].Rows, 1); failed != 0 {
				t.Errorf("traced outputs differ: %s", why)
			}
			if recs[1].Layer == nil {
				t.Errorf("traced iteration has no layer metrics")
			}
		})
	}
}

// TestSummarizeCountsFailures feeds summarize synthetic iterations: a
// good one, a traced one whose outputs differ, one whose child failed, and
// checks the reference digest.
func TestSummarizeCountsFailures(t *testing.T) {
	w := refreshMatrix
	good := childRecord{Rows: []row{{"mcf/100% alloc", []float64{0.5}, 1}}, MeasuredS: 1}
	good.Digest = digest(good.Rows)
	bad := childRecord{Rows: []row{{"mcf/100% alloc", []float64{0.6}, 1}}, MeasuredS: 1}
	bad.Digest = digest(bad.Rows)
	runs := []measurement{
		{rec: good, wall: time.Second},
		{rec: bad, traced: true, wall: time.Second},
		{rec: childRecord{Error: "2 retention failures"}},
		{err: fmt.Errorf("child crashed")},
	}
	opts := options{seed: 7, traced: true}
	res := summarize(w, w.tiny, opts, runs)
	units := w.units(w.tiny)
	if res.Correct || res.Attempted != 4*units || res.Failed != 1+2*units {
		t.Errorf("correct=%t attempted=%d failed=%d, want false %d %d", res.Correct, res.Attempted, res.Failed, 4*units, 1+2*units)
	}
	if len(res.Failures) != 3 {
		t.Errorf("failures = %q", res.Failures)
	}

	key := referenceKey(w.name, opts.seed, w.tiny)
	reference[key] = bad.Digest
	defer delete(reference, key)
	res = summarize(w, w.tiny, opts, runs[:1])
	if res.Correct || res.Failed != units || res.Reference != "mismatch" {
		t.Errorf("reference mismatch: correct=%t failed=%d reference=%s", res.Correct, res.Failed, res.Reference)
	}
	reference[key] = good.Digest
	if res = summarize(w, w.tiny, opts, runs[:1]); !res.Correct || res.Reference != "match" {
		t.Errorf("reference match: correct=%t reference=%s", res.Correct, res.Reference)
	}
}

func TestCompareRowsCountsFailedUnits(t *testing.T) {
	want := []row{{"a", []float64{1}, 1}, {"b", []float64{2, 3}, 5}, {"MEAN", []float64{2}, 0}}
	got := []row{{"a", []float64{1}, 1}, {"b", []float64{2, 4}, 5}, {"MEAN", []float64{2}, 0}}
	if n, _ := compareRows(want, got, 6); n != 5 {
		t.Errorf("one changed row of 5 units: failed = %d, want 5", n)
	}
	got[1].Vals[1], got[2].Vals[0] = 3, 9
	if n, _ := compareRows(want, got, 6); n != 1 {
		t.Errorf("changed derived row: failed = %d, want 1", n)
	}
	if n, _ := compareRows(want, got[:2], 6); n != 6 {
		t.Errorf("missing row: failed = %d, want all 6", n)
	}
}

func TestTailIsEleventhLargest(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 92; i++ {
		d = append(d, time.Duration(i))
	}
	if got := tail(d); got != 82 {
		t.Errorf("tail of 1..92 = %d, want 82 (ten samples beyond it)", got)
	}
	if got := tail(d[:5]); got != 5 {
		t.Errorf("tail of 5 samples = %d, want the maximum", got)
	}
	if got := median(d[:4]); got != 2 {
		t.Errorf("median of 1..4 = %d, want 2", got)
	}
}

// pb is a minimal protobuf writer for building synthetic profiles.
type pb struct{ bytes.Buffer }

func (p *pb) varint(field int, v uint64) {
	p.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	p.Write(binary.AppendUvarint(nil, v))
}

func (p *pb) bytesField(field int, b []byte) {
	p.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	p.Write(binary.AppendUvarint(nil, uint64(len(b))))
	p.Write(b)
}

func (p *pb) packed(field int, vs ...uint64) {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	p.bytesField(field, b)
}

// TestFoldSyntheticProfile folds a hand-built profile: an inlined frame,
// packed and unpacked repeated fields, runtime and other leaves, and a
// recursive stack that must count once per entry point.
func TestFoldSyntheticProfile(t *testing.T) {
	strs := []string{"",
		"samples", "count", "cpu", "nanoseconds",
		module + "workload.Profile.LineAt",            // 5
		module + "core.(*System).FillPageFromProfile", // 6
		module + "rng.Hash",                           // 7
		"runtime.mallocgc",                            // 8
		"main.main",                                   // 9
		module + "core.(*System).RunWindow",           // 10
		"internal/runtime/maps.(*Map).getWithKey",     // 11
	}
	var prof pb
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		var vt pb
		vt.varint(1, st[0])
		vt.varint(2, st[1])
		prof.bytesField(1, vt.Bytes())
	}
	sample := func(ns uint64, packed bool, locs ...uint64) {
		var s pb
		if packed {
			s.packed(1, locs...)
			s.packed(2, 1, ns)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
			s.varint(2, 1)
			s.varint(2, ns)
		}
		prof.bytesField(2, s.Bytes())
	}
	// Leaf rng.Hash inlined into LineAt (location 1 has two lines), called
	// from FillPageFromProfile, from main.
	sample(100, true, 1, 2, 3)
	// Leaf runtime.mallocgc under LineAt.
	sample(30, false, 4, 1, 2, 3)
	// Recursive RunWindow -> RunWindow with a swiss-map leaf.
	sample(7, true, 6, 5, 5, 3)
	location := func(id uint64, fns ...uint64) {
		var l pb
		l.varint(1, id)
		for _, fn := range fns {
			var ln pb
			ln.varint(1, fn)
			ln.varint(2, 42)
			l.bytesField(4, ln.Bytes())
		}
		prof.bytesField(4, l.Bytes())
	}
	location(1, 7, 5) // rng.Hash inlined into LineAt
	location(2, 6)
	location(3, 9)
	location(4, 8)
	location(5, 10)
	location(6, 11)
	for id := uint64(5); id <= 11; id++ {
		var fn pb
		fn.varint(1, id)
		fn.varint(2, id)
		prof.bytesField(5, fn.Bytes())
	}
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()

	samples, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 || len(samples[0].Stack) != 4 || samples[0].Stack[0] != module+"rng.Hash" {
		t.Fatalf("samples = %+v", samples)
	}
	f := fold(samples)
	if f.TotalNS != 137 {
		t.Errorf("total = %d, want 137", f.TotalNS)
	}
	wantSelf := map[string]int64{"rng": 100, "runtime": 37}
	for l, ns := range f.SelfNS {
		if ns != wantSelf[l] {
			t.Errorf("self[%s] = %d, want %d", l, ns, wantSelf[l])
		}
	}
	wantCum := map[string]int64{
		"workload.LineAt":          130,
		"core.FillPageFromProfile": 130,
		"core.RunWindow":           7,
	}
	for k := range entryPoints {
		if f.CumNS[k] != wantCum[k] {
			t.Errorf("cum[%s] = %d, want %d", k, f.CumNS[k], wantCum[k])
		}
	}
	if f.WindowNS != 7 {
		t.Errorf("window drivers = %d, want 7 (the recursive stack counts once)", f.WindowNS)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		module + "dram.(*Module).RefreshGroup":  "dram",
		module + "sim.runScenario.func1":        "sim",
		module + "ostrace.(*Allocator).Alloc":   "other",
		"runtime.memmove":                       "runtime",
		"internal/runtime/maps.(*Map).putSlot":  "runtime",
		"sync.(*Mutex).Lock":                    "other",
		"main.runIteration":                     "other",
		"":                                      "other",
		"zerorefresh.NewSystem":                 "other",
		module + "workload.(*AccessGen).Next":   "workload",
		module + "memctrl.SimulateClosedLoop":   "memctrl",
		module + "refresh.(*Engine).RunCycle":   "refresh",
		module + "metrics.(*Counter).Add":       "metrics",
		module + "transform.(*Pipeline).Decode": "transform",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
