package memctrl

import (
	"math/rand"
	"testing"

	"zerorefresh/internal/dram"
)

func clConfig() ClosedLoopConfig {
	return ClosedLoopConfig{
		Perf: PerfConfig{
			Banks: 8, ARInterval: 3906,
			HitService: 15, MissService: 37,
		},
		Cores: 4, MLP: 4, ThinkNs: 100,
		RowHitRate: 0.5, WriteFrac: 0.3, Seed: 1,
	}
}

func TestClosedLoopThinkBoundThroughput(t *testing.T) {
	cfg := clConfig()
	cfg.ThinkNs = 1000 // think-dominated: memory nearly idle
	horizon := dram.Time(2_000_000)
	r := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, horizon)
	// 16 slots cycling every ~(1000+~26)ns over 2ms ~= 31k requests.
	slots := float64(cfg.Cores * cfg.MLP)
	expected := slots * float64(horizon) / (1000 + 26)
	if f := float64(r.Reads) / expected; f < 0.9 || f > 1.1 {
		t.Fatalf("reads = %d, expected ~%.0f", r.Reads, expected)
	}
	if r.RefreshWait != 0 {
		t.Fatal("no-refresh run accumulated refresh wait")
	}
}

func TestClosedLoopRefreshReducesThroughput(t *testing.T) {
	cfg := clConfig()
	horizon := dram.Time(2_000_000)
	free := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, horizon)
	loaded := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 880}, horizon)
	if loaded.Reads >= free.Reads {
		t.Fatalf("refresh did not cost throughput: %d vs %d", loaded.Reads, free.Reads)
	}
	if loaded.AvgLatency() <= free.AvgLatency() {
		t.Fatal("refresh did not raise latency")
	}
	if loaded.RefreshWait == 0 {
		t.Fatal("refresh wait not accounted")
	}
}

func TestClosedLoopSkippingRecovers(t *testing.T) {
	cfg := clConfig()
	horizon := dram.Time(2_000_000)
	// A schedule where every other AR is fully skipped beats the
	// constant schedule and loses to the free one.
	half := SliceSchedule{Busy: make([][]dram.Time, 8)}
	for b := range half.Busy {
		half.Busy[b] = []dram.Time{880, 0}
	}
	full := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 880}, horizon)
	part := SimulateClosedLoop(cfg, half, horizon)
	free := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, horizon)
	if !(full.Reads < part.Reads && part.Reads < free.Reads) {
		t.Fatalf("ordering violated: %d / %d / %d", full.Reads, part.Reads, free.Reads)
	}
}

func TestClosedLoopDeterminism(t *testing.T) {
	cfg := clConfig()
	a := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 350}, 500_000)
	b := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 350}, 500_000)
	if a != b {
		t.Fatal("closed loop not deterministic for equal seeds")
	}
	cfg.Seed = 2
	c := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 350}, 500_000)
	if a == c {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestClosedLoopWritebacksShareBandwidth(t *testing.T) {
	cfg := clConfig()
	cfg.ThinkNs = 0 // memory-bound
	horizon := dram.Time(1_000_000)
	cfg.WriteFrac = 0
	noWrites := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, horizon)
	cfg.WriteFrac = 0.4
	withWrites := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, horizon)
	if withWrites.Writebacks == 0 {
		t.Fatal("no writebacks generated")
	}
	if withWrites.Reads >= noWrites.Reads {
		t.Fatal("writebacks should consume read bandwidth in a bound system")
	}
}

func TestClosedLoopZeroSlots(t *testing.T) {
	cfg := clConfig()
	cfg.Cores = 0
	r := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, 1000)
	if r.Reads != 0 {
		t.Fatal("no slots should mean no requests")
	}
}

func TestClosedLoopAllBankPolicyHurtsMore(t *testing.T) {
	cfg := clConfig()
	horizon := dram.Time(2_000_000)
	per := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 880}, horizon)
	cfg.Perf.AllBank = true
	all := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 880}, horizon)
	// With synchronized windows the two policies coincide; stagger the
	// schedule per bank to expose the difference.
	cfg.Perf.AllBank = false
	stag := SliceSchedule{Busy: make([][]dram.Time, 8)}
	for b := range stag.Busy {
		row := make([]dram.Time, 8)
		row[b] = 880 * 8 // same total busy, different phase per bank
		stag.Busy[b] = row
	}
	perStag := SimulateClosedLoop(cfg, stag, horizon)
	cfg.Perf.AllBank = true
	allStag := SimulateClosedLoop(cfg, stag, horizon)
	if allStag.Reads > perStag.Reads {
		t.Fatalf("all-bank blocking should not beat per-bank: %d vs %d", allStag.Reads, perStag.Reads)
	}
	_ = per
	_ = all
}

func TestClosedLoopRefreshClosesRows(t *testing.T) {
	cfg := clConfig()
	cfg.RowHitRate = 1.0 // every access would hit, absent refresh
	horizon := dram.Time(2_000_000)
	free := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, horizon)
	if free.RefreshRowMisses != 0 {
		t.Fatal("row misses without refresh")
	}
	loaded := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 350}, horizon)
	if loaded.RefreshRowMisses == 0 {
		t.Fatal("refresh should close open rows")
	}
	// The forced misses show up as extra latency beyond the pure
	// blocking wait.
	extra := loaded.TotalLatency - loaded.RefreshWait
	if float64(extra)/float64(loaded.Reads) <= float64(free.TotalLatency)/float64(free.Reads) {
		t.Fatal("refresh-induced row misses not reflected in latency")
	}
}

// TestClosedLoopMatchesOracle runs the heap-scheduled kernel and the
// linear-scan oracle on random configurations — bank counts on and off a
// power of two, both refresh policies, constant and recorded schedules, and
// the probability edges 0, 0.5 and 1 — and requires identical results.
func TestClosedLoopMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	probs := []float64{0, 0.5, 1}
	pick := func() float64 {
		if rng.Intn(2) == 0 {
			return probs[rng.Intn(len(probs))]
		}
		return rng.Float64()
	}
	for n := 0; n < 1200; n++ {
		banks := []int{1, 3, 8, 16}[rng.Intn(4)]
		cfg := ClosedLoopConfig{
			Perf: PerfConfig{
				Banks:      banks,
				ARInterval: dram.Time(500 + rng.Intn(4000)),
				AllBank:    rng.Intn(2) == 0,
				HitService: dram.Time(10 + rng.Intn(10)), MissService: dram.Time(25 + rng.Intn(20)),
			},
			Cores: 1 + rng.Intn(4), MLP: 1 + rng.Intn(4),
			ThinkNs:    float64(rng.Intn(400)),
			RowHitRate: pick(), WriteFrac: pick(),
			Seed: rng.Uint64(),
		}
		var sched RefreshSchedule = ConstantSchedule{Busy: dram.Time(rng.Intn(900))}
		if rng.Intn(2) == 0 {
			busy := make([][]dram.Time, banks)
			for b := range busy {
				busy[b] = make([]dram.Time, 1+rng.Intn(8))
				for k := range busy[b] {
					busy[b][k] = dram.Time(rng.Intn(900))
				}
			}
			sched = SliceSchedule{Busy: busy}
		}
		horizon := dram.Time(5_000 + rng.Intn(40_000))
		got, want := SimulateClosedLoop(cfg, sched, horizon), oracleSimulateClosedLoop(cfg, sched, horizon)
		if got != want {
			t.Fatalf("config %d %+v: got %+v, oracle %+v", n, cfg, got, want)
		}
	}
}

func TestProbThresholdExact(t *testing.T) {
	// float(x) < p and x>>11 < probThreshold(p) agree for draws right at
	// each threshold, including the edges.
	for _, p := range []float64{0, 1e-300, 0.25, 0.3, 0.5, 0.7, 1 - 1e-16, 1, 1.5, -0.5} {
		th := probThreshold(p)
		for _, k := range []uint64{0, 1, th - 1, th, th + 1, 1<<53 - 1} {
			if k >= 1<<53 {
				continue
			}
			x := k << 11
			if got, want := x>>11 < th, float64(x>>11)/(1<<53) < p; got != want {
				t.Fatalf("p=%v k=%d: threshold test %v, float test %v", p, k, got, want)
			}
		}
	}
}

// oracleSimulateClosedLoop is the original closed-loop kernel, kept
// verbatim as the specification of SimulateClosedLoop: a linear scan for
// the next slot (lowest index wins ties), the bank drawn by modulo and the
// probability tests made on float draws.
func oracleSimulateClosedLoop(cfg ClosedLoopConfig, sched RefreshSchedule, horizon dram.Time) ClosedLoopResult {
	slots := cfg.Cores * cfg.MLP
	if slots <= 0 {
		return ClosedLoopResult{Horizon: horizon}
	}
	busy := refreshWindows(cfg.Perf, sched, horizon)
	nextWin := make([]int, cfg.Perf.Banks)
	bankFree := make([]dram.Time, cfg.Perf.Banks)
	// lastServed and refWin track refresh-induced row-buffer misses: a
	// refresh closes the open row, so the first access to a bank after
	// any refresh window pays the miss latency even if it would have
	// hit (Section III-A: "after refreshing, the next data access is
	// likely to have a row buffer miss").
	lastServed := make([]dram.Time, cfg.Perf.Banks)
	refWin := make([]int, cfg.Perf.Banks)
	nextIssue := make([]dram.Time, slots)
	for i := range nextIssue {
		// Stagger slot starts across one think period.
		nextIssue[i] = dram.Time(float64(i) * cfg.ThinkNs / float64(slots))
	}
	rng := clRand{state: cfg.Seed ^ 0xc105ed100b}
	res := ClosedLoopResult{Horizon: horizon}

	for {
		// Next slot to issue.
		s := 0
		for i := 1; i < slots; i++ {
			if nextIssue[i] < nextIssue[s] {
				s = i
			}
		}
		arrive := nextIssue[s]
		if arrive >= horizon {
			break
		}
		bank := int(rng.next() % uint64(cfg.Perf.Banks))
		rowHit := rng.float() < cfg.RowHitRate
		start := arrive
		if bankFree[bank] > start {
			start = bankFree[bank]
		}
		ws := busy[bank]
		i := nextWin[bank]
		for i < len(ws) {
			w := ws[i]
			if w.end <= start {
				i++
				continue
			}
			// Service-time check below uses the miss latency bound,
			// conservative for hits.
			if w.start >= start+cfg.Perf.MissService {
				break
			}
			res.RefreshWait += w.end - start
			start = w.end
			i++
		}
		nextWin[bank] = i
		// Any refresh window that ended since the bank's last service
		// closed its open row: the access pays a row miss. This only
		// bites when the bank was in active use — an idle bank's row
		// would have been closed by the controller's idle-precharge
		// policy regardless, and that case is already priced into the
		// average RowHitRate.
		const openRowWindow = 500 // ns of bank inactivity before idle precharge
		j := refWin[bank]
		for j < len(ws) && ws[j].end <= start {
			j++
		}
		if j > refWin[bank] && ws[refWin[bank]].end > lastServed[bank] &&
			start-lastServed[bank] < openRowWindow {
			rowHit = false
			res.RefreshRowMisses++
		}
		refWin[bank] = j
		svc := cfg.Perf.MissService
		if rowHit {
			svc = cfg.Perf.HitService
		}
		complete := start + svc
		bankFree[bank] = complete
		lastServed[bank] = complete
		res.Reads++
		res.TotalLatency += complete - arrive
		// Piggyback a writeback with probability wf/(1-wf) (write
		// traffic share of total); it occupies the bank but does not
		// stall the core.
		if wf := cfg.WriteFrac; wf > 0 && wf < 1 && rng.float() < wf/(1-wf) {
			bankFree[bank] += cfg.Perf.HitService
			res.Writebacks++
		}
		// Jitter the think time +/-25%: instruction counts between
		// misses vary, and a deterministic gap can phase-lock with the
		// refresh cadence and overstate (or hide) interference.
		think := cfg.ThinkNs * (0.75 + 0.5*rng.float())
		nextIssue[s] = complete + dram.Time(think)
	}
	return res
}
