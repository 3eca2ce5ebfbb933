package energy

import (
	"math"
	"testing"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/refresh"
)

func TestSRAMLeakageAnchors(t *testing.T) {
	// Section IV-B: CACTI 6.5 reports 337.14 mW for the naive 1 MB
	// table and 2.71 mW for the 8 KB access-bit table.
	if got := SRAMLeakageW(1 << 20); math.Abs(got-0.33714) > 1e-9 {
		t.Fatalf("1MB leakage = %v W, want 0.33714", got)
	}
	if got := SRAMLeakageW(8 << 10); math.Abs(got-0.00271) > 1e-9 {
		t.Fatalf("8KB leakage = %v W, want 0.00271", got)
	}
	if SRAMLeakageW(64<<10) <= SRAMLeakageW(8<<10) {
		t.Fatal("leakage must grow with capacity")
	}
	if SRAMLeakageW(0) < 0 {
		t.Fatal("leakage must be non-negative")
	}
}

func TestOptimizedDesignSavesLeakage(t *testing.T) {
	// The optimization's point: 337.14 mW -> 2.71 mW, over 100x less.
	ratio := NaiveSRAMLeakageW / AccessBitSRAMLeakageW
	if ratio < 100 {
		t.Fatalf("leakage ratio %v, want >100x", ratio)
	}
}

func TestFig4RefreshPowerShareShape(t *testing.T) {
	p := TableII()
	// Share grows monotonically with density in both temperature modes.
	var prevN, prevE float64
	for _, gb := range []int{1, 2, 4, 8, 16, 32} {
		n, _, _ := RefreshPowerShare(p, gb, dram.TRETNormal, 0.08, 0.02)
		e, _, _ := RefreshPowerShare(p, gb, dram.TRETExtended, 0.08, 0.02)
		if n <= prevN || e <= prevE {
			t.Fatalf("share not increasing at %dGb", gb)
		}
		if e <= n {
			t.Fatalf("extended-temperature share must exceed normal at %dGb", gb)
		}
		prevN, prevE = n, e
	}
	// The headline observation: at 16 Gb with 32 ms retention, refresh
	// consumes more than half the device power.
	share16, _, _ := RefreshPowerShare(p, 16, dram.TRETExtended, 0.08, 0.02)
	if share16 <= 0.5 {
		t.Fatalf("16Gb/32ms refresh share = %.3f, want > 0.5", share16)
	}
	// ... and a small share at low density / normal temperature.
	share1, _, _ := RefreshPowerShare(p, 1, dram.TRETNormal, 0.08, 0.02)
	if share1 >= 0.25 {
		t.Fatalf("1Gb/64ms refresh share = %.3f, want small", share1)
	}
}

func TestDensityTRFCMonotone(t *testing.T) {
	prev := 0.0
	for _, gb := range []int{1, 2, 4, 8, 16, 32} {
		cur := DensityTRFC(gb)
		if cur <= prev {
			t.Fatalf("tRFC not increasing at %dGb", gb)
		}
		prev = cur
	}
}

func TestRefreshEnergyPerAR(t *testing.T) {
	p := TableII()
	// (IDD5-IDD3N)*VDD*tRFC*devices = 112mA*1.2V*350ns*8 = 376.3 nJ.
	got := p.RefreshEnergyPerARJ(350, 8)
	want := 112e-3 * 1.2 * 350e-9 * 8
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("E_AR = %v, want %v", got, want)
	}
}

func TestModelNormalizedEnergyTracksReduction(t *testing.T) {
	cfg := dram.DefaultConfig(8 << 20)
	mod := dram.New(cfg)
	eng := refresh.NewEngine(mod, refresh.Config{Skip: true, RowsPerAR: 32, Stagger: true, StatusInDRAM: true})
	m := NewModel(eng)

	eng.RunCycle(0)                       // learning cycle: all refreshed
	idle := eng.RunCycle(cfg.Timing.TRET) // idle memory: all skipped
	full := refresh.CycleStats{Steps: idle.Steps, Refreshed: idle.Steps, Start: idle.Start, End: idle.End}

	nIdle := m.NormalizedEnergy(idle, 1000)
	nFull := m.NormalizedEnergy(full, 1000)
	if nIdle >= 0.5 {
		t.Fatalf("idle normalized energy = %.3f, want small", nIdle)
	}
	if nFull < 1.0 {
		t.Fatalf("full-refresh normalized energy = %.3f, want >= 1 (overheads)", nFull)
	}
	// Energy must include the EBDI overhead: more ops, more energy.
	if m.CycleJ(idle, 1_000_000) <= m.CycleJ(idle, 0) {
		t.Fatal("EBDI ops not accounted")
	}
}

func TestBackgroundAndRWPower(t *testing.T) {
	p := TableII()
	if p.BackgroundPowerW(8) <= 0 {
		t.Fatal("background power must be positive")
	}
	if p.ReadPowerW(0.08, 8) <= p.ReadPowerW(0.02, 8) {
		t.Fatal("read power must scale with duty")
	}
	if p.WritePowerW(0, 8) != 0 {
		t.Fatal("zero duty write power should be zero")
	}
}

// TestTableIIHandComputed pins the Table II attribution constants against
// hand-computed values, so a silent parameter edit cannot drift the
// offline attribution (internal/attr builds its step costs from these).
func TestTableIIHandComputed(t *testing.T) {
	p := TableII()

	// Single device, max-density tRFC: (120-8)mA * 1.2V * 880ns =
	// 118.272 nJ per AR command.
	got := p.RefreshEnergyPerARJ(DensityTRFC(32), 1)
	want := 112e-3 * 1.2 * 880e-9
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("single-device max-density E_AR = %v, want %v", got, want)
	}

	// The density ladder clamps: everything past 16 Gbit uses the
	// 880 ns tRFC, and 64 Gbit is the same bucket as 32.
	if DensityTRFC(32) != 880 || DensityTRFC(64) != DensityTRFC(32) {
		t.Fatalf("max-density tRFC = %v / %v, want 880 for both", DensityTRFC(32), DensityTRFC(64))
	}
	if DensityTRFC(1) != 110 || DensityTRFC(16) != 550 {
		t.Fatalf("density ladder anchors drifted: 1Gb=%v 16Gb=%v", DensityTRFC(1), DensityTRFC(16))
	}

	// Background power, one device: 8mA * 1.2V = 9.6 mW.
	if got, want := p.BackgroundPowerW(1), 8e-3*1.2; math.Abs(got-want) > 1e-15 {
		t.Fatalf("background power = %v, want %v", got, want)
	}
}

// TestRefreshPowerShareEdgeCases pins the Figure 4 closed form at its
// boundary inputs: zero bus duty (share = refresh/(refresh+background)),
// and the exact share for a hand-computed operating point.
func TestRefreshPowerShareEdgeCases(t *testing.T) {
	p := TableII()

	// Zero duty: the bus term vanishes entirely.
	if p.ReadPowerW(0, 1) != 0 || p.WritePowerW(0, 1) != 0 {
		t.Fatal("zero-duty bus power must be zero")
	}
	tret := dram.Time(64 * dram.Millisecond)
	share, refreshW, totalW := RefreshPowerShare(p, 32, tret, 0, 0)
	background := 8e-3 * 1.2
	wantRefreshW := 112e-3 * 1.2 * 880 / (float64(tret) / 8192)
	if math.Abs(refreshW-wantRefreshW)/wantRefreshW > 1e-12 {
		t.Fatalf("refreshW = %v, want %v", refreshW, wantRefreshW)
	}
	if math.Abs(totalW-(wantRefreshW+background)) > 1e-12 {
		t.Fatalf("zero-duty totalW = %v, want refresh+background = %v", totalW, wantRefreshW+background)
	}
	if wantShare := wantRefreshW / (wantRefreshW + background); math.Abs(share-wantShare)/wantShare > 1e-12 {
		t.Fatalf("zero-duty share = %v, want %v", share, wantShare)
	}

	// The paper's duty point (8% read, 2% write) on one device: the bus
	// adds (52*0.08 + 50*0.02) mA * 1.2V and the share drops accordingly.
	shareDuty, _, totalDuty := RefreshPowerShare(p, 32, tret, 0.08, 0.02)
	bus := (60.0-8.0)*1e-3*1.2*0.08 + (58.0-8.0)*1e-3*1.2*0.02
	if math.Abs(totalDuty-(wantRefreshW+background+bus)) > 1e-12 {
		t.Fatalf("duty totalW = %v, want %v", totalDuty, wantRefreshW+background+bus)
	}
	if shareDuty >= share {
		t.Fatal("bus power must dilute the refresh share")
	}
}
