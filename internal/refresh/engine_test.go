package refresh

import (
	"math/rand"
	"testing"
	"testing/quick"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/engine"
)

func testModule() *dram.Module {
	cfg := dram.DefaultConfig(8 << 20) // 256 rows per bank
	cfg.CellGroupRows = 64
	return dram.New(cfg)
}

func testEngine(m engine.MemoryBackend) *Engine {
	cfg := DefaultConfig()
	cfg.RowsPerAR = 32
	return NewEngine(m, cfg)
}

func TestConventionalEngineRefreshesEverything(t *testing.T) {
	m := testModule()
	e := NewEngine(m, Config{Skip: false, RowsPerAR: 32})
	st := e.RunCycle(0)
	if st.Skipped != 0 {
		t.Fatalf("conventional engine skipped %d steps", st.Skipped)
	}
	if st.Refreshed != st.Steps {
		t.Fatalf("Refreshed = %d, want %d", st.Refreshed, st.Steps)
	}
	if got := st.NormalizedRefresh(); got != 1 {
		t.Fatalf("NormalizedRefresh = %v, want 1", got)
	}
}

func TestIdleMemorySkipsAfterLearningCycle(t *testing.T) {
	m := testModule()
	e := testEngine(m)
	// Cycle 1: access bits start set, so everything refreshes and the
	// status table is learned.
	st1 := e.RunCycle(0)
	if st1.Skipped != 0 {
		t.Fatalf("learning cycle skipped %d steps", st1.Skipped)
	}
	// Cycle 2: the whole (empty, hence discharged) memory skips.
	st2 := e.RunCycle(st1.End)
	if st2.Refreshed != 0 {
		t.Fatalf("idle cycle refreshed %d steps", st2.Refreshed)
	}
	if st2.Skipped != st2.Steps {
		t.Fatalf("Skipped = %d, want %d", st2.Skipped, st2.Steps)
	}
	if st2.FullySkippedARs != st2.ARCommands {
		t.Fatalf("FullySkippedARs = %d, want %d", st2.FullySkippedARs, st2.ARCommands)
	}
	// Only the status-table overhead remains.
	if got := st2.NormalizedRefresh(); got > 0.01 {
		t.Fatalf("idle NormalizedRefresh = %v, want ~0", got)
	}
}

func TestWrittenRowsAreRefreshed(t *testing.T) {
	m := testModule()
	e := testEngine(m)
	e.RunCycle(0) // learn

	// Charge one row in bank 2 and tell the engine.
	now := m.Config().Timing.TRET
	m.WriteWord(0, 2, 10, 0, 0xFF, now)
	e.NoteWrite(2, 10)

	st := e.RunCycle(now)
	// The AR set covering row 10's block refreshes fully (32 steps);
	// everything else skips.
	if st.Refreshed != 32 {
		t.Fatalf("Refreshed = %d, want 32 (one AR set)", st.Refreshed)
	}
	// Next cycle: no new writes; only the single charged step refreshes.
	st = e.RunCycle(st.End)
	if st.Refreshed != 1 {
		t.Fatalf("steady-state Refreshed = %d, want 1", st.Refreshed)
	}
}

func TestRedischargedRowSkipsAgain(t *testing.T) {
	m := testModule()
	e := testEngine(m)
	e.RunCycle(0)
	tret := m.Config().Timing.TRET

	m.WriteWord(0, 0, 5, 0, 0xAB, tret)
	e.NoteWrite(0, 5)
	e.RunCycle(tret)

	// Zero the row again (as the OS would when freeing the page).
	m.WriteWord(0, 0, 5, 0, 0, 2*tret)
	e.NoteWrite(0, 5)
	st := e.RunCycle(2 * tret)
	if st.Refreshed != 32 { // full set refresh renews the status
		t.Fatalf("Refreshed = %d, want 32", st.Refreshed)
	}
	st = e.RunCycle(st.End)
	if st.Refreshed != 0 {
		t.Fatalf("re-discharged row still refreshing: %d steps", st.Refreshed)
	}
}

func TestAntiCellRowsSkipWithDischargedPattern(t *testing.T) {
	m := testModule()
	cfg := m.Config()
	e := testEngine(m)
	e.RunCycle(0)
	tret := cfg.Timing.TRET

	antiRow := cfg.CellGroupRows // all-ones is the discharged pattern here
	if cfg.CellTypeOf(antiRow) != dram.AntiCell {
		t.Fatal("expected an anti-cell row")
	}
	for w := 0; w < cfg.WordsPerChipRow(); w++ {
		m.WriteWord(0, 0, antiRow, w, ^uint64(0), tret)
	}
	e.NoteWrite(0, antiRow)
	e.RunCycle(tret)
	st := e.RunCycle(2 * tret)
	if st.Refreshed != 0 {
		t.Fatalf("anti-cell discharged row refreshed: %d steps", st.Refreshed)
	}
	// But all-zero content on an anti-cell row is fully charged.
	m.WriteWord(0, 0, antiRow, 0, 0, 3*tret)
	e.NoteWrite(0, antiRow)
	e.RunCycle(3 * tret)
	st = e.RunCycle(4 * tret)
	if st.Refreshed != 1 {
		t.Fatalf("charged anti-cell row not refreshed: %d steps", st.Refreshed)
	}
}

func TestSparedRowsNeverSkip(t *testing.T) {
	m := testModule()
	m.MarkSpared(7)
	e := testEngine(m)
	e.RunCycle(0)
	st := e.RunCycle(m.Config().Timing.TRET)
	// Sparing is a rank-level row property, so the spared row keeps its
	// whole diagonal block (Chips steps) from skipping in every bank.
	if st.Refreshed == 0 {
		t.Fatal("spared row was skipped")
	}
	if max := int64(dram.LineChips * m.Config().Banks); st.Refreshed > max {
		t.Fatalf("Refreshed = %d, want <= %d", st.Refreshed, max)
	}
}

func TestStaggeredCountersCoverEveryRowOncePerCycle(t *testing.T) {
	m := testModule()
	e := testEngine(m)
	rows := m.Config().RowsPerBank
	for chip := 0; chip < dram.LineChips; chip++ {
		seen := make([]int, rows)
		for n := 0; n < rows; n++ {
			seen[e.StepRow(chip, n)]++
		}
		for r, c := range seen {
			if c != 1 {
				t.Fatalf("chip %d row %d refreshed %d times per cycle", chip, r, c)
			}
		}
	}
}

func TestStepRowMatchesPaperFormula(t *testing.T) {
	// Section IV-C: RefreshRow = ((initRow + n) mod numChip) within the
	// block of rows advanced every numChip steps; initRow is the chip
	// number. Figure 8's four-chip example: at step n the rows
	// (c+n) mod 4 of block n/4 are refreshed together.
	m := testModule()
	e := testEngine(m)
	chips := dram.LineChips
	for n := 0; n < 64; n++ {
		for c := 0; c < chips; c++ {
			want := (n/chips)*chips + (c+n)%chips
			if got := e.StepRow(c, n); got != want {
				t.Fatalf("StepRow(%d,%d) = %d, want %d", c, n, got, want)
			}
		}
	}
}

func TestUnstaggeredStepRowIsIdentity(t *testing.T) {
	m := testModule()
	e := NewEngine(m, Config{Skip: true, RowsPerAR: 32, Stagger: false})
	for n := 0; n < m.Config().RowsPerBank; n += 17 {
		for c := 0; c < dram.LineChips; c++ {
			if e.StepRow(c, n) != n {
				t.Fatal("unstaggered engine must refresh row n at step n")
			}
		}
	}
}

func TestNoteWriteSetsCoveringAccessBits(t *testing.T) {
	m := testModule()
	e := testEngine(m)
	e.RunCycle(0) // clear all access bits
	for bank := 0; bank < e.banks; bank++ {
		for set := 0; set < e.numARs; set++ {
			if e.accessBit(bank, set) {
				t.Fatalf("access bit (%d,%d) still set after cycle", bank, set)
			}
		}
	}
	e.NoteWrite(3, 40) // block 5 = steps 40..47, all in set 1 (32 steps/set)
	if !e.accessBit(3, 1) {
		t.Fatal("access bit for set 1 not set")
	}
	// A block straddling two sets must set both: row 60 -> steps 56..63
	// with RowsPerAR=32 stays in set 1; use a geometry-level check via
	// stepsOfRow instead.
	lo, hi := e.stepsOfRow(60)
	if lo != 56 || hi != 63 {
		t.Fatalf("stepsOfRow(60) = [%d,%d], want [56,63]", lo, hi)
	}
}

func TestPaperScaleTableSizes(t *testing.T) {
	// Section IV-B, 32 GB geometry: naive SRAM table 1 MB; optimized
	// access-bit SRAM 8 KB (8192 sets x 8 banks bits).
	cfg := dram.DefaultConfig(32 << 30)
	m := dram.New(cfg)
	e := NewEngine(m, DefaultConfig())
	if got := e.NaiveStatusSRAMBytes(); got != 1<<20 {
		t.Fatalf("NaiveStatusSRAMBytes = %d, want 1MiB", got)
	}
	if got := e.AccessBitSRAMBytes(); got != 8<<10 {
		t.Fatalf("AccessBitSRAMBytes = %d, want 8KiB", got)
	}
	if got := e.NumARs(); got != 8192 {
		t.Fatalf("NumARs = %d, want 8192", got)
	}
	// Status table: 8Mi bits = 1 MiB = 256 rows of 4 KB.
	if got := e.StatusTableRows(); got != 256 {
		t.Fatalf("StatusTableRows = %d, want 256", got)
	}
}

func TestAllBankPolicyCountsMatchPerBank(t *testing.T) {
	// Functionally the two policies refresh the same rows; only timing
	// differs. Run the same write pattern under both and compare counts.
	run := func(allBank bool) CycleStats {
		m := testModule()
		e := NewEngine(m, Config{Skip: true, RowsPerAR: 32, Stagger: true, StatusInDRAM: true, AllBank: allBank})
		e.RunCycle(0)
		tret := m.Config().Timing.TRET
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 20; i++ {
			b, r := rng.Intn(8), rng.Intn(256)
			m.WriteWord(0, b, r, 0, rng.Uint64()|1, tret)
			e.NoteWrite(b, r)
		}
		e.RunCycle(tret)
		return e.RunCycle(2 * tret)
	}
	per, all := run(false), run(true)
	if per.Refreshed != all.Refreshed || per.Skipped != all.Skipped {
		t.Fatalf("policies disagree: per-bank %+v, all-bank %+v", per, all)
	}
}

// Property: under random write traffic with proper NoteWrite notifications,
// (a) no row ever decays, (b) every recorded discharged status is truthful,
// and (c) all written data reads back correctly after several windows.
func TestQuickEngineIntegrity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := testModule()
		cfg := m.Config()
		e := testEngine(m)
		type slot struct{ bank, row, word int }
		shadow := make(map[slot]uint64)
		now := dram.Time(0)
		for cycle := 0; cycle < 5; cycle++ {
			// Random writes inside the window.
			for i := 0; i < 30; i++ {
				s := slot{rng.Intn(cfg.Banks), rng.Intn(cfg.RowsPerBank), rng.Intn(cfg.WordsPerChipRow())}
				v := rng.Uint64()
				if rng.Intn(3) == 0 {
					v = cfg.CellTypeOf(s.row).DischargedWord()
				}
				// Batched writes carry the window-start timestamp so
				// call order stays monotone in simulated time (a write
				// stamped later than a subsequently-executed AR would
				// fake a retention violation that cannot occur in a
				// real interleaving).
				m.WriteWord(0, s.bank, s.row, s.word, v, now)
				e.NoteWrite(s.bank, s.row)
				shadow[s] = v
			}
			st := e.RunCycle(now)
			now = st.End
			// (b) status truthfulness.
			for bank := 0; bank < cfg.Banks; bank++ {
				for n := 0; n < cfg.RowsPerBank; n++ {
					for chip := 0; chip < dram.LineChips; chip++ {
						if e.status[bank][n]&(1<<chip) == 0 {
							continue
						}
						if !m.SenseDischarged(chip, bank, e.StepRow(chip, n)) {
							return false
						}
					}
				}
			}
		}
		// (a) nothing decayed.
		if m.Stats().DecayEvents != 0 {
			return false
		}
		// (c) data intact.
		for s, want := range shadow {
			if got := m.ReadWord(0, s.bank, s.row, s.word, now); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRowsPerARValidation(t *testing.T) {
	m := testModule()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-divisible RowsPerAR")
		}
	}()
	NewEngine(m, Config{RowsPerAR: 33})
}

func TestEngineClampRowsPerAR(t *testing.T) {
	m := testModule() // 256 rows per bank
	e := NewEngine(m, Config{RowsPerAR: 4096})
	if e.Config().RowsPerAR != 256 {
		t.Fatalf("RowsPerAR = %d, want clamped to 256", e.Config().RowsPerAR)
	}
	if e.NumARs() != 1 {
		t.Fatalf("NumARs = %d, want 1", e.NumARs())
	}
}

func TestPerChipStatusSkipsPartialSteps(t *testing.T) {
	// Under the unrotated direct mapping, an idle chip's rows can skip
	// even while another chip of the same step is charged. The
	// rank-synchronous design refreshes the whole step; the per-chip
	// design skips the discharged chips.
	run := func(perChip bool) (CycleStats, *dram.Module) {
		return runPartial(t, perChip)
	}
	sync, _ := run(false)
	per, m := run(true)
	if per.ChipSkipped <= sync.ChipSkipped {
		t.Fatalf("per-chip should skip more chip-rows: %d vs %d", per.ChipSkipped, sync.ChipSkipped)
	}
	if per.NormalizedChipRefresh() >= sync.NormalizedChipRefresh() {
		t.Fatalf("per-chip normalized %v should beat sync %v",
			per.NormalizedChipRefresh(), sync.NormalizedChipRefresh())
	}
	if m.Stats().DecayEvents != 0 {
		t.Fatal("per-chip skipping corrupted data")
	}
}

func runPartial(t *testing.T, perChip bool) (CycleStats, *dram.Module) {
	t.Helper()
	m := testModule()
	e := NewEngine(m, Config{
		Skip: true, RowsPerAR: 32, Stagger: true,
		StatusInDRAM: true, PerChipStatus: perChip,
	})
	// Charge chip 0 of every row; chips 1..7 stay discharged.
	for r := 0; r < m.Config().RowsPerBank; r++ {
		m.WriteWord(0, 0, r, 0, 0xFF, 0)
		e.NoteWrite(0, r)
	}
	e.RunCycle(0)
	st := e.RunCycle(m.Config().Timing.TRET)
	// Read the data back after several more skipping windows.
	for i := 2; i < 5; i++ {
		e.RunCycle(dram.Time(i) * m.Config().Timing.TRET)
	}
	if got := m.ReadWord(0, 0, 5, 0, 5*m.Config().Timing.TRET); got != 0xFF {
		t.Fatalf("data lost under perChip=%v: %#x", perChip, got)
	}
	return st, m
}

func TestPerChipStatusTableCost(t *testing.T) {
	// At paper scale the storage factor is exact: 1 bit per rank row
	// (256 rows of table) versus 1 bit per chip-row (2048 rows).
	m := dram.New(dram.DefaultConfig(32 << 30))
	sync := NewEngine(m, Config{Skip: true, StatusInDRAM: true})
	per := NewEngine(m, Config{Skip: true, StatusInDRAM: true, PerChipStatus: true})
	if sync.StatusTableRows() != 256 || per.StatusTableRows() != 2048 {
		t.Fatalf("table rows = %d / %d, want 256 / 2048",
			sync.StatusTableRows(), per.StatusTableRows())
	}
}
