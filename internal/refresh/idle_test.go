package refresh

import (
	"math/rand"
	"reflect"
	"testing"

	"zerorefresh/internal/dram"
)

// Differential test for the bulk idle replay: ReplayIdleCycles(start, k)
// driven against a twin running k dense RunCycle calls, under identical
// prior write traffic (with spared rows and discharged patterns), must
// leave bit-identical engine state, counters, histogram contents,
// CycleStats and module cell state behind.

func replayTwins(t *testing.T, cfg Config, sparedEvery int) (replay, dense *Engine, mods [2]*dram.Module) {
	t.Helper()
	for i := range mods {
		mods[i] = testModule()
		if sparedEvery > 0 {
			for r := 0; r < mods[i].Config().RowsPerBank; r += sparedEvery {
				mods[i].MarkSpared(r)
			}
		}
	}
	replay, dense = NewEngine(mods[0], cfg), NewEngine(mods[1], cfg)
	return replay, dense, mods
}

func compareTwins(t *testing.T, replay, dense *Engine, mods [2]*dram.Module) {
	t.Helper()
	if a, b := replay.Stats(), dense.Stats(); a != b {
		t.Fatalf("engine stats diverged:\nreplay %+v\ndense  %+v", a, b)
	}
	if a, b := replay.Metrics().Snapshot(), dense.Metrics().Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("engine metrics diverged:\nreplay %+v\ndense  %+v", a, b)
	}
	if !reflect.DeepEqual(replay.status, dense.status) {
		t.Fatal("status tables diverged")
	}
	if !reflect.DeepEqual(replay.skipRun, dense.skipRun) {
		t.Fatal("skip-run tables diverged")
	}
	if !reflect.DeepEqual(replay.accessBits, dense.accessBits) {
		t.Fatal("access bits diverged")
	}
	if !reflect.DeepEqual(replay.arCursor, dense.arCursor) {
		t.Fatal("AR cursors diverged")
	}
	if !reflect.DeepEqual(replay.lastSetRefreshed, dense.lastSetRefreshed) {
		t.Fatal("last-set-refreshed profiles diverged")
	}
	if a, b := mods[0].Stats(), mods[1].Stats(); a != b {
		t.Fatalf("module stats diverged:\nreplay %+v\ndense  %+v", a, b)
	}
	if a, b := mods[0].Metrics().Snapshot(), mods[1].Metrics().Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("module metrics diverged:\nreplay %+v\ndense  %+v", a, b)
	}
	dcfg := mods[0].Config()
	for chip := 0; chip < dram.LineChips; chip++ {
		for bank := 0; bank < dcfg.Banks; bank++ {
			for row := 0; row < dcfg.RowsPerBank; row++ {
				if a, b := mods[0].ChargedCellCount(chip, bank, row), mods[1].ChargedCellCount(chip, bank, row); a != b {
					t.Fatalf("charged cells diverged at (%d,%d,%d): %d vs %d", chip, bank, row, a, b)
				}
			}
		}
	}
}

func TestReplayIdleCyclesMatchesDense(t *testing.T) {
	cases := map[string]Config{
		"default":      {Skip: true, RowsPerAR: 32, Stagger: true, StatusInDRAM: true},
		"unstaggered":  {Skip: true, RowsPerAR: 32, StatusInDRAM: true},
		"sram-status":  {Skip: true, RowsPerAR: 32, Stagger: true},
		"all-bank":     {Skip: true, RowsPerAR: 32, Stagger: true, StatusInDRAM: true, AllBank: true},
		"conventional": {Skip: false, RowsPerAR: 32, Stagger: true},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			replay, dense, mods := replayTwins(t, cfg, 29)
			dcfg := mods[0].Config()
			tret := dcfg.Timing.TRET
			rng := rand.New(rand.NewSource(41))
			now := dram.Time(0)
			// Alternate write phases (mixed charged/discharged content,
			// partial AR coverage) with idle runs of several windows, so
			// the replay starts from skip/refresh mixtures with live skip
			// runs and partially aged rows.
			for phase := 0; phase < 3; phase++ {
				for i := 0; i < 60; i++ {
					bank := rng.Intn(dcfg.Banks)
					row := rng.Intn(dcfg.RowsPerBank)
					word := rng.Intn(dcfg.WordsPerChipRow())
					chip := rng.Intn(dram.LineChips)
					v := rng.Uint64()
					if rng.Intn(2) == 0 {
						v = dcfg.CellTypeOf(row).DischargedWord()
					}
					mods[0].WriteWord(chip, bank, row, word, v, now)
					mods[1].WriteWord(chip, bank, row, word, v, now)
					replay.NoteWrite(bank, row)
					dense.NoteWrite(bank, row)
				}
				// One real window absorbs the writes (access bits set, so
				// neither twin can bulk-replay it; ReplayIdleCycles falls
				// back to the dense cycle).
				a := replay.ReplayIdleCycles(now, 1)
				b := dense.RunCycle(now)
				if a != b {
					t.Fatalf("phase %d absorb window diverged:\nreplay %+v\ndense  %+v", phase, a, b)
				}
				now = a.End
				if !replay.CanReplayIdle() {
					t.Fatalf("phase %d: engine not replayable after absorb window", phase)
				}
				// The idle run under test: one bulk call vs k dense cycles.
				k := int64(3 + phase*4)
				a = replay.ReplayIdleCycles(now, k)
				var bsum CycleStats
				bsum.Start = now
				for c := int64(0); c < k; c++ {
					bsum.Add(dense.RunCycle(now + dram.Time(c)*tret))
				}
				if a != bsum {
					t.Fatalf("phase %d idle run (k=%d) diverged:\nreplay %+v\ndense  %+v", phase, k, a, bsum)
				}
				now = a.End
				compareTwins(t, replay, dense, mods)
			}
		})
	}
}

// TestReplayIdleFallbacks pins when the bulk path must not engage: per-chip
// status and backends without the IdleReplayer extension report
// CanReplayIdle false (and ReplayIdleCycles still produces dense results
// through its fallback), while a quiet default engine reports true only
// once its access bits have cleared.
func TestReplayIdleFallbacks(t *testing.T) {
	cfg := Config{Skip: true, RowsPerAR: 32, Stagger: true, StatusInDRAM: true}

	e := NewEngine(testModule(), cfg)
	if e.CanReplayIdle() {
		t.Fatal("fresh engine replayable: access bits start set")
	}
	e.RunCycle(0)
	if !e.CanReplayIdle() {
		t.Fatal("quiet engine after learning cycle not replayable")
	}
	e.NoteWrite(0, 0)
	if e.CanReplayIdle() {
		t.Fatal("engine with a pending access bit replayable")
	}

	pc := cfg
	pc.PerChipStatus = true
	e = NewEngine(testModule(), pc)
	e.RunCycle(0)
	if e.CanReplayIdle() {
		t.Fatal("per-chip-status engine replayable")
	}

	e = NewEngine(scalarBackend{testModule()}, cfg)
	e.RunCycle(0)
	if e.CanReplayIdle() {
		t.Fatal("engine over a backend without IdleReplayer replayable")
	}
	dcfg := e.mod.Config()
	if st := e.ReplayIdleCycles(dcfg.Timing.TRET, 3); st.Steps != 3*int64(dcfg.Banks)*int64(dcfg.RowsPerBank) {
		t.Fatalf("dense fallback ran %d steps", st.Steps)
	}
}
