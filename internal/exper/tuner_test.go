package exper

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/tuner"
)

// TestTunerSweepConvergence is the convergence acceptance criterion: on the
// adversarial machine the static thresholds choose a scheme at least 2x
// worse than the best fixed scheme, and the tuner's last-quartile mean comes
// within 10% of that best fixed scheme — deterministically, on the sim
// backend, with the default fixed seed.
func TestTunerSweepConvergence(t *testing.T) {
	rep, err := tunerRun(160)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestFixed != core.SchemeBCSPUP.String() {
		t.Logf("note: best fixed scheme is %s", rep.BestFixed)
	}
	if rep.StaticVsBest < 2.0 {
		t.Fatalf("static auto only %.2fx worse than best fixed (%s at %.1fus) — workload not adversarial enough",
			rep.StaticVsBest, rep.BestFixed, rep.BestFixedUS)
	}
	if rep.TunedLastQVsBest > 1.10 {
		t.Fatalf("tuned last-quartile mean %.2fx the best fixed scheme, want <= 1.10x (report: %s)",
			rep.TunedLastQVsBest, rep.Table())
	}
	// Warm start replays the learned table with exploration off, so it must
	// be near-best from the first message.
	if rep.WarmVsBest > 1.10 {
		t.Fatalf("warm-start mean %.2fx the best fixed scheme, want <= 1.10x", rep.WarmVsBest)
	}
	if len(rep.Learned) == 0 {
		t.Fatal("sweep exported an empty tuning table")
	}
	var tuned *TunerRow
	for i := range rep.Rows {
		if rep.Rows[i].Mode == "tuned" {
			tuned = &rep.Rows[i]
		}
	}
	if tuned == nil {
		t.Fatal("no tuned row in report")
	}
	if tuned.Explorations == 0 {
		t.Error("cold tuner never explored")
	}
	if tuned.Explorations+tuned.Exploitations != int64(rep.Msgs) {
		t.Errorf("decisions %d+%d != msgs %d", tuned.Explorations, tuned.Exploitations, rep.Msgs)
	}
}

// TestTunerRoundTripSelections: the table exported by the sweep, imported
// into a fresh tuner with exploration off, reproduces the same selections it
// would make itself (acceptance criterion, end-to-end flavor of the unit
// round-trip test).
func TestTunerRoundTripSelections(t *testing.T) {
	rep, err := tunerRun(96)
	if err != nil {
		t.Fatal(err)
	}
	table := rep.Learned
	// The export is replayable: an identical sweep learns a byte-equal table.
	again, err := tunerRun(96)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(table, again.Learned) {
		t.Fatal("exported tuning tables differ between identical sweeps")
	}
	cfg := tuner.DefaultConfig()
	cfg.Explore = false
	a := tuner.New(cfg)
	if err := a.ImportJSON(table); err != nil {
		t.Fatal(err)
	}
	b := tuner.New(cfg)
	if err := b.ImportJSON(table); err != nil {
		t.Fatal(err)
	}
	in := core.SelectorInput{
		Peer: 0, Bytes: 16 << 10, SAvg: 64, RAvg: 64, RRuns: 256,
		Eligible: []core.Scheme{core.SchemeGeneric, core.SchemeBCSPUP,
			core.SchemeRWGUP, core.SchemePRRS, core.SchemeMultiW},
		Static: core.SchemeRWGUP,
	}
	d1 := a.Choose(in)
	d2 := b.Choose(in)
	if d1.Scheme != d2.Scheme {
		t.Fatalf("same table, different selections: %v vs %v", d1.Scheme, d2.Scheme)
	}
	if d1.Explored || d2.Explored {
		t.Fatal("exploration disabled but a tuner explored")
	}
}
