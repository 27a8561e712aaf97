package perfgate

import (
	"path/filepath"
	"strings"
	"testing"
)

func row(name, kind string, ns, allocs float64, zero bool) Row {
	return Row{Name: name, Kind: kind, NsPerOp: ns, AllocsPerOp: allocs, ZeroAlloc: zero}
}

func findProblem(t *testing.T, ps []Problem, rowName string) Problem {
	t.Helper()
	for _, p := range ps {
		if p.Row == rowName {
			return p
		}
	}
	t.Fatalf("no problem reported for row %q in %v", rowName, ps)
	return Problem{}
}

// The tentpole invariant: a pinned zero-alloc row that allocates anything at
// all is a fatal regression, no tolerance applies.
func TestCompareZeroAllocViolationIsFatal(t *testing.T) {
	base := Report{Rows: []Row{row("chunkwrs/v", KindWall, 100, 0, true)}}
	cur := Report{Rows: []Row{row("chunkwrs/v", KindWall, 100, 0.005, true)}}
	ps := Compare(base, cur)
	p := findProblem(t, ps, "chunkwrs/v")
	if !p.Fatal || !strings.Contains(p.Msg, "zero-alloc") {
		t.Fatalf("zero-alloc violation not fatal: %+v", p)
	}
	if !Fatal(ps) {
		t.Fatal("Fatal() = false with a zero-alloc violation present")
	}
}

// A row with a ceiling is held to the committed one exactly: a reading at the
// ceiling passes, anything over it fails, whatever the baseline read and
// whatever ceiling the current run claims for itself.
func TestCompareAllocCeilingIsExact(t *testing.T) {
	base := Report{Rows: []Row{{Name: "cold/X", Kind: KindWall, NsPerOp: 1000, AllocsPerOp: 3, MaxAllocs: 4}}}
	cur := Report{Rows: []Row{{Name: "cold/X", Kind: KindWall, NsPerOp: 1000, AllocsPerOp: 4, MaxAllocs: 50}}}
	if ps := Compare(base, cur); len(ps) != 0 {
		t.Fatalf("a reading at the ceiling flagged: %v", ps)
	}
	cur.Rows[0].AllocsPerOp = 4.125 // one stray object in eight layouts
	p := findProblem(t, Compare(base, cur), "cold/X")
	if !p.Fatal || !strings.Contains(p.Msg, "ceiling") {
		t.Fatalf("a reading over the ceiling not fatal: %+v", p)
	}
	// A +10 % +8 headroom would have let this one through.
	cur.Rows[0].AllocsPerOp = 11
	if !Fatal(Compare(base, cur)) {
		t.Fatal("four objects per layout grew to eleven and the gate passed")
	}
}

// Injected regression: virtual-time latency past NsSlack fails the gate.
// This is the `make perf-guard` failure mode demonstrated in the PR.
func TestCompareVirtualNsRegressionIsFatal(t *testing.T) {
	base := Report{Rows: []Row{row("rndv/sim/X", KindVirtual, 1000, 10, false)}}
	cur := Report{Rows: []Row{row("rndv/sim/X", KindVirtual, 1099, 10, false)}}
	if ps := Compare(base, cur); len(ps) != 0 {
		t.Fatalf("in-tolerance virtual drift flagged: %v", ps)
	}
	cur.Rows[0].NsPerOp = 1101
	ps := Compare(base, cur)
	p := findProblem(t, ps, "rndv/sim/X")
	if !p.Fatal || !strings.Contains(p.Msg, "virtual") {
		t.Fatalf("virtual regression not fatal: %+v", p)
	}
	if !Fatal(ps) {
		t.Fatal("Fatal() = false with a virtual regression present")
	}
}

// Wall-clock drift never fails the gate — machines differ — but large drift
// is surfaced as an advisory note.
func TestCompareWallDriftIsAdvisory(t *testing.T) {
	base := Report{Rows: []Row{row("pack/v", KindWall, 100, 0, true)}}
	cur := Report{Rows: []Row{row("pack/v", KindWall, 500, 0, true)}}
	ps := Compare(base, cur)
	p := findProblem(t, ps, "pack/v")
	if p.Fatal {
		t.Fatalf("wall drift reported fatal: %+v", p)
	}
	if Fatal(ps) {
		t.Fatal("Fatal() = true on advisory-only problems")
	}
	if got := p.String(); !strings.HasPrefix(got, "note ") {
		t.Fatalf("advisory problem renders as %q", got)
	}
}

// A ratio row is enforced against the committed ceiling, not against the
// previous measurement and not against whatever ceiling the current run
// carries: drifting under the ceiling passes, crossing it fails.
func TestCompareRatioCeiling(t *testing.T) {
	base := Report{Rows: []Row{{Name: "packratio/v", Kind: KindRatio, Ratio: 15, Ceiling: 30}}}
	cur := Report{Rows: []Row{{Name: "packratio/v", Kind: KindRatio, Ratio: 29.9, Ceiling: 1000}}}
	if ps := Compare(base, cur); len(ps) != 0 {
		t.Fatalf("ratio under the ceiling flagged: %v", ps)
	}
	cur.Rows[0].Ratio = 30.1
	p := findProblem(t, Compare(base, cur), "packratio/v")
	if !p.Fatal || !strings.Contains(p.Msg, "ceiling") {
		t.Fatalf("ratio past the ceiling not fatal: %+v", p)
	}
}

func TestCompareMissingAndNewRows(t *testing.T) {
	base := Report{Rows: []Row{row("gone", KindWall, 1, 0, false)}}
	cur := Report{Rows: []Row{row("fresh", KindWall, 1, 0, false)}}
	ps := Compare(base, cur)
	if p := findProblem(t, ps, "gone"); !p.Fatal {
		t.Fatalf("missing row not fatal: %+v", p)
	}
	if p := findProblem(t, ps, "fresh"); p.Fatal {
		t.Fatalf("new row reported fatal: %+v", p)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "perf.json")
	r := Report{Rows: []Row{
		row("b", KindWall, 2, 1, false),
		row("a", KindVirtual, 1, 0, true),
	}}
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 || got.Rows[0].Name != "a" || got.Rows[1].Name != "b" {
		t.Fatalf("round trip lost sorting or rows: %+v", got.Rows)
	}
	if got.Rows[0].Kind != KindVirtual || !got.Rows[0].ZeroAlloc {
		t.Fatalf("round trip lost fields: %+v", got.Rows[0])
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("loading a missing baseline succeeded")
	}
}

// The committed baseline must stay in sync with the suite's row set: every
// baseline comparison assumes names match. This does not run the full suite
// (worlds are exercised by cmd/perfgate); it pins the static half.
func TestWallRowMeasuresZeroAllocClosure(t *testing.T) {
	n := 0
	r := wallRow("probe", true, func() { n++ })
	if r.AllocsPerOp != 0 || !r.ZeroAlloc || r.Kind != KindWall {
		t.Fatalf("wallRow on a pure closure: %+v", r)
	}
	if want := wallBatches*wallRuns + 1; n != want {
		t.Fatalf("wallRow ran closure %d times, want %d", n, want)
	}
}

// A stray allocation in one batch (the process-global counter picks up
// runtime background work) must not fail a zero-alloc row; an allocation in
// every batch must show.
func TestWallRowIgnoresOneDirtyBatch(t *testing.T) {
	calls := 0
	r := wallRow("probe", true, func() {
		if calls++; calls == 2 {
			allocSink = make([]byte, 64)
		}
	})
	if r.AllocsPerOp != 0 {
		t.Fatalf("one stray allocation reads %.3f allocs/op", r.AllocsPerOp)
	}
	r = wallRow("probe", true, func() { allocSink = make([]byte, 64) })
	if r.AllocsPerOp < 1 {
		t.Fatalf("a closure that always allocates reads %.3f allocs/op", r.AllocsPerOp)
	}
}

// spin is a fixed amount of arithmetic the compiler cannot drop.
func spin(n int) {
	for i := 0; i < n; i++ {
		spinSink += uint64(i) * 2654435761
	}
}

var spinSink uint64

// A reading over the ceiling is retaken and the lowest kept: a numerator
// that is ten times too slow only while the first reading is taken (the way
// a burst of interference is) must not leave the row over its ceiling.
func TestRatioRowRetakesDisturbedReading(t *testing.T) {
	calls := 0
	num := func() {
		if calls++; calls <= wallBatches*wallRuns+1 {
			spin(20000)
			return
		}
		spin(2000)
	}
	r := ratioRow("packratio/probe", 8, num, func() { spin(1000) })
	if r.Kind != KindRatio || r.Ceiling != 8 || r.Ratio <= 0 || r.Ratio > 8 {
		t.Fatalf("ratio row after one disturbed reading: %+v", r)
	}
	if calls <= wallBatches*wallRuns+1 {
		t.Fatal("the disturbed reading was not retaken")
	}
}

// allocSink keeps the test allocations on the heap.
var allocSink []byte
