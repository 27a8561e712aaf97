package core

import (
	"testing"

	"repro/internal/datatype"
)

// TestProgramCacheVersionInvalidation checks the index-reuse hazard: a type
// that reuses a freed index gets a bumped version, so peers' layout caches
// see the change, and a grouping made for the freed type at the same buffer
// is not handed to it — plans hold the type itself, not its index.
func TestProgramCacheVersionInvalidation(t *testing.T) {
	w := newTestWorld(t, 1, DefaultConfig(), 48<<20)
	ep := w.eps[0]

	a := datatype.Must(datatype.TypeVector(16, 2, 8, datatype.Int32))
	b := datatype.Must(datatype.TypeVector(8, 4, 16, datatype.Int32))
	buf := allocFor(ep, a, 2)
	idxA := ep.CommitType(a)
	version := ep.types.version(idxA)
	ep.groupMessage(buf, a, 2)
	ep.FreeType(a)

	idxB := ep.CommitType(b)
	if idxB != idxA || ep.types.version(idxB) != version+1 {
		t.Fatalf("expected index %d reused at version %d, got %d at %d", idxA, version+1, idxB, ep.types.version(idxB))
	}
	walks := ep.plans.ogrWalks
	if e := ep.groupMessage(buf, b, 2); ep.plans.ogrWalks != walks+1 || e.t != b || e.blocks != 15 {
		t.Fatalf("grouping after reuse: %d walks, %d blocks of %v; want a fresh walk of b's 15 runs",
			ep.plans.ogrWalks-walks, e.blocks, e.t)
	}
}

// TestBindAllocatesNothing checks that a message's program is its type's
// unit repeated: binding a pooled packer to any count allocates nothing, and
// the endpoint holds nothing per count, so a stream of short-lived types
// leaves only the registry's one reused slot behind.
func TestBindAllocatesNothing(t *testing.T) {
	w := newTestWorld(t, 1, DefaultConfig(), 48<<20)
	ep := w.eps[0]
	v := datatype.Must(datatype.TypeIndexed([]int{1, 2, 1}, []int{0, 3, 9}, datatype.Int32))
	buf := allocFor(ep, v, 1000)
	stage := make([]byte, v.Size()*1000)
	for _, n := range []int{1, 2, 17, 1000} {
		if got := testing.AllocsPerRun(20, func() { ep.pk.Bind(ep.memory, buf, v, n) }); got != 0 {
			t.Errorf("binding count %d allocates %.0f objects", n, got)
		}
		if got, _ := ep.pk.PackTo(stage); got != v.Size()*int64(n) {
			t.Errorf("count %d packed %d bytes, want %d", n, got, v.Size()*int64(n))
		}
	}
	for i := 0; i < 1000; i++ {
		u := datatype.Must(datatype.TypeVector(4+i%7, 1, 3, datatype.Int32))
		ep.CommitType(u)
		ep.pk.Bind(ep.memory, buf, u, 2)
		ep.FreeType(u)
	}
	ep.FreeType(datatype.Int32) // never committed: a no-op
	if got := ep.TypeStats(); got != (TypeStats{Slots: 1}) {
		t.Fatalf("short-lived types left %+v behind", got)
	}
}

// TestLayoutSummaryPaths checks that every program kind answers the summary
// from what it holds: canonical programs exactly — a count by repeating its
// unit — and a unit past the run cap with its compile-time estimate; none
// of them with a walk.
func TestLayoutSummaryPaths(t *testing.T) {
	w := newTestWorld(t, 1, DefaultConfig(), 48<<20)
	ep := w.eps[0]

	v := datatype.Must(datatype.TypeVector(64, 2, 8, datatype.Int32))
	runs, avg := ep.layoutSummary(v, 1)
	if runs != 64 || avg != 8 {
		t.Fatalf("canonical summary = (%d, %d), want (64, 8)", runs, avg)
	}

	// 200 copies of a 384-run unit whose last run meets the next copy's
	// first: 76 601 runs, exactly, in a program of no more than the unit.
	idx := datatype.Must(datatype.TypeIndexed([]int{1, 1, 1}, []int{0, 3, 7}, datatype.Int32))
	big := datatype.Must(datatype.TypeVector(128, 1, 2, idx))
	if runs, _ = ep.layoutSummary(big, 200); runs != 76601 || datatype.LayoutStats(big, 200, 0).Runs != runs {
		t.Fatalf("repeated summary runs = %d, want 76601", runs)
	}

	// The same bytes as one type are a unit past the run cap.
	past := datatype.Must(datatype.TypeContiguous(200, big))
	if prog := past.Program(1); prog.Kind() != datatype.ProgGeneric {
		t.Fatalf("expected generic program, got %s", &prog)
	}
	stats := datatype.LayoutStats(past, 1, 0)
	runs, avg = ep.layoutSummary(past, 1)
	// The estimate scales the runs the compiler saw to the unit's bytes, so
	// it is not exact — but it must be within 1% of the true count.
	if diff := runs - stats.Runs; diff < -stats.Runs/100 || diff > stats.Runs/100 {
		t.Fatalf("estimated summary runs = %d, true %d", runs, stats.Runs)
	}
	if avg < int64(stats.AvgRun)-1 || avg > int64(stats.AvgRun)+1 {
		t.Fatalf("estimated avg = %d, true %.1f", avg, stats.AvgRun)
	}
	// The estimate was made once, at compile time: asking again costs no
	// sample walk and no block list, and neither does a count.
	for _, c := range []struct {
		dt    *datatype.Type
		count int
	}{{past, 1}, {big, 200}} {
		if allocs := testing.AllocsPerRun(20, func() { ep.layoutSummary(c.dt, c.count) }); allocs != 0 {
			t.Fatalf("layoutSummary(%s, %d) allocates %.0f objects per call, want 0", c.dt, c.count, allocs)
		}
	}
}
