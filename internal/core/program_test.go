package core

import (
	"testing"

	"repro/internal/datatype"
)

// TestProgramCacheReuse checks the compiled-program memoization: the second
// Program call for the same (type, count) must return the identical
// cached object, and a different count must compile separately.
func TestProgramCacheReuse(t *testing.T) {
	w := newTestWorld(t, 1, DefaultConfig(), 48<<20)
	ep := w.eps[0]
	v := datatype.Must(datatype.TypeVector(16, 2, 8, datatype.Int32))

	p1 := ep.Program(v, 4)
	if p2 := ep.Program(v, 4); p2 != p1 {
		t.Fatal("second Program call did not hit the cache")
	}
	if p3 := ep.Program(v, 5); p3 == p1 {
		t.Fatal("different count returned the same program")
	}
}

// TestProgramCacheVersionInvalidation checks the index-reuse hazard: FreeType
// drops the index's programs, so a new type that reuses the freed index must
// not resurrect the old type's cached program.
func TestProgramCacheVersionInvalidation(t *testing.T) {
	w := newTestWorld(t, 1, DefaultConfig(), 48<<20)
	ep := w.eps[0]

	a := datatype.Must(datatype.TypeVector(16, 2, 8, datatype.Int32))
	idxA := ep.CommitType(a)
	pa := ep.Program(a, 2)
	ep.FreeType(a)

	b := datatype.Must(datatype.TypeVector(8, 4, 16, datatype.Int32))
	idxB := ep.CommitType(b)
	if idxB != idxA {
		t.Fatalf("expected index reuse, got %d then %d", idxA, idxB)
	}
	pb := ep.Program(b, 2)
	if pb == pa {
		t.Fatal("freed index resurrected the stale program")
	}
	if pb.Type() != b || pb.Bytes() != b.Size()*2 {
		t.Fatalf("program after reuse compiled for the wrong type: %s", pb)
	}
}

// TestProgramCacheFreeDropsPrograms checks that short-lived types leave
// nothing behind: through 10 000 commit -> compile -> free cycles the cache
// never holds more than the one live type's program, and its slot storage
// is reused rather than regrown.
func TestProgramCacheFreeDropsPrograms(t *testing.T) {
	w := newTestWorld(t, 1, DefaultConfig(), 48<<20)
	ep := w.eps[0]
	for i := 0; i < 10000; i++ {
		v := datatype.Must(datatype.TypeVector(4+i%7, 1, 3, datatype.Int32))
		if p := ep.Program(v, 1); p.Type() != v {
			t.Fatalf("cycle %d: program compiled for the wrong type: %s", i, p)
		}
		if ep.progs.n != 1 {
			t.Fatalf("cycle %d: cache holds %d programs with one live type", i, ep.progs.n)
		}
		ep.FreeType(v)
		if ep.progs.n != 0 {
			t.Fatalf("cycle %d: FreeType left %d programs cached", i, ep.progs.n)
		}
	}
	if len(ep.progs.byIdx) != 1 {
		t.Fatalf("cache grew to %d slots for one reused index", len(ep.progs.byIdx))
	}
	ep.FreeType(datatype.Int32) // never committed: a no-op

	// Several counts of one type are all dropped with it.
	v := datatype.Must(datatype.TypeVector(4, 1, 3, datatype.Int32))
	p1, p2, p3 := ep.Program(v, 1), ep.Program(v, 2), ep.Program(v, 3)
	if ep.progs.n != 3 || ep.Program(v, 1) != p1 || ep.Program(v, 2) != p2 || ep.Program(v, 3) != p3 {
		t.Fatalf("three counts of one type: %d programs cached, or a miss", ep.progs.n)
	}
	ep.FreeType(v)
	if ep.progs.n != 0 || ep.progs.get(0, 1) != nil || ep.progs.get(0, 2) != nil {
		t.Fatalf("FreeType left %d programs of a multi-count type", ep.progs.n)
	}
}

// TestLayoutSummaryPaths checks that every program kind answers the summary
// from what it holds: canonical programs exactly, a shape past the run cap
// with its compile-time estimate — and none of them with a walk.
func TestLayoutSummaryPaths(t *testing.T) {
	w := newTestWorld(t, 1, DefaultConfig(), 48<<20)
	ep := w.eps[0]

	v := datatype.Must(datatype.TypeVector(64, 2, 8, datatype.Int32))
	runs, avg := ep.layoutSummary(v, 1)
	if runs != 64 || avg != 8 {
		t.Fatalf("canonical summary = (%d, %d), want (64, 8)", runs, avg)
	}

	idx := datatype.Must(datatype.TypeIndexed([]int{1, 1, 1}, []int{0, 3, 7}, datatype.Int32))
	big := datatype.Must(datatype.TypeVector(128, 1, 2, idx))
	prog := ep.Program(big, 200)
	if prog.Kind() != datatype.ProgGeneric {
		t.Fatalf("expected generic program, got %s", prog)
	}
	stats := datatype.LayoutStats(big, 200, 0)
	runs, avg = ep.layoutSummary(big, 200)
	// A handful of runs coalesce at instance seams, so the estimate is not
	// exact — but it must be within 1% of the true count.
	if diff := runs - stats.Runs; diff < -stats.Runs/100 || diff > stats.Runs/100 {
		t.Fatalf("estimated summary runs = %d, true %d", runs, stats.Runs)
	}
	if avg < int64(stats.AvgRun)-1 || avg > int64(stats.AvgRun)+1 {
		t.Fatalf("estimated avg = %d, true %.1f", avg, stats.AvgRun)
	}
	// The estimate was made once, at compile time: asking again costs no
	// sample walk and no block list.
	if allocs := testing.AllocsPerRun(20, func() { ep.layoutSummary(big, 200) }); allocs != 0 {
		t.Fatalf("layoutSummary of a past-cap shape allocates %.0f objects per call, want 0", allocs)
	}
}
