package exper

import "testing"

// simRows runs the sweep's modeled family and indexes its rows by
// (shape, path).
func simRows(t *testing.T) map[[2]string]CompileRow {
	doc, err := compilerSweep(simOnly, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[[2]string]CompileRow)
	for _, r := range doc.(*CompileDoc).SimRows {
		out[[2]string{r.Shape, r.Path}] = r
	}
	return out
}

// TestCompilerSweepDeterministic pins the guard's premise row by row: the sim
// rows are pure cost-model arithmetic, so two sweeps must agree exactly.
func TestCompilerSweepDeterministic(t *testing.T) {
	a, b := simRows(t), simRows(t)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for k, r := range a {
		if b[k] != r {
			t.Fatalf("row %v differs: %+v vs %+v", k, r, b[k])
		}
	}
}

// TestCompilerSweepOrdering checks the acceptance ordering on the modeled
// rows: compiled beats interpreted on the canonical shapes (strictly on the
// contiguous and 2D-strided ones the issue names), never beats the raw-copy
// bound, and degrades to exact parity on the generic fallback shape.
func TestCompilerSweepOrdering(t *testing.T) {
	sim := simRows(t)
	get := func(shape, path string) CompileRow {
		r, ok := sim[[2]string{shape, path}]
		if !ok {
			t.Fatalf("sweep has no sim row for %s/%s", shape, path)
		}
		return r
	}

	for _, shape := range []string{"contig-256k", "vector-1d", "vector-2d", "indexed-block", "struct-fig10", "irregular-big"} {
		ip, cp, raw := get(shape, "interpreted"), get(shape, "compiled"), get(shape, "copy")
		if !(cp.VirtualUS < ip.VirtualUS) {
			t.Errorf("%s: compiled %.2f us not under interpreted %.2f us", shape, cp.VirtualUS, ip.VirtualUS)
		}
		if cp.VirtualUS < raw.VirtualUS {
			t.Errorf("%s: compiled %.2f us beats the raw copy bound %.2f us", shape, cp.VirtualUS, raw.VirtualUS)
		}
		if cp.Runs != ip.Runs || cp.Bytes != ip.Bytes {
			t.Errorf("%s: compiled row (%d runs, %d B) disagrees with interpreted (%d runs, %d B)",
				shape, cp.Runs, cp.Bytes, ip.Runs, ip.Bytes)
		}
	}

	// The generic fallback replays the interpreted cursor, so its modeled
	// cost is identical by construction.
	ip, cp := get("past-cap-unit", "interpreted"), get("past-cap-unit", "compiled")
	if cp.VirtualUS != ip.VirtualUS {
		t.Errorf("past-cap-unit: generic path %.2f us, interpreted %.2f us (want parity)",
			cp.VirtualUS, ip.VirtualUS)
	}
	if cp.Kind != "generic" {
		t.Errorf("past-cap-unit compiled row kind = %q, want generic", cp.Kind)
	}
}
