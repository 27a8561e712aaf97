package datatype

import "testing"

// TestCursorZeroEdges is the table-driven audit of the degenerate (type,
// count) combinations: zero count, zero-size types, zero-extent types, and
// their nestings. Every case must report Done immediately when it carries no
// data, emit exactly its Size()*count bytes otherwise, and never emit a
// zero-length run.
func TestCursorZeroEdges(t *testing.T) {
	zeroExtent := Must(TypeResized(Int32, 0, 0))
	zeroSize := Must(TypeContiguous(0, Int32))
	cases := []struct {
		name     string
		dt       *Type
		count    int
		bytes    int64
		wantRuns int64 // -1 = don't check
	}{
		{"zero-count-basic", Int32, 0, 0, 0},
		{"zero-count-vector", Must(TypeVector(4, 2, 8, Int32)), 0, 0, 0},
		{"zero-size-contig", zeroSize, 3, 0, 0},
		{"zero-size-vector", Must(TypeVector(5, 0, 8, Int32)), 2, 0, 0},
		{"zero-size-indexed", Must(TypeIndexed([]int{0, 0}, []int{0, 4}, Int32)), 2, 0, 0},
		{"zero-size-child", Must(TypeVector(4, 2, 8, zeroSize)), 3, 0, 0},
		{"zero-extent-counted", zeroExtent, 4, 16, -1},
		{"zero-extent-child", Must(TypeVector(3, 2, 5, zeroExtent)), 1, 24, -1},
		{"mixed-zero-len-parts", Must(TypeIndexed([]int{2, 0, 3}, []int{0, 4, 8}, Int32)), 2, 40, -1},
		{"resized-negative-lb", Must(TypeResized(Int32, -8, 24)), 3, 12, 3},
	}
	for _, tc := range cases {
		c := NewCursor(tc.dt, tc.count)
		if c.Remaining() != tc.bytes {
			t.Errorf("%s: Remaining = %d, want %d", tc.name, c.Remaining(), tc.bytes)
		}
		if tc.bytes == 0 && !c.Done() {
			t.Errorf("%s: empty message not Done at construction", tc.name)
		}
		var total, runs int64
		for {
			_, n, ok := c.Next(1 << 30)
			if !ok {
				break
			}
			if n <= 0 {
				t.Fatalf("%s: emitted non-positive run length %d", tc.name, n)
			}
			total += n
			runs++
		}
		if total != tc.bytes {
			t.Errorf("%s: walked %d bytes, want %d", tc.name, total, tc.bytes)
		}
		if tc.wantRuns >= 0 && runs != tc.wantRuns {
			t.Errorf("%s: %d runs, want %d", tc.name, runs, tc.wantRuns)
		}
		if !c.Done() {
			t.Errorf("%s: cursor not Done after drain", tc.name)
		}

		// Flatten must agree with the walk, and Compile must replay it even
		// for the degenerate shapes.
		blocks, trunc := Flatten(tc.dt, tc.count, 0)
		if trunc {
			t.Errorf("%s: unexpected truncation", tc.name)
		}
		var fbytes int64
		for _, b := range blocks {
			fbytes += b.Len
		}
		if fbytes != tc.bytes {
			t.Errorf("%s: flatten covers %d bytes, want %d", tc.name, fbytes, tc.bytes)
		}
		prog, _ := drain(Compile(tc.dt, tc.count).Cursor())
		if len(prog) != len(blocks) {
			t.Errorf("%s: program %d runs, flatten %d", tc.name, len(prog), len(blocks))
			continue
		}
		for i := range blocks {
			if prog[i] != blocks[i] {
				t.Errorf("%s: program run %d = %+v, flatten %+v", tc.name, i, prog[i], blocks[i])
			}
		}
	}
}

// TestFlattenExactLimit pins the (blocks, complete) contract at the
// boundaries: a limit equal to the true run count must return the full
// layout and report it as complete, not truncated.
func TestFlattenExactLimit(t *testing.T) {
	v := Must(TypeVector(8, 2, 5, Int32)) // exactly 8 runs per instance
	full, trunc := Flatten(v, 2, 0)
	if trunc {
		t.Fatal("unlimited flatten reported truncated")
	}
	n := len(full) // 16

	for limit := 1; limit <= n+2; limit++ {
		blocks, trunc := Flatten(v, 2, limit)
		wantLen := limit
		if wantLen > n {
			wantLen = n
		}
		if len(blocks) != wantLen {
			t.Fatalf("limit %d: got %d blocks, want %d", limit, len(blocks), wantLen)
		}
		wantTrunc := limit < n
		if trunc != wantTrunc {
			t.Fatalf("limit %d (of %d runs): truncated = %v, want %v", limit, n, trunc, wantTrunc)
		}
		for i := range blocks {
			if blocks[i] != full[i] {
				t.Fatalf("limit %d: block %d = %+v, want %+v", limit, i, blocks[i], full[i])
			}
		}
	}
}

// TestLayoutStatsExactLimit mirrors the Flatten boundary for the stats path:
// at exactly the run count the stats must not be marked Truncated.
func TestLayoutStatsExactLimit(t *testing.T) {
	v := Must(TypeVector(8, 2, 5, Int32))
	full := LayoutStats(v, 2, 0)
	if full.Truncated {
		t.Fatal("unlimited stats reported truncated")
	}
	at := LayoutStats(v, 2, int(full.Runs))
	if at.Truncated {
		t.Fatalf("stats at exact limit %d reported truncated", full.Runs)
	}
	if at != full {
		t.Fatalf("stats at exact limit differ: %+v vs %+v", at, full)
	}
	under := LayoutStats(v, 2, int(full.Runs)-1)
	if !under.Truncated {
		t.Fatal("stats one under the run count not reported truncated")
	}
}
