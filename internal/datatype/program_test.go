package datatype

import (
	"math/rand"
	"testing"
)

// testShapes spans every program kind plus the cursor edge cases.
func testShapes(t *testing.T) []struct {
	name  string
	dt    *Type
	count int
	kind  ProgKind
} {
	t.Helper()
	v1 := Must(TypeVector(16, 64, 128, Int32))
	zero := Must(TypeResized(Int32, 0, 0)) // zero extent, size > 0
	// every other integer: n runs that never coalesce
	sparse := func(n int) *Type {
		displs := make([]int, n)
		for i := range displs {
			displs[i] = 2 * i
		}
		return Must(TypeIndexedBlock(1, displs, Int32))
	}
	half := sparse(maxProgRuns / 2)
	halfSpan := half.Extent() + 4
	mixed := Must(TypeStruct([]int{1, 2, 1, 3, 1}, []int64{0, 4, 100, 200, 236}, []*Type{
		Int32,
		Must(TypeVector(3, 1, 2, Int32)), // starts where the leaf before it ends
		Must(TypeIndexed([]int{1, 2}, []int{0, 3}, Int32)),
		Must(TypeResized(Int32, 0, 12)),
		Float64, // starts where the vector before it ends
	}))
	return []struct {
		name  string
		dt    *Type
		count int
		kind  ProgKind
	}{
		{"contig", Must(TypeContiguous(1024, Int32)), 1, ProgContig},
		{"contig-counted", Int32, 64, ProgContig},
		{"vector-1d", Must(TypeVector(128, 2, 32, Int32)), 1, ProgStrided},
		{"vector-2d", Must(TypeHvector(8, 1, 16384, v1)), 1, ProgStrided},
		// An unpadded counted vector abuts at every instance boundary (its
		// extent ends at the last block), so the cursor coalesces across the
		// seam: the repeat stays its own level, with the seams joined, since
		// one more stride level would over-count runs.
		{"vector-counted-abut", Must(TypeVector(8, 2, 16, Int32)), 3, ProgStrided},
		// Padding the extent restores the gap: a true counted 2D shape.
		{"vector-2d-counted", Must(TypeResized(Must(TypeVector(8, 2, 16, Int32)), 0, 512)), 3, ProgStrided},
		{"vector-abutting", Must(TypeVector(4, 8, 8, Int32)), 2, ProgContig},
		{"indexed", Must(TypeIndexed([]int{3, 1, 7}, []int{0, 5, 10}, Int32)), 4, ProgIndexed},
		{"indexed-block", Must(TypeIndexedBlock(4, []int{0, 16, 40}, Int32)), 2, ProgIndexed},
		{"struct", mustFig10(t), 4, ProgIndexed},
		// A single-part indexed type coalesces into one maximal run per
		// message: its copies tile one run.
		{"single-part-indexed", Must(TypeIndexed([]int{2}, []int{5}, Int32)), 3, ProgContig},
		// One displaced part is a contiguous run wherever it sits.
		{"single-part-displaced", Must(TypeIndexed([]int{2}, []int{5}, Int32)), 1, ProgContig},
		// The last block ends at the extent, where the next instance's
		// first block starts: runs coalesce across instances.
		{"indexed-abut-instances", Must(TypeIndexed([]int{2, 2}, []int{0, 4}, Int32)), 3, ProgIndexed},
		// Empty blocks vanish and touching neighbours merge in the table.
		{"indexed-empty-adjacent", Must(TypeIndexed([]int{2, 0, 3, 2, 0}, []int{0, 50, 2, 8, 1}, Int32)), 2, ProgIndexed},
		{"indexed-folds-to-contig", Must(TypeIndexed([]int{2, 0, 3, 1}, []int{0, 9, 2, 5}, Int32)), 2, ProgContig},
		{"indexed-negative-descending", Must(TypeIndexed([]int{1, 2, 1}, []int{10, -4, 3}, Int32)), 1, ProgIndexed},
		{"indexed-negative-descending-counted", Must(TypeIndexed([]int{1, 2, 1}, []int{10, -4, 3}, Int32)), 3, ProgIndexed},
		{"struct-mixed-children", mixed, 1, ProgIndexed},
		{"struct-mixed-children-counted", mixed, 3, ProgIndexed},
		// The run-table cap bounds the emitter; a table the type already
		// holds is shared whatever its length.
		{"max-runs-shared", sparse(maxProgRuns), 1, ProgIndexed},
		{"over-max-runs-shared", sparse(maxProgRuns + 1), 1, ProgIndexed},
		{"max-runs-counted", half, 2, ProgIndexed},
		{"max-runs-nested", Must(TypeHindexed([]int{1, 1}, []int64{0, halfSpan}, half)), 1, ProgIndexed},
		{"over-max-runs-nested", Must(TypeStruct([]int{1, 1, 1}, []int64{0, halfSpan, 2 * halfSpan}, []*Type{half, half, Int32})), 1, ProgGeneric},
		{"zero-count", Int32, 0, ProgContig},
		{"zero-extent", zero, 5, ProgStrided},
		{"negative-stride", Must(TypeVector(8, 1, -4, Int32)), 1, ProgStrided},
	}
}

func mustFig10(t *testing.T) *Type {
	t.Helper()
	var lens []int
	var displs []int64
	var types []*Type
	pos := int64(0)
	for b := 1; b <= 64; b *= 2 {
		lens = append(lens, b)
		displs = append(displs, pos)
		types = append(types, Int32)
		pos += int64(b)*4 + 4
	}
	return Must(TypeStruct(lens, displs, types))
}

// TestCompileKinds pins the program kind the compiler chooses per shape —
// including the coalescing vector that must NOT compile to strided (its runs
// abut across iterations) and the zero-extent type that must.
func TestCompileKinds(t *testing.T) {
	for _, sh := range testShapes(t) {
		p := Compile(sh.dt, sh.count)
		if p.Kind() != sh.kind {
			t.Errorf("%s: kind = %v, want %v (program: %s)", sh.name, p.Kind(), sh.kind, p)
		}
	}
}

// TestCompileGenericFallback drives the materialization cap: a unit with more
// maximal runs than maxProgRuns on a non-strided shape falls back to generic,
// while a count never does — the message repeats its unit, here one whose
// copies' seams merge, so that 200 copies of 384 runs are 76 601.
func TestCompileGenericFallback(t *testing.T) {
	var past *Type
	for _, sh := range testShapes(t) {
		if sh.name == "over-max-runs-nested" {
			past = sh.dt
		}
	}
	p := Compile(past, 1)
	if p.Kind() != ProgGeneric {
		t.Fatalf("kind = %v, want generic", p.Kind())
	}
	// Runs() is the compile-time estimate: the runs the emitter saw, scaled
	// to the unit; it must be within 1% of the walked count.
	walked := LayoutStats(past, 1, 0).Runs
	if diff := p.Runs() - walked; diff < -walked/100 || diff > walked/100 {
		t.Fatalf("generic Runs() = %d, walked %d", p.Runs(), walked)
	}
	idx := Must(TypeIndexed([]int{1, 1, 1}, []int{0, 3, 7}, Int32))
	big := Must(TypeVector(128, 1, 2, idx))
	q := Compile(big, 200)
	if q.Kind() == ProgGeneric || q.Runs() != 76601 || LayoutStats(big, 200, 0).Runs != q.Runs() {
		t.Fatalf("200 copies of a 384-run unit: %s with %d runs, walked %d, want 76601",
			q, q.Runs(), LayoutStats(big, 200, 0).Runs)
	}
	// Both cursors must still replay the exact cursor sequence.
	for _, c := range []struct {
		p     *Program
		dt    *Type
		count int
	}{{p, past, 1}, {q, big, 200}} {
		pc := c.p.Cursor()
		cur := NewCursor(c.dt, c.count)
		for {
			o1, n1, ok1 := pc.Next(1 << 20)
			o2, n2, ok2 := cur.Next(1 << 20)
			if o1 != o2 || n1 != n2 || ok1 != ok2 {
				t.Fatalf("%s: replay diverged: (%d,%d,%v) vs (%d,%d,%v)", c.p, o1, n1, ok1, o2, n2, ok2)
			}
			if !ok1 {
				break
			}
		}
	}
}

// TestProgramMatchesFlatten is the compiler's core invariant: the program's
// run sequence must be exactly the cursor's maximal coalesced run sequence —
// same offsets, same lengths, same order.
func TestProgramMatchesFlatten(t *testing.T) {
	for _, sh := range testShapes(t) {
		blocks, trunc := Flatten(sh.dt, sh.count, 0)
		if trunc {
			t.Fatalf("%s: unexpected truncation", sh.name)
		}
		p := Compile(sh.dt, sh.count)
		if p.Kind() == ProgGeneric {
			continue // covered by TestCompileGenericFallback
		}
		if p.Runs() != int64(len(blocks)) {
			t.Errorf("%s: program runs %d, flatten %d", sh.name, p.Runs(), len(blocks))
			continue
		}
		asc := true
		for i, b := range blocks {
			off, n := p.RunAt(int64(i))
			if off != b.Off || n != b.Len {
				t.Errorf("%s: run %d = (%d,%d), flatten (%d,%d)", sh.name, i, off, n, b.Off, b.Len)
				break
			}
			if i > 0 && b.Off < blocks[i-1].Off {
				asc = false
			}
		}
		if p.Ascending() && !asc {
			t.Errorf("%s: program claims ascending emission but flatten disagrees", sh.name)
		}
	}
}

// TestProgCursorMatchesCursor replays every shape through both cursors with
// randomized step sizes: the streaming sequences must be identical for any
// split of the byte stream.
func TestProgCursorMatchesCursor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range testShapes(t) {
		for trial := 0; trial < 20; trial++ {
			p := Compile(sh.dt, sh.count)
			pc := p.Cursor()
			cur := NewCursor(sh.dt, sh.count)
			if pc.Remaining() != cur.Remaining() {
				t.Fatalf("%s: Remaining %d vs %d", sh.name, pc.Remaining(), cur.Remaining())
			}
			for {
				max := int64(1 + rng.Intn(400))
				o1, n1, ok1 := pc.Next(max)
				o2, n2, ok2 := cur.Next(max)
				if o1 != o2 || n1 != n2 || ok1 != ok2 {
					t.Fatalf("%s trial %d: diverged at remaining %d: (%d,%d,%v) vs (%d,%d,%v)",
						sh.name, trial, cur.Remaining(), o1, n1, ok1, o2, n2, ok2)
				}
				if pc.Remaining() != cur.Remaining() || pc.Done() != cur.Done() {
					t.Fatalf("%s: state diverged: remaining %d/%d done %v/%v",
						sh.name, pc.Remaining(), cur.Remaining(), pc.Done(), cur.Done())
				}
				if !ok1 {
					break
				}
			}
		}
	}
}

// TestProgCursorReset pins that Reset rewinds to an identical replay.
func TestProgCursorReset(t *testing.T) {
	p := Compile(Must(TypeVector(16, 2, 8, Int32)), 3)
	pc := p.Cursor()
	first, _ := drain(pc)
	pc.Reset(p)
	second, _ := drain(pc)
	if len(first) != len(second) {
		t.Fatalf("run counts differ after Reset: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("run %d differs after Reset: %+v vs %+v", i, first[i], second[i])
		}
	}
}

func drain(w *ProgCursor) ([]Block, int64) {
	var out []Block
	var total int64
	for {
		off, n, ok := w.Next(1 << 62)
		if !ok {
			return out, total
		}
		out = append(out, Block{Off: off, Len: n})
		total += n
	}
}

// randProgType draws a random nested type for the compiler's differential
// and digest tests: vectors, indexed types whose blocks are empty, touch,
// overlap or go below zero, and structs packed tight enough that runs
// coalesce across part boundaries.
func randProgType(rng *rand.Rand) *Type {
	dt := Int32
	depth := 1 + rng.Intn(3)
	for d := 0; d < depth; d++ {
		switch rng.Intn(5) {
		case 0:
			dt = Must(TypeContiguous(1+rng.Intn(4), dt))
		case 1:
			cnt := 1 + rng.Intn(5)
			bl := 1 + rng.Intn(3)
			stride := bl + rng.Intn(4) // >= blocklen: no overlap
			dt = Must(TypeVector(cnt, bl, stride, dt))
		case 2:
			n := 1 + rng.Intn(3)
			lens := make([]int, n)
			displs := make([]int, n)
			pos := 0
			for i := 0; i < n; i++ {
				lens[i] = 1 + rng.Intn(3)
				displs[i] = pos + rng.Intn(3)
				pos = displs[i] + lens[i] + rng.Intn(2)
			}
			dt = Must(TypeIndexed(lens, displs, dt))
		case 3:
			// What the one-pass constructor has to normalize: empty
			// blocks, neighbours that touch, displacements that go
			// back and below zero (blocks may overlap).
			n := 1 + rng.Intn(5)
			lens := make([]int, n)
			displs := make([]int, n)
			pos := rng.Intn(7) - 3
			for i := 0; i < n; i++ {
				lens[i] = rng.Intn(3)
				if rng.Intn(3) == 0 {
					pos -= rng.Intn(6)
				} else if rng.Intn(2) == 0 {
					pos += rng.Intn(3)
				}
				displs[i] = pos
				pos += lens[i]
			}
			dt = Must(TypeIndexed(lens, displs, dt))
		case 4:
			// A struct mixing leaves with the nested type as a child,
			// packed tight so runs coalesce across the part boundaries.
			ext := dt.Extent()
			lens := []int{1 + rng.Intn(2), 1 + rng.Intn(2), rng.Intn(2), 1}
			types := []*Type{Int32, dt, Float64, Byte}
			displs := make([]int64, len(lens))
			pos := int64(rng.Intn(3)) * 4
			for i := range lens {
				displs[i] = pos - types[i].TrueLB()
				pos += int64(lens[i]-1)*types[i].Extent() + types[i].TrueExtent() + int64(rng.Intn(2))*ext
			}
			dt = Must(TypeStruct(lens, displs, types))
		}
	}
	return dt
}

// TestCompileRandomDifferential fuzzes random nested types against the
// cursor: whatever the compiler decides, the replay must match — through
// Next, through NextBatch, and through any interleaving of the two.
func TestCompileRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 600; trial++ {
		// Any count from zero up, and the digest's extents: seams that
		// merge, seams that do not, and copies that overlap.
		dt := extentVariants(randProgType(rng))[rng.Intn(5)]
		count := rng.Intn(65)
		p := Compile(dt, count)
		pc := p.Cursor()
		cur := NewCursor(dt, count)
		for {
			max := int64(1 + rng.Intn(64))
			if rng.Intn(2) == 0 {
				// A batch is that many whole-run steps of the cursor, within
				// max bytes; mid-run (or with nothing that fits) it is empty.
				before := pc.Remaining()
				b := pc.NextBatch(max)
				var bytes int64
				for j := 0; j < b.K; j++ {
					off, n := b.Run(j)
					o2, n2, ok2 := cur.Next(1 << 62)
					if !ok2 || off != o2 || n != n2 {
						t.Fatalf("trial %d (%v, count %d, kind %v): batch run %d/%d (%d,%d) vs cursor (%d,%d,%v)",
							trial, dt, count, p.Kind(), j, b.K, off, n, o2, n2, ok2)
					}
					bytes += n
				}
				if bytes > max || before-pc.Remaining() != bytes {
					t.Fatalf("trial %d (%v, count %d, kind %v): batch of %d B under max %d consumed %d B",
						trial, dt, count, p.Kind(), bytes, max, before-pc.Remaining())
				}
				continue
			}
			o1, n1, ok1 := pc.Next(max)
			o2, n2, ok2 := cur.Next(max)
			if o1 != o2 || n1 != n2 || ok1 != ok2 {
				t.Fatalf("trial %d (%v, count %d, kind %v): (%d,%d,%v) vs (%d,%d,%v)",
					trial, dt, count, p.Kind(), o1, n1, ok1, o2, n2, ok2)
			}
			if !ok1 {
				break
			}
		}
	}
}

// TestRunAtMatchesSequence pins random access against sequential emission.
func TestRunAtMatchesSequence(t *testing.T) {
	for _, sh := range testShapes(t) {
		p := Compile(sh.dt, sh.count)
		if p.Kind() == ProgGeneric {
			continue
		}
		seq, _ := drain(p.Cursor())
		if int64(len(seq)) != p.Runs() {
			t.Fatalf("%s: cursor drained %d runs, program claims %d", sh.name, len(seq), p.Runs())
		}
		var lo, hi int64
		for i, b := range seq {
			off, n := p.RunAt(int64(i))
			if off != b.Off || n != b.Len {
				t.Errorf("%s: RunAt(%d) = (%d,%d), sequence (%d,%d)", sh.name, i, off, n, b.Off, b.Len)
			}
			if i == 0 {
				lo, hi = b.Off, b.Off+b.Len
			}
			lo, hi = min(lo, b.Off), max(hi, b.Off+b.Len)
		}
		// Bounds is tight: the lowest run start and the highest run end.
		if gotLo, gotHi := p.Bounds(); gotLo != lo || gotHi != hi {
			t.Errorf("%s: Bounds() = [%d,%d), runs cover [%d,%d)", sh.name, gotLo, gotHi, lo, hi)
		}
	}
}

// TestTypeProgramAllocatesNothing holds a message's program to a value built
// from its type's unit: no object at any count, whatever the unit's form,
// and a Compile that adds only the pointer it returns.
func TestTypeProgramAllocatesNothing(t *testing.T) {
	var p Program
	for _, sh := range testShapes(t) {
		sh.dt.Unit()
		for _, n := range []int{2, 17, 1000} {
			if got := testing.AllocsPerRun(10, func() { p = sh.dt.Program(n) }); got != 0 {
				t.Errorf("%s: Program(%d) allocates %.0f objects", sh.name, n, got)
			}
			if got := testing.AllocsPerRun(10, func() { Compile(sh.dt, n) }); got > 1 {
				t.Errorf("%s: Compile(t, %d) allocates %.0f objects", sh.name, n, got)
			}
		}
	}
	_ = p
}

// sameProgram fails unless p and q answer every question alike: kind, runs,
// bytes, bounds, order and the whole RunAt sequence.
func sameProgram(t *testing.T, what string, p, q *Program) {
	t.Helper()
	plo, phi := p.Bounds()
	qlo, qhi := q.Bounds()
	if p.Kind() != q.Kind() || p.Runs() != q.Runs() || p.Bytes() != q.Bytes() ||
		plo != qlo || phi != qhi || p.Ascending() != q.Ascending() {
		t.Fatalf("%s: %s (%d runs, %d bytes, [%d,%d), ascending %v) != %s (%d runs, %d bytes, [%d,%d), ascending %v)",
			what, p, p.Runs(), p.Bytes(), plo, phi, p.Ascending(), q, q.Runs(), q.Bytes(), qlo, qhi, q.Ascending())
	}
	if p.Kind() == ProgGeneric {
		return
	}
	for i := int64(0); i < p.Runs(); i++ {
		po, pn := p.RunAt(i)
		if qo, qn := q.RunAt(i); po != qo || pn != qn {
			t.Fatalf("%s: run %d is (%d,%d), want (%d,%d)", what, i, po, pn, qo, qn)
		}
	}
}

// TestUnitIsTheTypesProgram holds Type.Unit to Compile(t, 1) for every
// program kind, and to one program per type however many goroutines ask for
// it first (the rt backend's ranks share types such as Int32; run under
// -race).
func TestUnitIsTheTypesProgram(t *testing.T) {
	for _, sh := range testShapes(t) {
		sameProgram(t, sh.name, sh.dt.Unit(), Compile(sh.dt, 1))
	}
	lens, displs := coldBlocks(rand.New(rand.NewSource(3)), 256, 16)
	for _, dt := range []*Type{Must(TypeIndexed(lens, displs, Int32)), Int32} {
		var got [8]*Program
		done := make(chan int)
		for g := range got {
			go func() {
				got[g] = dt.Unit()
				done <- g
			}()
		}
		for range got {
			<-done
		}
		for g, p := range got {
			if p != got[0] || p.Type() != dt {
				t.Fatalf("%s: goroutine %d got program %p of %v, goroutine 0 %p", dt, g, p, p.Type(), got[0])
			}
		}
		sameProgram(t, dt.String(), got[0], Compile(dt, 1))
	}
}

// TestDerivedTypesOwnTheirUnit checks that a type made from another — resized,
// wrapped in a struct, or decoded from its wire form — compiles a count-1
// program of its own rather than inheriting its source's.
func TestDerivedTypesOwnTheirUnit(t *testing.T) {
	old := Must(TypeIndexed([]int{3, 1, 7}, []int{0, 5, 10}, Int32))
	src := old.Unit()
	resized := Must(TypeResized(old, -8, 96))
	wrapped := Must(TypeStruct([]int{1}, []int64{0}, []*Type{old}))
	decoded, err := Decode(Encode(old))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		dt   *Type
	}{{"resized", resized}, {"struct", wrapped}, {"decoded", decoded}} {
		p := c.dt.Unit()
		if p == src || p.Type() != c.dt || c.dt.Unit() != p {
			t.Fatalf("%s: Unit() is %p of %v, source's %p", c.name, p, p.Type(), src)
		}
		sameProgram(t, c.name, p, Compile(c.dt, 1))
	}
	if old.Unit() != src {
		t.Fatal("deriving types changed the source's program")
	}
}
