package pack

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/datatype"
	"repro/internal/mem"
)

// The tests in this file hold the batch kernels to the interpreted
// datatype.Cursor — never to the compiled program they replay. A layout is
// placed in a fixed arena with its origin in the middle, so negative offsets
// have somewhere to land; a layout that does not fit must panic with mem's
// range message and nothing else.

const (
	kernelArena  = 1 << 20
	kernelOrigin = mem.Addr(kernelArena / 2)
	kernelFill   = 0xA5 // what every arena byte holds between checks
)

// kernelFixture is the arena the checks share (they never run in parallel).
// Filling and comparing a megabyte per check would dominate the table, so a
// check touches only a window around its layout, restores the fill, and
// clean() proves afterwards that nothing outside any window was written.
type kernelFixture struct {
	m       *mem.Memory
	user    []byte // the arena from address 1 up: layout offset off is user[at(off)]
	wantMem []byte // scratch for the expected scatter, same indexing
}

var kernFix *kernelFixture

func fixture() *kernelFixture {
	if kernFix == nil {
		m := mem.NewMemory("kern", kernelArena)
		kernFix = &kernelFixture{m: m, user: m.Bytes(1, kernelArena-1), wantMem: make([]byte, kernelArena-1)}
		fillBytes(kernFix.user, kernelFill)
	}
	return kernFix
}

func fillBytes(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}

// at maps a layout offset to its index in user.
func at(off int64) int64 { return int64(kernelOrigin) + off - 1 }

// clean fails the test if any arena byte differs from the fill.
func (fx *kernelFixture) clean(t *testing.T) {
	t.Helper()
	if n := bytes.Count(fx.user, []byte{kernelFill}); n != len(fx.user) {
		t.Fatalf("%d arena bytes were written outside the layout's window", len(fx.user)-n)
	}
}

// window returns the user index range covering every run of the message
// plus a 64-byte guard on each side, or ok false if a run leaves the arena.
func window(dt *datatype.Type, count int) (lo, hi int64, ok bool) {
	runs, _ := datatype.Flatten(dt, count, 0)
	lo, hi = at(0), at(0)
	for _, r := range runs {
		if at(r.Off) < 0 || at(r.Off)+r.Len > kernelArena-1 {
			return 0, 0, false
		}
		lo, hi = min(lo, at(r.Off)), max(hi, at(r.Off)+r.Len)
	}
	return max(lo-64, 0), min(hi+64, kernelArena-1), true
}

// kernelStep is what one PackTo/UnpackFrom call must report.
type kernelStep struct {
	n    int64
	runs int
}

// oracleWalk replays (dt, count) through the interpreted Cursor in calls of
// the given sizes (cycled until the message ends; a size is clamped to at
// least 1), calling move for every run piece with its layout offset and its
// position in the packed stream, and returns what each call must report.
func oracleWalk(dt *datatype.Type, count int, sizes []int, move func(off, pos, n int64)) []kernelStep {
	cur := datatype.NewCursor(dt, count)
	var steps []kernelStep
	var pos int64
	for i := 0; !cur.Done(); i++ {
		want := int64(max(sizes[i%len(sizes)], 1))
		var st kernelStep
		for st.n < want {
			off, k, ok := cur.Next(want - st.n)
			if !ok {
				break
			}
			move(off, pos, k)
			pos += k
			st.n += k
			st.runs++
		}
		steps = append(steps, st)
	}
	return steps
}

// kernelPar fans every call of two bytes or more out over three shards, in
// order on the calling goroutine (layouts here may overlap themselves).
var kernelPar = Par{Workers: 3, Exec: SerialExec{}, MinShard: 1}

// checkKernels packs and unpacks (dt, count) through the compiled program in
// calls of the given sizes, on the serial and on the parallel engine, and
// compares bytes and (n, runs) per call with the interpreted walk; it also
// checks the other walkers built on the batch primitive: ProgramBlocks,
// GroupProgram and the parallel engine's run collection.
func checkKernels(t *testing.T, dt *datatype.Type, count int, sizes []int) {
	t.Helper()
	size := dt.Size() * int64(count)
	prog := datatype.Compile(dt, count)
	fx := fixture()
	m, wantMem := fx.m, fx.wantMem
	lo, hi, ok := window(dt, count)
	if !ok {
		t.Fatal("layout does not fit the arena")
	}
	user := fx.user[:hi] // writes past the window fault here, below it show in clean()
	for i := lo; i < hi; i++ {
		user[i] = byte(i*7 + i>>8)
	}
	// replay makes the oracle's calls on one engine and holds each to the
	// oracle's report.
	replay := func(what string, steps []kernelStep, buf []byte, call func([]byte) (int64, int)) {
		t.Helper()
		var pos int64
		for i, st := range steps {
			k := min(int64(max(sizes[i%len(sizes)], 1)), size-pos)
			n, runs := call(buf[pos : pos+k])
			if n != st.n || runs != st.runs {
				t.Fatalf("%s call %d (%d B): got (n=%d, runs=%d), cursor (n=%d, runs=%d)", what, i, k, n, runs, st.n, st.runs)
			}
			pos += n
		}
	}

	// Pack: the stream and the per-call reports.
	want := make([]byte, size)
	steps := oracleWalk(dt, count, sizes, func(off, pos, n int64) {
		copy(want[pos:pos+n], user[at(off):at(off)+n])
	})
	p := NewProgramPacker(m, kernelOrigin, prog)
	pp := NewParallelProgramPacker(m, kernelOrigin, prog, kernelPar)
	for what, call := range map[string]func([]byte) (int64, int){
		"pack":          p.PackTo,
		"parallel pack": func(b []byte) (int64, int) { st := pp.Pack(b); return st.Bytes, st.Runs },
	} {
		got := make([]byte, size)
		replay(what, steps, got, call)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: stream differs from the cursor's", what)
		}
		if n, runs := call(make([]byte, 8)); n != 0 || runs != 0 {
			t.Fatalf("%s past the end moved (n=%d, runs=%d)", what, n, runs)
		}
	}
	if !p.Done() || !pp.Done() {
		t.Fatalf("packers not done (serial %v, parallel %v)", p.Done(), pp.Done())
	}

	// Unpack: scatter a different stream over a sentinel-filled arena; the
	// oracle applies the same pieces in the same order, so overlapping runs
	// and untouched gaps must both match.
	stream := make([]byte, size)
	for i := range stream {
		stream[i] = byte(255 - i*3)
	}
	fillBytes(wantMem[lo:hi], kernelFill)
	oracleWalk(dt, count, sizes, func(off, pos, n int64) {
		copy(wantMem[at(off):at(off)+n], stream[pos:pos+n])
	})
	u := NewProgramUnpacker(m, kernelOrigin, prog)
	pu := NewParallelProgramUnpacker(m, kernelOrigin, prog, kernelPar)
	for what, call := range map[string]func([]byte) (int64, int){
		"unpack":          u.UnpackFrom,
		"parallel unpack": func(b []byte) (int64, int) { st := pu.Unpack(b); return st.Bytes, st.Runs },
	} {
		fillBytes(user[lo:hi], kernelFill)
		replay(what, steps, stream, call)
		if !bytes.Equal(user[lo:hi], wantMem[lo:hi]) {
			t.Fatalf("%s: memory differs from the cursor's scatter", what)
		}
	}
	if !u.Done() || !pu.Done() {
		t.Fatalf("unpackers not done (serial %v, parallel %v)", u.Done(), pu.Done())
	}
	fillBytes(user[lo:hi], kernelFill)

	// ProgramBlocks against the flattened cursor walk, with and without a
	// truncating limit; GroupProgram, for a layout whose runs ascend, against
	// the grouping of that list.
	for _, limit := range []int{0, 3} {
		wantB, wantTrunc := flattenBlocks(kernelOrigin, dt, count, limit)
		gotB, gotTrunc := ProgramBlocks(kernelOrigin, prog, limit)
		if gotTrunc != wantTrunc || !slices.Equal(gotB, wantB) {
			t.Fatalf("ProgramBlocks(limit %d): %d blocks trunc %v, Flatten %d trunc %v", limit, len(gotB), gotTrunc, len(wantB), wantTrunc)
		}
	}
	all, _ := flattenBlocks(kernelOrigin, dt, count, 0)
	if slices.IsSortedFunc(all, func(a, b mem.Block) int { return cmp.Compare(a.Addr, b.Addr) }) {
		cost := mem.RegCost{Base: 7000, PerPage: 300}
		var g mem.Grouper
		g.Reset(cost, nil)
		GroupProgram(&g, kernelOrigin, prog)
		if got, want := g.Finish(), mem.GroupRegionsSorted(all, cost); !slices.Equal(got, want) {
			t.Fatalf("GroupProgram grouped %v, the flattened list groups as %v", got, want)
		}
	}

	// collectRuns: the same calls must yield the cursor's pieces.
	var wantRefs, gotRefs []runRef
	oracleWalk(dt, count, sizes, func(off, pos, n int64) {
		wantRefs = append(wantRefs, runRef{addr: addrAt(kernelOrigin, off), n: n})
	})
	var e engine
	e.Bind(m, kernelOrigin, prog)
	for i := range steps {
		refs, n := e.collectRuns(int64(max(sizes[i%len(sizes)], 1)), nil)
		var sum int64
		for _, r := range refs {
			if r.off != sum {
				t.Fatalf("collectRuns call %d: staging offset %d, want %d", i, r.off, sum)
			}
			sum += r.n
			gotRefs = append(gotRefs, runRef{addr: r.addr, n: r.n})
		}
		if n != steps[i].n || len(refs) != steps[i].runs || sum != n {
			t.Fatalf("collectRuns call %d: (n=%d, runs=%d), cursor (n=%d, runs=%d)", i, n, len(refs), steps[i].n, steps[i].runs)
		}
	}
	if !slices.Equal(gotRefs, wantRefs) {
		t.Fatal("collectRuns pieces differ from the cursor's")
	}
}

// memPanic runs f and returns the panic it raised as a string ("" if none).
func memPanic(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// checkOutOfArena requires a layout that leaves the arena to stop with mem's
// range panic on both directions — not an index panic, not silence — before
// it writes anything.
func checkOutOfArena(t *testing.T, dt *datatype.Type, count int) {
	t.Helper()
	prog := datatype.Compile(dt, count)
	fx := fixture()
	m := fx.m
	buf := make([]byte, dt.Size()*int64(count))
	for name, f := range map[string]func(){
		"pack":   func() { NewProgramPacker(m, kernelOrigin, prog).PackTo(buf) },
		"unpack": func() { NewProgramUnpacker(m, kernelOrigin, prog).UnpackFrom(buf) },
	} {
		msg := memPanic(f)
		if !strings.HasPrefix(msg, "mem kern: access") || !strings.HasSuffix(msg, "out of range") {
			t.Fatalf("%s of an out-of-arena layout: panic %q, want mem's range message", name, msg)
		}
	}
	fx.clean(t)
}

// kernelWidths are the run lengths under test: every specialised width, a
// neighbour of each that must take the copy() body, and a long one.
var kernelWidths = []int{1, 2, 3, 4, 8, 12, 16, 64}

// innerCounts are the stride-level run counts that put a batch below, at and
// past the strided kernels' groups of four, with every remainder.
var innerCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17}

// stridedShape nests dims stride levels over n w-byte blocks. sign flips the
// innermost stride; gap is the hole between consecutive blocks.
func stridedShape(w, n, dims int, sign, gap int64) *datatype.Type {
	dt := datatype.Must(datatype.TypeHvector(n, w, sign*(int64(w)+gap), datatype.Byte))
	for d := 1; d < dims; d++ {
		// Outer levels step past everything the inner levels cover.
		dt = datatype.Must(datatype.TypeHvector(2, 1, int64(n+1)*int64(d)*(int64(w)+gap)+5, dt))
	}
	return dt
}

// indexedShape is an out-of-order run table; varied makes the run lengths
// differ (w, 2w, 3w, ...).
func indexedShape(w int, varied bool) *datatype.Type {
	displs := []int64{40 * int64(w), -7, 9 * int64(w), 200 * int64(w), 20 * int64(w)}
	lens := make([]int, len(displs))
	for i := range lens {
		lens[i] = w
		if varied {
			lens[i] = w * (1 + i%3)
		}
	}
	return datatype.Must(datatype.TypeHindexed(lens, displs, datatype.Byte))
}

// pastCapShape is vector(128,1,2,idx3) over bytes: sent 200 times it has
// 76 601 maximal runs (instances abut at their seams), more than the compiler
// materializes, in 76 800 bytes that fit the arena.
func pastCapShape() *datatype.Type {
	idx := datatype.Must(datatype.TypeIndexed([]int{1, 1, 1}, []int{0, 3, 7}, datatype.Byte))
	return datatype.Must(datatype.TypeVector(128, 1, 2, idx))
}

// TestKernelsMatchCursor is the differential table: every width, positive,
// negative and huge strides, one to three stride levels, uniform and varied
// run tables, zero count — each at every destination split from 1 B to the
// whole message — and one shape past the run cap, whose program walks its
// layout, at a spread of splits (every split of 76 800 bytes would take
// hours).
func TestKernelsMatchCursor(t *testing.T) {
	type tc struct {
		name   string
		dt     *datatype.Type
		count  int
		splits []int // nil: every split
	}
	cases := []tc{
		{name: "zero-count", dt: stridedShape(4, 3, 1, 1, 4), count: 0},
		{name: "past-cap", dt: pastCapShape(), count: 200, splits: []int{1, 2, 3, 384, 4096, 38401, 76800}},
	}
	for _, w := range kernelWidths {
		for dims := 1; dims <= 3; dims++ {
			cases = append(cases,
				tc{name: fmt.Sprintf("w%d/dims%d/pos", w, dims), dt: stridedShape(w, 3, dims, 1, 3), count: 2},
				tc{name: fmt.Sprintf("w%d/dims%d/neg", w, dims), dt: stridedShape(w, 3, dims, -1, 1), count: 1})
		}
		// Inner counts on both sides of the kernels' four-run groups, two
		// stride levels deep so a batch both ends a level and is cut by a call.
		for _, n := range innerCounts {
			cases = append(cases,
				tc{name: fmt.Sprintf("w%d/inner%d/pos", w, n), dt: stridedShape(w, n, 2, 1, 2), count: 1},
				tc{name: fmt.Sprintf("w%d/inner%d/neg", w, n), dt: stridedShape(w, n, 2, -1, 1), count: 1})
		}
		cases = append(cases,
			tc{name: fmt.Sprintf("w%d/huge", w), dt: stridedShape(w, 3, 1, 1, 100<<10), count: 1},
			tc{name: fmt.Sprintf("w%d/huge-neg", w), dt: stridedShape(w, 3, 1, -1, 100<<10), count: 1},
			tc{name: fmt.Sprintf("w%d/indexed", w), dt: indexedShape(w, false), count: 2},
			tc{name: fmt.Sprintf("w%d/indexed-varied", w), dt: indexedShape(w, true), count: 2})
	}
	kinds := map[datatype.ProgKind]bool{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			kinds[datatype.Compile(c.dt, c.count).Kind()] = true
			size := int(c.dt.Size()) * c.count
			splits := c.splits
			for split := 1; splits == nil && split <= max(size, 1); split++ {
				splits = append(splits, split)
			}
			for _, split := range splits {
				checkKernels(t, c.dt, c.count, []int{split})
			}
			checkKernels(t, c.dt, c.count, []int{3, 1, size/2 + 1}) // uneven calls
			fixture().clean(t)
		})
	}
	for _, k := range []datatype.ProgKind{datatype.ProgStrided, datatype.ProgIndexed, datatype.ProgGeneric} {
		if !kinds[k] {
			t.Errorf("the table compiled no %v program", k)
		}
	}
}

// TestKernelsOutOfArena pins the failure mode for layouts that reach past
// either end of the arena, on the strided and the indexed kernels.
func TestKernelsOutOfArena(t *testing.T) {
	for name, dt := range map[string]*datatype.Type{
		"stride-above":  stridedShape(4, 3, 1, 1, 1<<40),
		"stride-below":  stridedShape(4, 3, 1, -1, 1<<40),
		"stride-past":   stridedShape(8, 3, 2, 1, 200<<10),
		"indexed-above": datatype.Must(datatype.TypeHindexed([]int{4, 4}, []int64{0, 1 << 40}, datatype.Byte)),
		"indexed-below": datatype.Must(datatype.TypeHindexed([]int{4, 4}, []int64{0, -(1 << 40)}, datatype.Byte)),
		"varied-below":  datatype.Must(datatype.TypeHindexed([]int{4, 8}, []int64{0, -(1 << 20)}, datatype.Byte)),
	} {
		t.Run(name, func(t *testing.T) {
			if _, _, fits := window(dt, 1); fits {
				t.Fatal("shape fits the arena")
			}
			checkOutOfArena(t, dt, 1)
		})
	}
}

// fuzzShape derives a layout from a seed: a strided nest or a run table over
// one of the kernel widths, with strides of either sign that are sometimes
// tight (runs abut and coalesce), sometimes overlapping, sometimes far
// outside the arena.
func fuzzShape(seed int64) (*datatype.Type, int) {
	rng := rand.New(rand.NewSource(seed))
	w := kernelWidths[rng.Intn(len(kernelWidths))]
	stride := func() int64 {
		s := int64(rng.Intn(4*w + 8))
		switch rng.Intn(8) {
		case 0:
			s += 1 << 30 // out of the arena
		case 1:
			s = int64(w) // abutting
		}
		if rng.Intn(3) == 0 {
			s = -s
		}
		return s
	}
	var dt *datatype.Type
	if rng.Intn(3) == 0 {
		n := 1 + rng.Intn(12)
		lens, displs := make([]int, n), make([]int64, n)
		varied := rng.Intn(2) == 0
		for i := range lens {
			lens[i] = w
			if varied {
				lens[i] = 1 + rng.Intn(2*w)
			}
			displs[i] = int64(rng.Intn(4096)) - 2048
		}
		if rng.Intn(16) == 0 {
			displs[rng.Intn(n)] = stride() << 20 // out of the arena
		}
		dt = datatype.Must(datatype.TypeHindexed(lens, displs, datatype.Byte))
	} else {
		dt = datatype.Must(datatype.TypeHvector(1+rng.Intn(9), w, stride(), datatype.Byte))
		for d := rng.Intn(3); d > 0; d-- {
			dt = datatype.Must(datatype.TypeHvector(1+rng.Intn(4), 1, stride()*int64(3+d), dt))
		}
	}
	if rng.Intn(16) == 0 {
		return dt, 0
	}
	return dt, 1 + rng.Intn(3)
}

// FuzzPackKernels drives the kernels with (shape seed, call sizes): layouts
// that fit the arena must match the interpreted cursor call for call,
// layouts that do not must fail with mem's range panic. The seed corpus
// under testdata/fuzz runs as a plain test.
func FuzzPackKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, calls []byte) {
		dt, count := fuzzShape(seed)
		if len(calls) == 0 {
			calls = []byte{255}
		}
		sizes := make([]int, len(calls))
		for i, c := range calls {
			sizes[i] = 1 + int(c)
		}
		if _, _, fits := window(dt, count); fits {
			checkKernels(t, dt, count, sizes)
			fixture().clean(t)
		} else {
			checkOutOfArena(t, dt, count)
		}
	})
}

// BenchmarkKernels times the strided kernels alone — 16 384 runs of each
// fixed width at a stride of four runs, the density of the perf floor's
// vec4Bx16k — in each direction, beside a copy() of the same bytes:
//
//	go test -run '^$' -bench Kernels ./internal/pack
func BenchmarkKernels(b *testing.B) {
	const k = 16384
	for _, w := range []int{1, 2, 4, 8, 16} {
		span, buf := make([]byte, 4*w*k), make([]byte, w*k)
		batch := datatype.RunBatch{K: k, RunLen: int64(w), Stride: int64(4 * w)}
		for _, c := range []struct {
			name string
			f    func()
		}{
			{"gather", func() { copyBatch(span, 0, buf, &batch, false) }},
			{"scatter", func() { copyBatch(span, 0, buf, &batch, true) }},
			{"copy", func() { copy(buf, span) }},
		} {
			b.Run(fmt.Sprintf("w%d/%s", w, c.name), func(b *testing.B) {
				b.SetBytes(int64(len(buf)))
				for i := 0; i < b.N; i++ {
					c.f()
				}
			})
		}
	}
}
