package datatype

import (
	"math/rand"
	"testing"
)

// coldBlocks draws MPI_Type_indexed arguments the way the benchmark's
// cold_layouts generator does: n blocks whose lengths come in pairs summing to
// 2·mean, separated by gaps of at least one element so no two runs coalesce.
func coldBlocks(rng *rand.Rand, n, mean int) (lens, displs []int) {
	pos := 0
	for i := 0; i < n; i += 2 {
		l := mean/2 + rng.Intn(mean)
		for _, bl := range [2]int{l, 2*mean - l} {
			lens = append(lens, bl)
			displs = append(displs, pos)
			pos += bl + 1 + rng.Intn(mean/2)
		}
	}
	return lens, displs
}

// TestColdLayoutObjects pins what a never-seen indexed layout costs in heap
// objects at every step from constructor to wire and back: small constants,
// whatever the block count. (A per-block object anywhere — a dataloop node, a
// block list, a decoded part — shows as thousands at 4 096 blocks.)
func TestColdLayoutObjects(t *testing.T) {
	for _, n := range []int{32, 256, 4096} {
		lens, displs := coldBlocks(rand.New(rand.NewSource(int64(n))), n, 65536/n)
		dt := Must(TypeIndexed(lens, displs, Int32))
		if dt.Blocks() != int64(n) {
			t.Fatalf("%d blocks: type has %d", n, dt.Blocks())
		}
		enc := Encode(dt)
		buf := make([]byte, 0, len(enc))
		for _, c := range []struct {
			step string
			most float64
			f    func()
		}{
			// The type, its loop node and the two tables.
			{"TypeIndexed", 4, func() { Must(TypeIndexed(lens, displs, Int32)) }},
			// Sent once, the program shares the type's tables.
			{"Compile count 1", 1, func() { Compile(dt, 1) }},
			// Sent three times it owns its tables (and the message loop).
			{"Compile count 3", 4, func() { Compile(dt, 3) }},
			{"AppendEncode", 0, func() { buf = AppendEncode(buf[:0], dt) }},
			// Encode grows a private buffer: logarithmic, from 64 bytes.
			{"Encode", 12, func() { Encode(dt) }},
			{"Decode", 5, func() {
				if _, err := Decode(enc); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			if got := testing.AllocsPerRun(20, c.f); got > c.most {
				t.Errorf("%d blocks: %s allocates %.0f objects, want at most %.0f", n, c.step, got, c.most)
			}
		}
		if p := Compile(dt, 1); p.Kind() != ProgIndexed || &p.offs[0] != &dt.loop.offs[0] {
			t.Errorf("%d blocks: count-1 program (%s) does not share the type's table", n, p)
		}
	}
}

// naiveRuns is an oracle for indexed types of a contiguous element that owes
// nothing to the dataloop or the Cursor: the constructor's own arguments,
// instance after instance, with empty blocks dropped and a block that starts
// where the previous run ends merged into it.
func naiveRuns(lens []int, displs []int64, elem, extent int64, count int) []Block {
	var out []Block
	for c := 0; c < count; c++ {
		for i, l := range lens {
			if l == 0 {
				continue
			}
			off, n := int64(c)*extent+displs[i], int64(l)*elem
			if k := len(out); k > 0 && out[k-1].End() == off {
				out[k-1].Len += n
				continue
			}
			out = append(out, Block{off, n})
		}
	}
	return out
}

func checkRuns(t *testing.T, what string, dt *Type, count int, want []Block) {
	t.Helper()
	got, trunc := Flatten(dt, count, 0)
	if trunc || len(got) != len(want) {
		t.Fatalf("%s: Flatten gives %d runs (truncated %v), want %d", what, len(got), trunc, len(want))
	}
	p := Compile(dt, count)
	if p.Kind() != ProgGeneric && p.Runs() != int64(len(want)) {
		t.Fatalf("%s: program %s has %d runs, want %d", what, p, p.Runs(), len(want))
	}
	pc := p.Cursor()
	for i, w := range want {
		off, n, ok := pc.Next(1 << 62)
		if got[i] != w || !ok || off != w.Off || n != w.Len {
			t.Fatalf("%s: run %d: Flatten %v, program (%d,%d,%v), want %v", what, i, got[i], off, n, ok, w)
		}
	}
	if _, _, ok := pc.Next(1); ok {
		t.Fatalf("%s: program runs on past run %d", what, len(want))
	}
}

// TestIndexedMatchesArguments holds the one-pass constructors, the Cursor and
// the compiler's direct emitter to the argument lists themselves, over the
// inputs the pass has to get right: empty blocks, abutting neighbours (within
// an instance and across instances), negative and descending displacements.
func TestIndexedMatchesArguments(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		lens, displs, hdispls := make([]int, n), make([]int, n), make([]int64, n)
		pos := rng.Intn(9) - 4
		for i := range lens {
			lens[i] = rng.Intn(4) // 0: an empty block
			switch rng.Intn(4) {
			case 0: // abuts the previous block
			case 1: // jumps back: descending, possibly negative
				pos -= 2*lens[i] + 1 + rng.Intn(8)
			default:
				pos += rng.Intn(5)
			}
			displs[i], hdispls[i] = pos, int64(pos)*4
			pos += lens[i]
		}
		count := 1 + rng.Intn(3)
		dt := Must(TypeIndexed(lens, displs, Int32))
		want := naiveRuns(lens, hdispls, 4, dt.Extent(), count)
		checkRuns(t, "indexed", dt, count, want)
		if h := Must(TypeHindexed(lens, hdispls, Int32)); !Equal(h, dt) {
			t.Fatalf("trial %d: hindexed of the same bytes differs from indexed", trial)
		}
		types := make([]*Type, n)
		for i := range types {
			types[i] = Int32
		}
		if s := Must(TypeStruct(lens, hdispls, types)); !Equal(s, dt) {
			t.Fatalf("trial %d: struct of the same bytes differs from indexed", trial)
		}
		bl := 1 + rng.Intn(3)
		for i := range lens {
			lens[i] = bl
		}
		ib := Must(TypeIndexedBlock(bl, displs, Int32))
		checkRuns(t, "indexed-block", ib, count, naiveRuns(lens, hdispls, 4, ib.Extent(), count))
	}
}

// TestVectorBoundsClosedForm checks the O(1) vector constructor against the
// per-block bounds an hindexed type of the same blocks accumulates, for either
// sign of stride and element types whose bounds differ from their data.
func TestVectorBoundsClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	elems := []*Type{
		Int32,
		Must(TypeResized(Int32, -4, 16)),
		Must(TypeResized(Float64, 8, 4)),
		Must(TypeIndexed([]int{1, 2}, []int{-3, 2}, Int32)),
		Must(TypeVector(3, 1, -2, Float64)),
	}
	for trial := 0; trial < 500; trial++ {
		old := elems[rng.Intn(len(elems))]
		count, bl := rng.Intn(6), rng.Intn(4)
		stride := int64(rng.Intn(129) - 64)
		v := Must(TypeHvector(count, bl, stride, old))
		lens, displs := make([]int, count), make([]int64, count)
		for i := range lens {
			lens[i], displs[i] = bl, int64(i)*stride
		}
		h := Must(TypeHindexed(lens, displs, old))
		if v.Size() != h.Size() || v.LB() != h.LB() || v.UB() != h.UB() ||
			v.TrueLB() != h.TrueLB() || v.TrueExtent() != h.TrueExtent() {
			t.Fatalf("hvector(%d,%d,%d,%v): size %d bounds [%d,%d) true [%d,+%d); per block: size %d bounds [%d,%d) true [%d,+%d)",
				count, bl, stride, old, v.Size(), v.LB(), v.UB(), v.TrueLB(), v.TrueExtent(),
				h.Size(), h.LB(), h.UB(), h.TrueLB(), h.TrueExtent())
		}
		a, _ := Flatten(v, 2, 0)
		b, _ := Flatten(h, 2, 0)
		if len(a) != len(b) {
			t.Fatalf("hvector(%d,%d,%d,%v): %d runs, per block %d", count, bl, stride, old, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("hvector(%d,%d,%d,%v): run %d %v, per block %v", count, bl, stride, old, i, a[i], b[i])
			}
		}
	}
	// A million blocks cost what four do.
	if got := testing.AllocsPerRun(10, func() { Must(TypeVector(1<<20, 1, 2, Int32)) }); got > 3 {
		t.Errorf("TypeVector(1<<20, ...) allocates %.0f objects", got)
	}
}
