package pack

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datatype"
	"repro/internal/mem"
)

// progTestShapes covers every program kind the compiler emits: contiguous,
// 1D and 2D strided, fixed-block and varied-length indexed, and the generic
// fallback for shapes that exceed the materialization cap.
func progTestShapes(t *testing.T) map[string]struct {
	dt    *datatype.Type
	count int
} {
	t.Helper()
	must := datatype.Must
	v1 := must(datatype.TypeVector(64, 2, 8, datatype.Int32))
	idx := must(datatype.TypeIndexed([]int{1, 1, 1}, []int{0, 3, 7}, datatype.Int32))
	return map[string]struct {
		dt    *datatype.Type
		count int
	}{
		"contig":     {must(datatype.TypeContiguous(4096, datatype.Int32)), 1},
		"vector-1d":  {must(datatype.TypeVector(128, 2, 32, datatype.Int32)), 1},
		"vector-2d":  {must(datatype.TypeHvector(8, 1, 4096, v1)), 1},
		"indexed":    {must(datatype.TypeIndexed([]int{3, 1, 7}, []int{0, 5, 10}, datatype.Int32)), 8},
		"idx-block":  {must(datatype.TypeIndexedBlock(4, []int{0, 16, 40}, datatype.Int32)), 6},
		"generic":    {must(datatype.TypeVector(128, 1, 2, idx)), 200},
		"zero-count": {datatype.Int32, 0},
	}
}

func messageSpan(dt *datatype.Type, count int) int64 {
	if count == 0 {
		return 0
	}
	return dt.TrueExtent() + int64(count-1)*dt.Extent()
}

// TestProgramPackMatchesInterpreted checks byte equality of the compiled
// replay against the reference packer's interpreted cursor walk, for
// whole-message packs and for awkward segment sizes that split runs
// mid-block.
func TestProgramPackMatchesInterpreted(t *testing.T) {
	for name, tc := range progTestShapes(t) {
		span := messageSpan(tc.dt, tc.count)
		m := mem.NewMemory("n", 2*span+(64<<10))
		base := m.MustAlloc(span + 1)
		fillPattern(m, base, span, 5)
		size := tc.dt.Size() * int64(tc.count)

		want := make([]byte, size)
		NewPacker(m, base, tc.dt, tc.count).PackTo(want)

		prog := datatype.Compile(tc.dt, tc.count)
		got := make([]byte, size)
		n, _ := NewProgramPacker(m, base, prog).PackTo(got)
		if n != size {
			t.Fatalf("%s: program packed %d of %d bytes", name, n, size)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: compiled whole-message pack differs from interpreted", name)
		}

		for _, seg := range []int{1, 7, 13, 100, 4096} {
			p := NewProgramPacker(m, base, prog)
			var pieced []byte
			buf := make([]byte, seg)
			for !p.Done() {
				k, _ := p.PackTo(buf)
				pieced = append(pieced, buf[:k]...)
			}
			if !bytes.Equal(pieced, want) {
				t.Fatalf("%s: compiled pack differs at segment size %d", name, seg)
			}
		}

		// Round trip: unpack the packed bytes through the compiled program
		// into a scratch region and re-pack; the stream must be unchanged.
		scratch := m.MustAlloc(span + 1)
		u := NewProgramUnpacker(m, scratch, prog)
		if k, _ := u.UnpackFrom(want); k != size || !u.Done() {
			t.Fatalf("%s: program unpack consumed %d of %d bytes", name, k, size)
		}
		back := make([]byte, size)
		NewProgramPacker(m, scratch, prog).PackTo(back)
		if !bytes.Equal(back, want) {
			t.Fatalf("%s: compiled unpack/pack round trip differs", name)
		}
	}
}

// TestParallelProgramMatchesInterpreted checks the parallel engine: for
// every worker count and segment size, the parallel pack and unpack produce
// bytes identical to the reference packer's, with identical run totals (the
// invariant the virtual-time cost model rests on).
func TestParallelProgramMatchesInterpreted(t *testing.T) {
	for name, tc := range progTestShapes(t) {
		if tc.count == 0 {
			continue // nothing to shard
		}
		span := messageSpan(tc.dt, tc.count)
		m := mem.NewMemory("n", 2*span+(1<<20))
		base := m.MustAlloc(span + 1)
		fillPattern(m, base, span, 11)
		size := tc.dt.Size() * int64(tc.count)

		want := make([]byte, size)
		_, wantRuns := NewPacker(m, base, tc.dt, tc.count).PackTo(want)

		dst := m.MustAlloc(span + 1)
		prog := datatype.Compile(tc.dt, tc.count)
		for _, workers := range []int{1, 2, 3, 8} {
			opt := Par{Workers: workers, Exec: GoExec{}, MinShard: 64}
			for _, seg := range []int64{129, 1 << 12, size} {
				t.Run(fmt.Sprintf("%s/w%d/seg%d", name, workers, seg), func(t *testing.T) {
					p := NewParallelProgramPacker(m, base, prog, opt)
					var pieced []byte
					runs := 0
					buf := make([]byte, seg)
					for !p.Done() {
						st := p.Pack(buf)
						pieced = append(pieced, buf[:st.Bytes]...)
						runs += st.Runs
					}
					if !bytes.Equal(pieced, want) {
						t.Fatal("parallel pack differs from the reference")
					}
					if seg >= size && runs != wantRuns {
						t.Fatalf("run total %d, interpreted %d", runs, wantRuns)
					}

					clear(m.Bytes(dst, span))
					u := NewParallelProgramUnpacker(m, dst, prog, opt)
					for off := int64(0); off < size; {
						end := off + seg
						if end > size {
							end = size
						}
						st := u.Unpack(want[off:end])
						off += st.Bytes
					}
					back := make([]byte, size)
					NewProgramPacker(m, dst, prog).PackTo(back)
					if !bytes.Equal(back, want) {
						t.Fatal("parallel compiled unpack differs")
					}
				})
			}
		}
	}
}

// TestProgramPackerZeroAlloc is the steady-state allocation contract: once a
// canonical program is compiled and its packer warm, Reset + whole-message
// PackTo/UnpackFrom must not allocate at all.
func TestProgramPackerZeroAlloc(t *testing.T) {
	must := datatype.Must
	for name, dt := range map[string]*datatype.Type{
		"contig":  must(datatype.TypeContiguous(4096, datatype.Int32)),
		"strided": must(datatype.TypeVector(128, 2, 32, datatype.Int32)),
		"indexed": must(datatype.TypeIndexedBlock(4, []int{0, 16, 40}, datatype.Int32)),
	} {
		span := messageSpan(dt, 1)
		m := mem.NewMemory("n", span+(16<<10))
		base := m.MustAlloc(span + 1)
		fillPattern(m, base, span, 3)
		prog := datatype.Compile(dt, 1)
		if prog.Kind() == datatype.ProgGeneric {
			t.Fatalf("%s: expected a canonical program", name)
		}
		buf := make([]byte, dt.Size())
		p := NewProgramPacker(m, base, prog)
		u := NewProgramUnpacker(m, base, prog)
		p.PackTo(buf) // warm
		u.UnpackFrom(buf)

		if allocs := testing.AllocsPerRun(50, func() {
			p.Reset()
			p.PackTo(buf)
		}); allocs != 0 {
			t.Errorf("%s: pack allocates %.1f per run, want 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			u.Reset()
			u.UnpackFrom(buf)
		}); allocs != 0 {
			t.Errorf("%s: unpack allocates %.1f per run, want 0", name, allocs)
		}
	}
}

// flattenBlocks is the block list of a message as datatype.Flatten walks it,
// what ProgramBlocks is held to.
func flattenBlocks(base mem.Addr, dt *datatype.Type, count, limit int) ([]mem.Block, bool) {
	runs, trunc := datatype.Flatten(dt, count, limit)
	out := make([]mem.Block, len(runs))
	for i, r := range runs {
		out[i] = mem.Block{Addr: mem.Addr(int64(base) + r.Off), Len: r.Len}
	}
	return out, trunc
}

// TestProgramBlocks checks the block-enumeration path used for registration
// grouping: ProgramBlocks must agree with the flattened cursor walk on every
// program kind, the walked one included, and honor the limit contract.
func TestProgramBlocks(t *testing.T) {
	for name, tc := range progTestShapes(t) {
		prog := datatype.Compile(tc.dt, tc.count)
		base := mem.Addr(1 << 20)
		want, wantTrunc := flattenBlocks(base, tc.dt, tc.count, 0)
		got, trunc := ProgramBlocks(base, prog, 0)
		if trunc != wantTrunc || len(got) != len(want) {
			t.Fatalf("%s: %d blocks trunc=%v, want %d trunc=%v", name, len(got), trunc, len(want), wantTrunc)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: block %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
		if len(want) > 1 {
			lim, trunc := ProgramBlocks(base, prog, len(want)-1)
			if !trunc || len(lim) != len(want)-1 {
				t.Fatalf("%s: limited call returned %d blocks trunc=%v", name, len(lim), trunc)
			}
			atLim, trunc := ProgramBlocks(base, prog, len(want))
			if trunc || len(atLim) != len(want) {
				t.Fatalf("%s: at-limit call returned %d blocks trunc=%v", name, len(atLim), trunc)
			}
		}
	}
}

// TestShardRunsBoundary is the straddling-run satellite: a minimum shard
// smaller than a single run must never cause a mid-run split, a zero
// minimum must not panic, and random run lists must always concatenate back
// in order.
func TestShardRunsBoundary(t *testing.T) {
	// One run far larger than minShard sitting across the even split point:
	// the run must land whole in one shard.
	refs := []runRef{
		{addr: 0x1000, off: 0, n: 100},
		{addr: 0x2000, off: 100, n: 10000}, // straddles any boundary
		{addr: 0x3000, off: 10100, n: 100},
	}
	shards := shardRuns(refs, 10200, 4, 64, nil)
	var flat []runRef
	for _, sh := range shards {
		flat = append(flat, sh...)
	}
	if len(flat) != len(refs) {
		t.Fatalf("straddling run split: %d refs after sharding, want %d", len(flat), len(refs))
	}
	for i := range refs {
		if flat[i] != refs[i] {
			t.Fatalf("run %d altered by sharding: %+v vs %+v", i, flat[i], refs[i])
		}
	}

	// minShard 0 (and negative) must clamp, not panic or loop.
	for _, ms := range []int64{0, -5} {
		sh := shardRuns(refs, 10200, 4, ms, nil)
		if len(sh) == 0 || len(sh) > 4 {
			t.Fatalf("minShard=%d: %d shards", ms, len(sh))
		}
	}

	// Randomized property: concatenation invariant, shard-count bound, no
	// empty shards, for arbitrary run lists and parameters.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		nruns := 1 + rng.Intn(40)
		var refs []runRef
		var total int64
		for i := 0; i < nruns; i++ {
			n := int64(1 + rng.Intn(1<<14))
			refs = append(refs, runRef{addr: mem.Addr(rng.Int63n(1 << 30)), off: total, n: n})
			total += n
		}
		workers := 1 + rng.Intn(12)
		minShard := int64(rng.Intn(1 << 15)) // includes 0
		shards := shardRuns(refs, total, workers, minShard, nil)
		if len(shards) > workers {
			t.Fatalf("trial %d: %d shards for %d workers", trial, len(shards), workers)
		}
		var flat []runRef
		for _, sh := range shards {
			if len(sh) == 0 {
				t.Fatalf("trial %d: empty shard", trial)
			}
			flat = append(flat, sh...)
		}
		if len(flat) != len(refs) {
			t.Fatalf("trial %d: %d runs after sharding, want %d", trial, len(flat), len(refs))
		}
		for i := range refs {
			if flat[i] != refs[i] {
				t.Fatalf("trial %d: run %d split or reordered", trial, i)
			}
		}
	}
}
