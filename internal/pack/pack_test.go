package pack

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datatype"
	"repro/internal/mem"
)

// fillPattern writes a deterministic pattern over a range.
func fillPattern(m *mem.Memory, a mem.Addr, n int64, seed byte) {
	bs := m.Bytes(a, n)
	for i := range bs {
		bs[i] = seed + byte(i*13)
	}
}

func TestPackVector(t *testing.T) {
	m := mem.NewMemory("n", 1<<20)
	v := datatype.Must(datatype.TypeVector(4, 2, 5, datatype.Int32))
	base := m.MustAlloc(v.TrueExtent())
	fillPattern(m, base, v.TrueExtent(), 1)

	p := NewPacker(m, base, v, 1)
	dst := make([]byte, v.Size())
	n, runs := p.PackTo(dst)
	if n != v.Size() || runs != 4 {
		t.Fatalf("n=%d runs=%d", n, runs)
	}
	if n, runs := p.PackTo(dst); n != 0 || runs != 0 {
		t.Fatalf("pack past the end moved n=%d runs=%d", n, runs)
	}
	// Verify against a manual gather.
	var want []byte
	for i := 0; i < 4; i++ {
		off := int64(i) * 20
		want = append(want, m.Bytes(base+mem.Addr(off), 8)...)
	}
	if !bytes.Equal(dst, want) {
		t.Fatal("packed bytes mismatch")
	}
	got := make([]byte, v.Size())
	if n, runs := NewProgramPacker(m, base, datatype.Compile(v, 1)).PackTo(got); n != v.Size() || runs != 4 || !bytes.Equal(got, want) {
		t.Fatalf("program packer: n=%d runs=%d, bytes match %v", n, runs, bytes.Equal(got, want))
	}
}

func TestPackInSegments(t *testing.T) {
	m := mem.NewMemory("n", 1<<20)
	v := datatype.Must(datatype.TypeVector(16, 3, 7, datatype.Int32))
	base := m.MustAlloc(v.TrueExtent())
	fillPattern(m, base, v.TrueExtent(), 9)

	whole := make([]byte, v.Size())
	NewPacker(m, base, v, 1).PackTo(whole)

	p := NewProgramPacker(m, base, datatype.Compile(v, 1))
	var pieced []byte
	seg := make([]byte, 13) // awkward segment size crossing run boundaries
	for !p.Done() {
		n, _ := p.PackTo(seg)
		pieced = append(pieced, seg[:n]...)
	}
	if !bytes.Equal(pieced, whole) {
		t.Fatal("segment pack differs from whole pack")
	}
}

func TestUnpackRoundTrip(t *testing.T) {
	m := mem.NewMemory("n", 1<<20)
	st := datatype.Must(datatype.TypeStruct(
		[]int{1, 2, 4}, []int64{0, 8, 24}, []*datatype.Type{datatype.Int32, datatype.Int32, datatype.Int32}))
	src := m.MustAlloc(st.TrueExtent())
	dst := m.MustAlloc(st.TrueExtent())
	fillPattern(m, src, st.TrueExtent(), 3)

	packed := make([]byte, st.Size())
	NewPacker(m, src, st, 1).PackTo(packed)

	u := NewProgramUnpacker(m, dst, datatype.Compile(st, 1))
	n, runs := u.UnpackFrom(packed)
	if n != st.Size() || runs != 3 {
		t.Fatalf("n=%d runs=%d", n, runs)
	}
	// Compare only the datatype-covered bytes.
	srcPacked := make([]byte, st.Size())
	NewPacker(m, src, st, 1).PackTo(srcPacked)
	dstPacked := make([]byte, st.Size())
	NewPacker(m, dst, st, 1).PackTo(dstPacked)
	if !bytes.Equal(srcPacked, dstPacked) {
		t.Fatal("unpack did not reproduce source data")
	}
}

func TestUnpackSegmented(t *testing.T) {
	m := mem.NewMemory("n", 1<<20)
	v := datatype.Must(datatype.TypeVector(8, 1, 3, datatype.Float64))
	src := m.MustAlloc(v.TrueExtent())
	dst := m.MustAlloc(v.TrueExtent())
	fillPattern(m, src, v.TrueExtent(), 77)

	packed := make([]byte, v.Size())
	NewPacker(m, src, v, 1).PackTo(packed)

	u := NewProgramUnpacker(m, dst, datatype.Compile(v, 1))
	for off := 0; off < len(packed); off += 10 {
		end := off + 10
		if end > len(packed) {
			end = len(packed)
		}
		u.UnpackFrom(packed[off:end])
	}
	if !u.Done() {
		t.Fatal("unpacker not done")
	}
	a := make([]byte, v.Size())
	NewPacker(m, dst, v, 1).PackTo(a)
	if !bytes.Equal(a, packed) {
		t.Fatal("segmented unpack mismatch")
	}
}

// TestProgramBlocksByHand checks the block list against addresses worked out
// by hand, not against another walk.
func TestProgramBlocksByHand(t *testing.T) {
	m := mem.NewMemory("n", 1<<20)
	v := datatype.Must(datatype.TypeVector(3, 1, 4, datatype.Int32))
	base := m.MustAlloc(256)
	blocks, trunc := ProgramBlocks(base, datatype.Compile(v, 1), 0)
	if trunc || len(blocks) != 3 {
		t.Fatalf("blocks=%v trunc=%v", blocks, trunc)
	}
	for i, b := range blocks {
		want := base + mem.Addr(i*16)
		if b.Addr != want || b.Len != 4 {
			t.Fatalf("block %d = %+v, want addr %#x len 4", i, b, want)
		}
	}
}

// Property: the engine's pack is the reference's, and pack ∘ unpack is the
// identity on the datatype-covered bytes, for random types, counts and segment
// sizes; bytes outside the datatype are untouched.
func TestPackUnpackIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dt := randomType(rng, 3)
		count := rng.Intn(3) + 1
		span := dt.TrueExtent() + int64(count-1)*dt.Extent()
		if span <= 0 || span > 1<<18 {
			return true // degenerate or oversized; skip
		}
		m := mem.NewMemory("p", span*4+1<<16)
		src := m.MustAlloc(span)
		dst := m.MustAlloc(span)
		fillPattern(m, src, span, byte(seed))
		// Sentinel pattern in dst to detect stray writes.
		sent := m.Bytes(dst, span)
		for i := range sent {
			sent[i] = 0xEE
		}

		adjSrc := mem.Addr(int64(src) - dt.TrueLB())
		adjDst := mem.Addr(int64(dst) - dt.TrueLB())

		prog := datatype.Compile(dt, count)
		packed := make([]byte, dt.Size()*int64(count))
		p := NewProgramPacker(m, adjSrc, prog)
		var n int64
		for !p.Done() {
			k := rng.Intn(63) + 1
			end := n + int64(k)
			if end > int64(len(packed)) {
				end = int64(len(packed))
			}
			w, _ := p.PackTo(packed[n:end])
			n += w
		}
		want := make([]byte, len(packed))
		NewPacker(m, adjSrc, dt, count).PackTo(want)
		if n != int64(len(packed)) || !bytes.Equal(packed, want) {
			return false
		}
		u := NewProgramUnpacker(m, adjDst, prog)
		var c int64
		for !u.Done() {
			k := int64(rng.Intn(63) + 1)
			if c+k > int64(len(packed)) {
				k = int64(len(packed)) - c
			}
			r, _ := u.UnpackFrom(packed[c : c+k])
			c += r
		}
		// Covered bytes equal; uncovered bytes still sentinel.
		repacked := make([]byte, len(packed))
		NewPacker(m, adjDst, dt, count).PackTo(repacked)
		if !bytes.Equal(repacked, packed) {
			return false
		}
		covered := make(map[int64]bool)
		blocks, _ := datatype.Flatten(dt, count, 0)
		for _, b := range blocks {
			for i := int64(0); i < b.Len; i++ {
				covered[b.Off+i-dt.TrueLB()] = true
			}
		}
		dstBytes := m.Bytes(dst, span)
		for i := int64(0); i < span; i++ {
			if !covered[i] && dstBytes[i] != 0xEE {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// randomType mirrors the generator in the datatype package tests (kept local
// to avoid exporting test helpers).
func randomType(rng *rand.Rand, depth int) *datatype.Type {
	bases := []*datatype.Type{datatype.Byte, datatype.Int32, datatype.Float64}
	if depth <= 0 || rng.Intn(3) == 0 {
		return bases[rng.Intn(len(bases))]
	}
	child := randomType(rng, depth-1)
	switch rng.Intn(3) {
	case 0:
		return datatype.Must(datatype.TypeContiguous(rng.Intn(4)+1, child))
	case 1:
		bl := rng.Intn(3) + 1
		return datatype.Must(datatype.TypeVector(rng.Intn(4)+1, bl, bl+rng.Intn(4), child))
	default:
		n := rng.Intn(3) + 1
		lens := make([]int, n)
		displs := make([]int, n)
		pos := 0
		for i := 0; i < n; i++ {
			lens[i] = rng.Intn(3) + 1
			displs[i] = pos
			pos += lens[i] + rng.Intn(4)
		}
		return datatype.Must(datatype.TypeIndexed(lens, displs, child))
	}
}
