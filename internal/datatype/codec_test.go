package datatype

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestCodecRoundTripVector(t *testing.T) {
	v := Must(TypeVector(128, 2, 4096, Int32))
	enc := Encode(v)
	// A vector of 128 blocks must encode compactly, not as a block list.
	if len(enc) > 64 {
		t.Fatalf("vector encoding is %d bytes; want compact dataloop form", len(enc))
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Size() != v.Size() || dec.Extent() != v.Extent() ||
		dec.LB() != v.LB() || dec.TrueLB() != v.TrueLB() {
		t.Fatalf("decoded %+v != original %+v", dec, v)
	}
	a, _ := Flatten(v, 3, 0)
	b, _ := Flatten(dec, 3, 0)
	if len(a) != len(b) {
		t.Fatalf("flatten mismatch: %d vs %d runs", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCodecErrors(t *testing.T) {
	v := Must(TypeVector(4, 1, 2, Int32))
	enc := Encode(v)
	if _, err := Decode(enc[:len(enc)-1]); err == nil {
		t.Error("truncated encoding accepted")
	}
	if _, err := Decode(append(append([]byte{}, enc...), 0xFF)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := Decode([]byte{}); err == nil {
		t.Error("empty encoding accepted")
	}
	// Corrupt the loop tag.
	bad := append([]byte{}, enc...)
	bad[len(bad)-1] = 0xEE
	if _, err := Decode(bad); err == nil {
		// The tag may not be the last byte; only complain if decode also
		// reproduces the original, which would mean corruption went unseen
		// AND changed nothing — impossible for a tail byte.
		t.Error("corrupted encoding accepted")
	}
}

// Property: Encode/Decode round-trips layout and bounds for random trees.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dt := randomType(rng, 3)
		dec, err := Decode(Encode(dt))
		if err != nil {
			return false
		}
		if dec.Size() != dt.Size() || dec.Extent() != dt.Extent() ||
			dec.LB() != dt.LB() || dec.UB() != dt.UB() ||
			dec.TrueLB() != dt.TrueLB() || dec.TrueExtent() != dt.TrueExtent() {
			return false
		}
		count := rng.Intn(3) + 1
		a, _ := Flatten(dt, count, 0)
		b, _ := Flatten(dec, count, 0)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding random bytes never panics; it either fails or yields a
// consistent type.
func TestCodecFuzzNoPanic(t *testing.T) {
	f := func(data []byte) bool {
		dec, err := Decode(data)
		if err != nil {
			return true
		}
		// If it decoded, flattening a small count must not panic and must
		// match the declared size.
		blocks, trunc := Flatten(dec, 1, 1<<16)
		if trunc {
			return true
		}
		var total int64
		for _, b := range blocks {
			total += b.Len
		}
		return total == dec.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// hostileFrames are encodings no Encode produces, each aimed at one decoder
// bound.
func hostileFrames() map[string][]byte {
	header := func(size int64) []byte {
		b := binary.AppendVarint(nil, size)
		return append(b, 0, 0, 0, 0) // lb, ub, trueLB, trueUB
	}
	nested := header(0)
	for i := 0; i < 8; i++ { // (2^22)^8 bytes
		nested = binary.AppendVarint(binary.AppendUvarint(append(nested, wireVector), maxWireParts), 8)
	}
	parts := func(n uint64, list ...int64) []byte { // list: (off, leaf length)...
		b := binary.AppendUvarint(append(header(0), wireIndexed), n)
		for i := 0; i < len(list); i += 2 {
			b = binary.AppendVarint(append(binary.AppendVarint(b, list[i]), wireContig), list[i+1])
		}
		return b
	}
	return map[string][]byte{
		// Ten bytes claiming four million parts.
		"claims-max-parts": parts(maxWireParts, 0, 1),
		// Counts whose product wraps int64.
		"nested-count-overflow": append(nested, wireContig, 2),
		// Leaf lengths whose sum wraps int64.
		"leaf-sum-overflow": parts(3, 0, math.MaxInt64, 0, math.MaxInt64, 0, 2),
		// Parts a constructor would have dropped or merged.
		"empty-and-abutting-parts": parts(4, 0, 8, 8, 4, 40, 0, 12, 4),
		"all-parts-empty":          parts(2, 5, 0, 9, 0),
		"negative-leaf":            parts(1, 0, -4),
	}
}

// FuzzDecode feeds the layout decoder what a peer could send. Decode must not
// panic and must not allocate more than a small multiple of the frame it was
// given, whatever counts the frame claims; a frame it accepts must describe a
// self-consistent type: it re-encodes to a type Equal to it, and — when small
// enough to walk — compiles to exactly the runs the interpreted Cursor finds.
// The corpus under testdata/fuzz (hostileFrames and the shapes the compiler
// tests name) runs as a plain test.
func FuzzDecode(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(Encode(randomType(rand.New(rand.NewSource(seed)), 3)))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		// A part is three wire bytes and three table words at the least; a
		// loop node is under 200 bytes for four on the wire. The counter is
		// process-wide, so a reading may include a bystander's allocation
		// (the fuzzing worker's own); those come and go while Decode's are
		// there every time, so the least of a few readings is the measure.
		most, least := uint64(64*len(frame)+1024), uint64(math.MaxUint64)
		var dec *Type
		var err error
		for try := 0; try < 4 && least > most; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			dec, err = Decode(frame)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > most {
			t.Fatalf("Decode of %d bytes allocated %d (more than %d)", len(frame), least, most)
		}
		if err != nil {
			return
		}
		again, err := Decode(Encode(dec))
		if err != nil || !Equal(again, dec) {
			t.Fatalf("decoded type does not survive a round trip (err %v):\n%s", err, dec.Tree())
		}
		if dec.Blocks() > 4096 {
			return
		}
		for count := 1; count <= 2; count++ {
			want, _ := Flatten(dec, count, 0)
			got, total := drain(Compile(dec, count).Cursor())
			if total != dec.Size()*int64(count) || !slices.Equal(got, want) {
				t.Fatalf("count %d: program walks %d runs (%d bytes), cursor %d (type size %d):\n%s",
					count, len(got), total, len(want), dec.Size(), dec.Tree())
			}
		}
	})
}

// TestDecodeHostileFrames pins what becomes of each hostile frame.
func TestDecodeHostileFrames(t *testing.T) {
	frames := hostileFrames()
	for _, name := range []string{"claims-max-parts", "nested-count-overflow", "leaf-sum-overflow", "negative-leaf"} {
		if dec, err := Decode(frames[name]); err == nil {
			t.Errorf("%s: accepted as %v", name, dec)
		}
	}
	// Size 0 was declared, so only the all-empty frame is consistent.
	if dec, err := Decode(frames["all-parts-empty"]); err != nil || dec.Blocks() != 0 {
		t.Errorf("all-parts-empty: %v, %v", dec, err)
	}
	// With its size declared, the frame decodes to the normal form: the
	// empty part dropped, the three touching leaves one run.
	ok := frames["empty-and-abutting-parts"]
	ok[0] = byte(16 << 1) // size 16, zigzag
	dec, err := Decode(ok)
	if err != nil {
		t.Fatal(err)
	}
	if runs, _ := Flatten(dec, 1, 0); !slices.Equal(runs, []Block{{0, 16}}) || dec.Blocks() != 1 {
		t.Errorf("empty-and-abutting-parts: runs %v, blocks %d", runs, dec.Blocks())
	}
}
