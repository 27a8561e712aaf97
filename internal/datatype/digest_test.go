package datatype

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// digestTypes is how many seeded random types TestProgramDigest hashes.
const digestTypes = 2000

// digestCounts are the message counts each type is compiled at: empty, the
// unit, the first repeats and a count past every small-number coincidence.
var digestCounts = []int{0, 1, 2, 3, 17}

// extentVariants returns dt and four resized copies that move where its
// instances sit: padded (a gap at every seam), exact (the extent is the true
// extent, so a first run at the true lower bound meets the previous
// instance's last run), zero (every instance on the first) and negative
// (instances walk backwards).
func extentVariants(dt *Type) []*Type {
	lb, te := dt.TrueLB(), dt.TrueExtent()
	return []*Type{
		dt,
		Must(TypeResized(dt, lb, te+12)),
		Must(TypeResized(dt, lb, te)),
		Must(TypeResized(dt, lb, 0)),
		Must(TypeResized(dt, lb, -te)),
	}
}

// programFacts appends what a program of dt at count answers to every
// consumer — bytes, runs, bounds, order and each run of a full cursor walk —
// leaving out Kind and String, which name the form and not the layout.
func programFacts(b []byte, dt *Type, count int) []byte {
	p := Compile(dt, count)
	lo, hi := p.Bounds()
	asc := int64(0)
	if p.Ascending() {
		asc = 1
	}
	for _, v := range []int64{int64(count), p.Bytes(), p.Runs(), lo, hi, asc} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	c := p.Cursor()
	for {
		off, n, ok := c.Next(1 << 62)
		if !ok {
			return b
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(off))
		b = binary.LittleEndian.AppendUint64(b, uint64(n))
	}
}

// TestProgramDigest pins the compiler's observable output — the facts
// programFacts lists — over seeded random types, their resized variants and
// several counts, against a golden recorded before the program's forms last
// changed: a new form must answer exactly what the old one did. Run with
// -update to re-record it.
func TestProgramDigest(t *testing.T) {
	var out bytes.Buffer
	var facts []byte
	for seed := 0; seed < digestTypes; seed++ {
		dt := randProgType(rand.New(rand.NewSource(int64(seed))))
		facts = facts[:0]
		for _, v := range extentVariants(dt) {
			for _, n := range digestCounts {
				facts = programFacts(facts, v, n)
			}
		}
		sum := sha256.Sum256(facts)
		fmt.Fprintf(&out, "%d %x\n", seed, sum[:8])
	}
	golden := filepath.Join("testdata", "program_digest.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(got), len(exp)) {
		if got[i] != exp[i] {
			t.Fatalf("program facts differ from the golden at line %d: got %q, want %q", i+1, got[i], exp[i])
		}
	}
	t.Fatalf("digest has %d lines, golden %d", len(got), len(exp))
}
