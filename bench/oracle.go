package main

import (
	"encoding/binary"
	"fmt"

	"repro/internal/datatype"
	"repro/internal/mem"
)

// The oracle is the benchmark's own idea of what a transfer must deliver. It
// never touches the compiled layout programs the transfers replay: a layout's
// runs come from the interpreted datatype.Cursor (via datatype.Flatten) once
// at set-up, or — for cold_layouts, whose types live for one op — straight
// from the generated block lists. A message is summarised by an
// order-sensitive polynomial checksum of its packed 32-bit words, so a
// missing, misplaced or reordered run changes the sum.

// sumPrime is the multiplier of the polynomial checksum (an odd 64-bit
// constant; arithmetic is mod 2^64).
const sumPrime = 0x9E3779B97F4A7C15

// rng is a splitmix64 generator: the benchmark's only source of randomness,
// seeded from -seed, fast enough to fill a 192 MiB slab inside set-up.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	// Mix the stream name in so each workload/rank/purpose draws its own
	// sequence from the one seed.
	h := seed ^ 0xD6E8FEB86659FD93
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 0x100000001B3
	}
	return &rng{s: h}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fill writes pseudo-random bytes over b (len(b) must be a multiple of 8).
func (r *rng) fill(b []byte) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.next())
	}
}

// run is one contiguous piece of a message, as a byte offset from the buffer
// pointer.
type run struct{ off, n int64 }

// layout is the oracle's flattened view of one (type, count) message.
type layout struct {
	runs  []run
	bytes int64 // payload bytes
	lo    int64 // lowest byte offset touched
	span  int64 // bytes from lo to the end of the highest run
}

// flatten walks (t, count) with the interpreted cursor and records its runs.
// Runs must be whole 32-bit words: every benchmark type is built from Int32.
func flatten(t *datatype.Type, count int) layout {
	blocks, _ := datatype.Flatten(t, count, 0)
	runs := make([]run, len(blocks))
	for i, b := range blocks {
		runs[i] = run{b.Off, b.Len}
	}
	return newLayout(runs)
}

func newLayout(runs []run) layout {
	l := layout{runs: runs}
	hi := int64(0)
	for i, r := range runs {
		if r.n%4 != 0 || r.off%4 != 0 {
			panic(fmt.Sprintf("bench: run %d (%d,+%d) is not word-aligned", i, r.off, r.n))
		}
		l.bytes += r.n
		if i == 0 || r.off < l.lo {
			l.lo = r.off
		}
		if i == 0 || r.off+r.n > hi {
			hi = r.off + r.n
		}
	}
	l.span = hi - l.lo
	return l
}

// checksum folds the message at base in m, run by run in datatype order:
// eight bytes a step, and a run's odd last word as a step of its own.
func (l *layout) checksum(m *mem.Memory, base mem.Addr) uint64 {
	var h uint64
	for _, r := range l.runs {
		b := m.Bytes(mem.Addr(int64(base)+r.off), r.n)
		for ; len(b) >= 8; b = b[8:] {
			h = h*sumPrime + binary.LittleEndian.Uint64(b)
		}
		if len(b) == 4 {
			h = h*sumPrime + uint64(binary.LittleEndian.Uint32(b))
		}
	}
	return h
}

// scrub zeroes the message's whole span so the next delivery cannot pass on
// stale bytes.
func (l *layout) scrub(m *mem.Memory, base mem.Addr) {
	clear(m.Bytes(mem.Addr(int64(base)+l.lo), l.span))
}

// firstWord and lastWord address the first and last payload words — where
// the op number is stamped.
func (l *layout) firstWord(m *mem.Memory, base mem.Addr) []byte {
	return m.Bytes(mem.Addr(int64(base)+l.runs[0].off), 4)
}

func (l *layout) lastWord(m *mem.Memory, base mem.Addr) []byte {
	r := l.runs[len(l.runs)-1]
	return m.Bytes(mem.Addr(int64(base)+r.off+r.n-4), 4)
}

// stamped is a send buffer whose first and last payload words carry the op
// number. The checksum is linear in each word (mod 2^64), so the expected sum
// of op k follows from three set-up walks without re-walking the message.
type stamped struct {
	sum0          uint64 // checksum with both stamp words zero
	wFirst, wLast uint64 // what a 1 in the first (last) word adds to it
	salt          uint32 // distinguishes messages of one op (e.g. the slot)
	first, last   []byte
}

// newStamped fills the message's span with seeded bytes and walks it once.
func newStamped(lay *layout, m *mem.Memory, base mem.Addr, r *rng, salt uint32) *stamped {
	span := m.Bytes(mem.Addr(int64(base)+lay.lo), lay.span)
	r.fill(span[:len(span)&^7])
	if lay.bytes < 8 {
		panic("bench: a stamped message needs two payload words")
	}
	s := &stamped{salt: salt, first: lay.firstWord(m, base), last: lay.lastWord(m, base)}
	sum := func(first, last uint32) uint64 {
		binary.LittleEndian.PutUint32(s.first, first)
		binary.LittleEndian.PutUint32(s.last, last)
		return lay.checksum(m, base)
	}
	s.sum0 = sum(0, 0)
	s.wFirst, s.wLast = sum(1, 0)-s.sum0, sum(0, 1)-s.sum0
	return s
}

func (s *stamped) marks(k int) (uint32, uint32) {
	a := uint32(k)*2654435761 + s.salt
	return a | 1, ^a
}

// stamp writes op k's marks and returns the checksum a correct delivery of
// the message must have.
func (s *stamped) stamp(k int) uint64 {
	a, b := s.marks(k)
	binary.LittleEndian.PutUint32(s.first, a)
	binary.LittleEndian.PutUint32(s.last, b)
	return s.sum0 + uint64(a)*s.wFirst + uint64(b)*s.wLast
}
