package pack

import (
	"repro/internal/datatype"
	"repro/internal/mem"
)

// Reference is the interpreted pack and unpack of a (type, count) message,
// one datatype.Cursor run and one copy() at a time. Tests, tools and examples
// fill and gather buffers with it and the engines are checked against it, so
// it shares no code with them; the message path never uses it (the import
// test in internal/core).
type Reference struct {
	mem  *mem.Memory
	base mem.Addr
	cur  *datatype.Cursor
}

// NewPacker creates the reference over the message (base, count, t) in m.
func NewPacker(m *mem.Memory, base mem.Addr, t *datatype.Type, count int) *Reference {
	return &Reference{mem: m, base: base, cur: datatype.NewCursor(t, count)}
}

// NewUnpacker is NewPacker under the name its filling callers use: the walk
// is the same one.
func NewUnpacker(m *mem.Memory, base mem.Addr, t *datatype.Type, count int) *Reference {
	return NewPacker(m, base, t, count)
}

// PackTo gathers the next len(dst) bytes of the message (or fewer if it ends)
// into dst and returns the bytes moved and the contiguous runs touched.
func (r *Reference) PackTo(dst []byte) (n int64, runs int) { return r.walk(dst, false) }

// UnpackFrom is PackTo the other way: src scattered over the message.
func (r *Reference) UnpackFrom(src []byte) (n int64, runs int) { return r.walk(src, true) }

func (r *Reference) walk(buf []byte, unpack bool) (n int64, runs int) {
	for n < int64(len(buf)) {
		off, k, ok := r.cur.Next(int64(len(buf)) - n)
		if !ok {
			break
		}
		dst, src := buf[n:n+k], r.mem.Bytes(mem.Addr(int64(r.base)+off), k)
		if unpack {
			dst, src = src, dst
		}
		copy(dst, src)
		n += k
		runs++
	}
	return n, runs
}
