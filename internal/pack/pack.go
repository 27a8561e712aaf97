// Package pack implements segment pack and unpack engines over datatype
// layouts: resumable copies between a noncontiguous user buffer in simulated
// memory and contiguous staging storage. The engines report how many bytes
// and how many contiguous runs each step touched so callers can charge the
// modeled copy cost (bandwidth plus per-run startup).
//
// A pack or unpack step moves its bytes through three tiers:
//
//   - the batch kernels (kernels.go): whole runs of a compiled layout
//     Program, handed out a stride level or run-table window at a time by
//     ProgCursor.NextBatch, range-checked once against the program's bounds
//     and copied by a loop specialised on the run length (fixed-width moves
//     for 1/2/4/8/16 B runs, copy() otherwise);
//   - the per-run tail: a run that the head or tail of the caller's buffer
//     splits, and every run of a ProgGeneric program, takes one
//     Next + mem.Bytes + copy() step;
//   - the interpreted oracle: engines built without a program (NewPacker,
//     NewUnpacker) walk the dataloop tree through datatype.Cursor, one
//     per-run step at a time. Tests and Config.InterpretedPack use it as the
//     reference the other two are held to.
//
// All three emit the Cursor's run sequence, so staging bytes and the
// (bytes, runs) statistics do not depend on the tier that moved them.
package pack

import (
	"math"

	"repro/internal/datatype"
	"repro/internal/mem"
)

// engine is what Packer and Unpacker share: one message in simulated memory
// and the walk over its layout. Only the copy direction differs.
type engine struct {
	mem   *mem.Memory
	base  mem.Addr
	t     *datatype.Type // the interpreted walk's message, for Reset
	count int

	prog *datatype.Program   // non-nil: replay the compiled program
	pc   datatype.ProgCursor // compiled walk state (valid when prog != nil)
	cur  *datatype.Cursor    // interpreted walk state (when prog == nil)
}

func newProgramEngine(m *mem.Memory, base mem.Addr, prog *datatype.Program) engine {
	var e engine
	e.Bind(m, base, prog)
	return e
}

// Bind re-arms the engine for another message: the one at base in m that
// prog lays out, from its start. It is what lets a pooled record keep its
// packer or unpacker by value and reuse it for every message it carries;
// binding to a canonical program allocates nothing.
func (e *engine) Bind(m *mem.Memory, base mem.Addr, prog *datatype.Program) {
	e.mem, e.base, e.prog = m, base, prog
	e.t, e.count, e.cur = nil, 0, nil
	e.pc.Reset(prog)
}

// BindInterpreted is Bind for the interpreted cursor walk over (base, count,
// t), the oracle tier; it allocates the cursor.
func (e *engine) BindInterpreted(m *mem.Memory, base mem.Addr, t *datatype.Type, count int) {
	*e = engine{mem: m, base: base, t: t, count: count, cur: datatype.NewCursor(t, count)}
}

// Reset rewinds the engine to the start of its message so it can be reused.
// Resetting a program engine over a canonical program allocates nothing.
func (e *engine) Reset() {
	if e.prog != nil {
		e.pc.Reset(e.prog)
		return
	}
	e.cur = datatype.NewCursor(e.t, e.count)
}

// next takes one per-run step of the walk. (The engine calls its walks
// concretely, never through datatype.RunWalker: through the interface it
// would escape, and a packer a caller keeps on its stack would cost an
// allocation.)
func (e *engine) next(max int64) (off, n int64, ok bool) {
	if e.prog != nil {
		return e.pc.Next(max)
	}
	return e.cur.Next(max)
}

// Remaining reports the message bytes not yet packed or unpacked.
func (e *engine) Remaining() int64 {
	if e.prog != nil {
		return e.pc.Remaining()
	}
	return e.cur.Remaining()
}

// Done reports whether the whole message has been packed or unpacked.
func (e *engine) Done() bool { return e.Remaining() == 0 }

// transfer moves the next len(buf) bytes of the message (or fewer if the
// message ends) between the user buffer and buf — out of the user buffer
// when packing, into it when scatter is set — and returns the bytes moved
// and the contiguous runs touched. Whole runs of a compiled program move a
// batch at a time through the kernels; a run split by the head or tail of
// buf, and every run of an interpreted or generic walk, takes the per-run
// step. Both yield the run sequence of the interpreted Cursor, so (n, runs)
// do not depend on the tier.
func (e *engine) transfer(buf []byte, scatter bool) (n int64, runs int) {
	var span []byte // user memory over the program's bounds, mapped at the first batch
	var lo int64
	for n < int64(len(buf)) {
		rest := buf[n:]
		if e.prog != nil {
			if b := e.pc.NextBatch(int64(len(rest))); b.K > 0 {
				if span == nil {
					var hi int64
					lo, hi = e.prog.Bounds()
					span = e.mem.Bytes(addrAt(e.base, lo), hi-lo)
				}
				n += copyBatch(span, lo, rest, &b, scatter)
				runs += b.K
				continue
			}
		}
		off, k, ok := e.next(int64(len(rest)))
		if !ok {
			break
		}
		dst, src := dir(scatter, rest[:k], e.mem.Bytes(addrAt(e.base, off), k))
		copy(dst, src)
		n += k
		runs++
	}
	return n, runs
}

// Packer copies a (type, count) message out of a user buffer into contiguous
// destinations, any number of bytes at a time.
type Packer struct{ engine }

// NewPacker creates a packer over the message (base, count, t) in m using
// the interpreted cursor walk.
func NewPacker(m *mem.Memory, base mem.Addr, t *datatype.Type, count int) *Packer {
	p := &Packer{}
	p.BindInterpreted(m, base, t, count)
	return p
}

// NewProgramPacker creates a packer over the message (base, prog) in m that
// replays the compiled layout program instead of walking the dataloop tree.
// The program is shared and immutable; the packer keeps private cursor state.
func NewProgramPacker(m *mem.Memory, base mem.Addr, prog *datatype.Program) *Packer {
	return &Packer{newProgramEngine(m, base, prog)}
}

// PackTo fills dst with the next len(dst) bytes of the message (or fewer if
// the message ends), returning the bytes written and the number of
// contiguous runs touched.
func (p *Packer) PackTo(dst []byte) (n int64, runs int) { return p.transfer(dst, false) }

// Unpacker copies contiguous staging bytes back into a noncontiguous user
// buffer, any number of bytes at a time.
type Unpacker struct{ engine }

// NewUnpacker creates an unpacker over the message (base, count, t) in m
// using the interpreted cursor walk.
func NewUnpacker(m *mem.Memory, base mem.Addr, t *datatype.Type, count int) *Unpacker {
	u := &Unpacker{}
	u.BindInterpreted(m, base, t, count)
	return u
}

// NewProgramUnpacker creates an unpacker over the message (base, prog) in m
// that replays the compiled layout program.
func NewProgramUnpacker(m *mem.Memory, base mem.Addr, prog *datatype.Program) *Unpacker {
	return &Unpacker{newProgramEngine(m, base, prog)}
}

// UnpackFrom scatters src into the next len(src) bytes' worth of message
// positions, returning bytes consumed and contiguous runs touched.
func (u *Unpacker) UnpackFrom(src []byte) (n int64, runs int) { return u.transfer(src, true) }

// addrAt applies a possibly negative datatype offset to a base address.
func addrAt(base mem.Addr, off int64) mem.Addr {
	return mem.Addr(int64(base) + off)
}

// MessageBlocks returns the absolute-address contiguous blocks of a message,
// the form the registration machinery (OGR) consumes. limit bounds the
// number of runs (0 = no limit); the bool reports truncation.
func MessageBlocks(base mem.Addr, t *datatype.Type, count, limit int) ([]mem.Block, bool) {
	runs, trunc := datatype.Flatten(t, count, limit)
	out := make([]mem.Block, len(runs))
	for i, r := range runs {
		out[i] = mem.Block{Addr: addrAt(base, r.Off), Len: r.Len}
	}
	return out, trunc
}

// ProgramBlocks is MessageBlocks from a compiled program: canonical programs
// emit their run table directly (no re-flatten); generic programs fall back
// to the flatten walk. limit bounds the number of runs (0 = no limit); the
// bool reports truncation.
func ProgramBlocks(base mem.Addr, prog *datatype.Program, limit int) ([]mem.Block, bool) {
	if prog.Kind() == datatype.ProgGeneric {
		return MessageBlocks(base, prog.Type(), prog.Count(), limit)
	}
	runs := prog.Runs()
	trunc := false
	if limit > 0 && runs > int64(limit) {
		runs = int64(limit)
		trunc = true
	}
	return AppendProgramBlocks(make([]mem.Block, 0, runs), base, prog, int(runs)), trunc
}

// AppendProgramBlocks appends the first n runs of a canonical program, as
// absolute-address blocks in traversal order, to dst.
func AppendProgramBlocks(dst []mem.Block, base mem.Addr, prog *datatype.Program, n int) []mem.Block {
	var c datatype.ProgCursor
	c.Reset(prog)
	for n > 0 {
		b := c.NextBatch(math.MaxInt64) // never mid-run, so every step is a batch
		for j := 0; j < b.K && n > 0; j++ {
			off, k := b.Run(j)
			dst = append(dst, mem.Block{Addr: addrAt(base, off), Len: k})
			n--
		}
	}
	return dst
}

// GroupProgram streams every run of a canonical program whose runs ascend
// (Program.Ascending) into g, a batch of the layout walk at a time: grouping
// a message's blocks for registration without ever listing them.
func GroupProgram(g *mem.Grouper, base mem.Addr, prog *datatype.Program) {
	var c datatype.ProgCursor
	c.Reset(prog)
	for !c.Done() {
		b := c.NextBatch(math.MaxInt64)
		for j := 0; j < b.K; j++ {
			off, k := b.Run(j)
			g.Add(addrAt(base, off), k)
		}
	}
}
