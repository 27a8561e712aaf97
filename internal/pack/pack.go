// Package pack implements segment pack and unpack engines over datatype
// layouts: resumable copies between a noncontiguous user buffer in simulated
// memory and contiguous staging storage. The engines report how many bytes
// and how many contiguous runs each step touched so callers can charge the
// modeled copy cost (bandwidth plus per-run startup).
//
// An engine replays a compiled layout Program, and a pack or unpack step
// moves its bytes one of two ways:
//
//   - the batch kernels (kernels.go): whole runs, handed out a stride level
//     or run-table window at a time by ProgCursor.NextBatch, range-checked
//     once against the program's bounds and copied by a loop specialised on
//     the run length (fixed-width moves for 1/2/4/8/16 B runs, copy()
//     otherwise) — one loop per direction, which moves a strided batch
//     eight runs per length check of the packed buffer (four at 1 and
//     16 B) and each user run through one full-slice expression;
//   - the split-run step: when NextBatch has no whole run to give — the head
//     or tail of the caller's buffer splits one, or the program is past the
//     compiler's run cap and walks its layout — one Next + mem.Bytes + copy().
//
// Both emit the run sequence of the interpreted datatype.Cursor, so staging
// bytes and the (bytes, runs) statistics do not depend on which one moved
// them. What holds them to it is the reference packer (reference.go), which
// shares no code with the engine.
package pack

import (
	"math"

	"repro/internal/datatype"
	"repro/internal/mem"
)

// engine is what Packer and Unpacker share: one message in simulated memory
// and the replay of its layout program. Only the copy direction differs.
type engine struct {
	mem  *mem.Memory
	base mem.Addr
	pc   datatype.ProgCursor
}

// Bind re-arms the engine for another message: count instances of t at
// base in m, from the start. It is what lets a pooled record keep its packer
// or unpacker by value and reuse it for every message it carries: the
// engine's cursor walks the type's unit in place, or holds the message's
// repeat of it, so binding to a canonical program allocates nothing.
func (e *engine) Bind(m *mem.Memory, base mem.Addr, t *datatype.Type, count int) {
	e.mem, e.base = m, base
	e.pc.ResetTo(t, count)
}

// bind arms the engine for the message at base in m that prog lays out;
// prog must outlive the walk.
func (e *engine) bind(m *mem.Memory, base mem.Addr, prog *datatype.Program) {
	e.mem, e.base = m, base
	e.pc.Reset(prog)
}

// Reset rewinds the engine to the start of its message so it can be reused.
// Resetting an engine over a canonical program allocates nothing.
func (e *engine) Reset() { e.pc.Reset(e.pc.Program()) }

// Done reports whether the whole message has been packed or unpacked.
func (e *engine) Done() bool { return e.pc.Done() }

// transfer moves the next len(buf) bytes of the message (or fewer if the
// message ends) between the user buffer and buf — out of the user buffer
// when packing, into it when scatter is set — and returns the bytes moved
// and the contiguous runs touched. Whole runs move a batch at a time through
// the kernels; when the cursor has no whole run to hand out, one run (or the
// piece of it that fits) takes the Next step. Both yield the run sequence of
// the interpreted Cursor, so (n, runs) do not depend on which one moved them.
func (e *engine) transfer(buf []byte, scatter bool) (n int64, runs int) {
	var span []byte // user memory over the program's bounds, mapped at the first batch
	var lo int64
	for n < int64(len(buf)) {
		rest := buf[n:]
		if b := e.pc.NextBatch(int64(len(rest))); b.K > 0 {
			if span == nil {
				var hi int64
				lo, hi = e.pc.Program().Bounds()
				span = e.mem.Bytes(addrAt(e.base, lo), hi-lo)
			}
			n += copyBatch(span, lo, rest, &b, scatter)
			runs += b.K
			continue
		}
		off, k, ok := e.pc.Next(int64(len(rest)))
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

// Packer copies the message a layout program describes out of a user buffer
// into contiguous destinations, any number of bytes at a time. The zero value
// is ready for Bind.
type Packer struct{ engine }

// NewProgramPacker creates a packer over the message (base, prog) in m. The
// program is shared and immutable; the packer keeps private cursor state.
func NewProgramPacker(m *mem.Memory, base mem.Addr, prog *datatype.Program) *Packer {
	p := &Packer{}
	p.bind(m, base, prog)
	return p
}

// PackTo fills dst with the next len(dst) bytes of the message (or fewer if
// the message ends), returning the bytes written and the number of
// contiguous runs touched.
func (p *Packer) PackTo(dst []byte) (n int64, runs int) { return p.transfer(dst, false) }

// Unpacker copies contiguous staging bytes back into the noncontiguous user
// buffer a layout program describes, any number of bytes at a time. The zero
// value is ready for Bind.
type Unpacker struct{ engine }

// NewProgramUnpacker creates an unpacker over the message (base, prog) in m.
func NewProgramUnpacker(m *mem.Memory, base mem.Addr, prog *datatype.Program) *Unpacker {
	u := &Unpacker{}
	u.bind(m, base, prog)
	return u
}

// UnpackFrom scatters src into the next len(src) bytes' worth of message
// positions, returning bytes consumed and contiguous runs touched.
func (u *Unpacker) UnpackFrom(src []byte) (n int64, runs int) { return u.transfer(src, true) }

// addrAt applies a possibly negative datatype offset to a base address.
func addrAt(base mem.Addr, off int64) mem.Addr {
	return mem.Addr(int64(base) + off)
}

// nextRuns takes the cursor's next step as a batch of at most max bytes:
// the whole runs NextBatch hands out or, when it has none to give, the one
// Next step its contract prescribes, as a batch of that single run (or the
// piece of it that fits). K is 0 only once the message has ended.
func nextRuns(c *datatype.ProgCursor, max int64) datatype.RunBatch {
	b := c.NextBatch(max)
	if b.K == 0 {
		if off, n, ok := c.Next(max); ok {
			b = datatype.RunBatch{K: 1, RunLen: n, Base: off}
		}
	}
	return b
}

// ProgramBlocks returns the absolute-address contiguous blocks of a message
// in traversal order, the form the registration machinery (OGR) consumes.
// limit bounds the number of runs (0 = no limit); the bool reports
// truncation.
func ProgramBlocks(base mem.Addr, prog *datatype.Program, limit int) ([]mem.Block, bool) {
	n := prog.Runs()
	if limit > 0 && n > int64(limit) {
		n = int64(limit)
	}
	return AppendProgramBlocks(make([]mem.Block, 0, n), base, prog, limit)
}

// AppendProgramBlocks is ProgramBlocks into the caller's buffer: it appends
// the program's first limit runs (every run when limit is 0) to dst and
// reports whether runs were left over.
func AppendProgramBlocks(dst []mem.Block, base mem.Addr, prog *datatype.Program, limit int) ([]mem.Block, bool) {
	if limit <= 0 {
		limit = math.MaxInt
	}
	var c datatype.ProgCursor
	c.Reset(prog)
	for b := nextRuns(&c, math.MaxInt64); b.K > 0; b = nextRuns(&c, math.MaxInt64) {
		for j := 0; j < b.K; j++ {
			if limit == 0 {
				return dst, true
			}
			off, k := b.Run(j)
			dst = append(dst, mem.Block{Addr: addrAt(base, off), Len: k})
			limit--
		}
	}
	return dst, false
}

// GroupProgram streams every run of a program whose runs ascend
// (Program.Ascending) into g, a batch of the layout walk at a time: grouping
// a message's blocks for registration without ever listing them.
func GroupProgram(g *mem.Grouper, base mem.Addr, prog *datatype.Program) {
	var c datatype.ProgCursor
	c.Reset(prog)
	for b := nextRuns(&c, math.MaxInt64); b.K > 0; b = nextRuns(&c, math.MaxInt64) {
		for j := 0; j < b.K; j++ {
			off, k := b.Run(j)
			g.Add(addrAt(base, off), k)
		}
	}
}
