package core

import (
	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/pack"
)

// This file wires the datatype compiler into the endpoint: every layout walk
// the schemes perform — serial pack/unpack, parallel segment collection,
// WR chunking, OGR block grouping, scheme-selection layout summaries —
// goes through a compiled program cached per (type index, count).
// Config.InterpretedPack reverts every helper to the interpreted cursor.

// regFlattenLimit caps the run enumeration a user-buffer registration pays.
// A message with more maximal runs than this registers its whole covering
// span instead (groupMessage).
const regFlattenLimit = 1 << 20

// summaryFlattenLimit caps the layout walk behind scheme selection and RTS
// metadata, matching the historical LayoutStats(…, 4096) sample; truncated
// samples are now extrapolated explicitly instead of passing as exact.
const summaryFlattenLimit = 4096

// Program returns the cached compiled layout program for (t, count),
// compiling and caching on first use — the one lookup every layout walk of
// this rank's own types goes through, MPI_Pack's included. It returns nil when
// the compiled path is disabled by Config.InterpretedPack.
func (ep *Endpoint) Program(t *datatype.Type, count int) *datatype.Program {
	if ep.cfg.InterpretedPack {
		return nil
	}
	idx := ep.types.commit(t)
	if p := ep.progs.get(idx, count); p != nil {
		return p
	}
	p := datatype.Compile(t, count)
	ep.progs.put(idx, count, p)
	return p
}

// walkerFor returns a fresh run walker over (t, count): a compiled program
// cursor, or the interpreted cursor when compilation is disabled. Warm paths
// re-arm a cursor their op record owns instead (bindWalker).
func (ep *Endpoint) walkerFor(t *datatype.Type, count int) datatype.RunWalker {
	return ep.bindWalker(new(datatype.ProgCursor), t, count)
}

// bindWalker rewinds c, a cursor the caller owns, onto the compiled program
// of (t, count) and returns it as the walk; when compilation is disabled it
// returns an interpreted cursor and leaves c alone.
func (ep *Endpoint) bindWalker(c *datatype.ProgCursor, t *datatype.Type, count int) datatype.RunWalker {
	if p := ep.Program(t, count); p != nil {
		c.Reset(p)
		return c
	}
	return datatype.NewCursor(t, count)
}

// bindPeerWalker is bindWalker over a peer's layout, whose programs its
// layout-cache entry holds.
func (ep *Endpoint) bindPeerWalker(c *datatype.ProgCursor, l *cachedLayout, count int) datatype.RunWalker {
	if ep.cfg.InterpretedPack {
		return datatype.NewCursor(l.t, count)
	}
	c.Reset(l.program(count))
	return c
}

// packBinder is what the serial and parallel packers and unpackers share: an
// engine that a record keeps by value and re-arms per message.
type packBinder interface {
	Bind(m *mem.Memory, base mem.Addr, prog *datatype.Program)
	BindInterpreted(m *mem.Memory, base mem.Addr, t *datatype.Type, count int)
}

// bind re-arms a pack engine for the message (base, count, t) in this rank's
// memory, on the compiled program when possible. (A parallel engine got its
// fan-out from the endpoint's settings when its op record was made.)
func (ep *Endpoint) bind(e packBinder, base mem.Addr, t *datatype.Type, count int) {
	if p := ep.Program(t, count); p != nil {
		e.Bind(ep.memory, base, p)
		return
	}
	e.BindInterpreted(ep.memory, base, t, count)
}

// groupMessage runs Optimistic Group Registration over the contiguous blocks
// of a message, appending the regions to register to out; blocks is how many
// blocks the message has, which is what datatype processing is charged for.
// A canonical program whose runs ascend streams straight from its layout
// walk into the grouper; one whose runs do not is listed into the endpoint's
// scratch and sorted there; only uncompiled and generic shapes still flatten
// into a fresh list. A message with more than regFlattenLimit runs degrades
// explicitly to its single covering span: one conservative region, never a
// silently incomplete region set.
func (ep *Endpoint) groupMessage(buf mem.Addr, t *datatype.Type, count int, out []mem.Block) (regions []mem.Block, blocks int) {
	g := &ep.grouper
	g.Reset(mem.RegCost{Base: int64(ep.model.RegBase), PerPage: int64(ep.model.RegPerPage)}, out)
	p := ep.Program(t, count)
	var list []mem.Block
	var tooMany bool
	switch {
	case p == nil:
		list, tooMany = pack.MessageBlocks(buf, t, count, regFlattenLimit)
	case p.Kind() == datatype.ProgGeneric:
		list, tooMany = pack.ProgramBlocks(buf, p, regFlattenLimit)
	case p.Runs() > regFlattenLimit:
		tooMany = true
	case p.Ascending():
		pack.GroupProgram(g, buf, p)
		return g.Finish(), int(p.Runs())
	default:
		ep.blockScratch = pack.AppendProgramBlocks(ep.blockScratch[:0], buf, p, int(p.Runs()))
		list = ep.blockScratch
	}
	if tooMany {
		span := t.TrueExtent() + int64(count-1)*t.Extent()
		g.Add(mem.Addr(int64(buf)+t.TrueLB()), span)
		return g.Finish(), 1
	}
	blocks = len(list)
	mem.SortBlocks(list)
	for _, b := range list {
		g.Add(b.Addr, b.Len)
	}
	return g.Finish(), blocks
}

// layoutSummary returns the maximal-run count and average run length of a
// message, the numbers scheme selection and RTS metadata carry. Canonical
// programs answer exactly with no walk; generic shapes pay a bounded sample
// walk, explicitly extrapolated when truncated rather than silently passed
// off as the full layout.
func (ep *Endpoint) layoutSummary(t *datatype.Type, count int) (runs int64, avg int64) {
	if p := ep.Program(t, count); p != nil && p.Kind() != datatype.ProgGeneric {
		runs = p.Runs()
		if runs > 0 {
			avg = int64(float64(p.Bytes()) / float64(runs))
		}
		return runs, avg
	}
	stats := datatype.LayoutStats(t, count, summaryFlattenLimit)
	stats = stats.Extrapolate(t.Size() * int64(count))
	return stats.Runs, int64(stats.AvgRun)
}
