package core

import (
	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/pack"
)

// This file wires the datatype compiler into the endpoint: every layout walk
// the schemes perform — serial pack/unpack, parallel segment collection,
// WR chunking, OGR block grouping, scheme-selection layout summaries —
// replays its type's program: the unit the type holds, repeated count times.

// regFlattenLimit caps the run enumeration a user-buffer registration pays.
// A message with more maximal runs than this registers its whole covering
// span instead (groupMessage).
const regFlattenLimit = 1 << 20

// groupMessage returns the Optimistic Group Registration of a message: the
// regions to register, and how many blocks the message has, which is what
// datatype processing is charged for. A (type, count, buffer) seen lately is
// not walked again (plan.go). A program whose runs ascend streams straight
// from its layout walk into the grouper; any other is listed into the
// endpoint's scratch and sorted there. A message with more than regFlattenLimit runs —
// by its program's count, or by the listing itself where that count is an
// estimate — degrades explicitly to its single covering span: one
// conservative region, never a silently incomplete region set.
func (ep *Endpoint) groupMessage(buf mem.Addr, t *datatype.Type, count int) *groupEntry {
	e, hit := ep.plans.group(t, count, buf)
	if hit {
		return e
	}
	ep.plans.ogrWalks++
	ep.groupProg = t.Program(count)
	p := &ep.groupProg
	e.t, e.count, e.buf, e.blocks = t, count, buf, 1
	g := &ep.grouper
	g.Reset(mem.RegCost{Base: int64(ep.model.RegBase), PerPage: int64(ep.model.RegPerPage)}, e.groups[:0])
	tooMany := p.Runs() > regFlattenLimit
	if !tooMany {
		if p.Ascending() {
			pack.GroupProgram(g, buf, p)
			e.groups, e.blocks = g.Finish(), int(p.Runs())
			return e
		}
		ep.blockScratch, tooMany = pack.AppendProgramBlocks(ep.blockScratch[:0], buf, p, regFlattenLimit)
	}
	if tooMany {
		span := t.TrueExtent() + int64(count-1)*t.Extent()
		g.Add(mem.Addr(int64(buf)+t.TrueLB()), span)
	} else {
		mem.SortBlocks(ep.blockScratch)
		for _, b := range ep.blockScratch {
			g.Add(b.Addr, b.Len)
		}
		e.blocks = len(ep.blockScratch)
	}
	e.groups = g.Finish()
	return e
}

// layoutSummary returns the maximal-run count and average run length of a
// message, the numbers scheme selection and RTS metadata carry, as its
// program reports them: no walk.
func (ep *Endpoint) layoutSummary(t *datatype.Type, count int) (runs int64, avg int64) {
	p := t.Program(count)
	runs = p.Runs()
	if runs > 0 {
		avg = int64(float64(p.Bytes()) / float64(runs))
	}
	return runs, avg
}
