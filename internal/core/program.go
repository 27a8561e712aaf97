package core

import (
	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/pack"
)

// This file wires the datatype compiler into the endpoint: every layout walk
// the schemes perform — serial pack/unpack, parallel segment collection,
// WR chunking, OGR block grouping, scheme-selection layout summaries —
// replays a compiled program cached per (type index, count).

// regFlattenLimit caps the run enumeration a user-buffer registration pays.
// A message with more maximal runs than this registers its whole covering
// span instead (groupMessage).
const regFlattenLimit = 1 << 20

// Program returns the cached compiled layout program for (t, count),
// compiling and caching on first use — the one lookup every layout walk of
// this rank's own types goes through, MPI_Pack's included.
func (ep *Endpoint) Program(t *datatype.Type, count int) *datatype.Program {
	idx := ep.types.commit(t)
	if p := ep.progs.get(idx, count); p != nil {
		return p
	}
	p := datatype.Compile(t, count)
	ep.progs.put(idx, count, p)
	return p
}

// groupMessage runs Optimistic Group Registration over the contiguous blocks
// of a message, appending the regions to register to out; blocks is how many
// blocks the message has, which is what datatype processing is charged for.
// A program whose runs ascend streams straight from its layout walk into the
// grouper; any other is listed into the endpoint's scratch and sorted there.
// A message with more than regFlattenLimit runs — by its program's count, or
// by the listing itself where that count is an estimate — degrades explicitly
// to its single covering span: one conservative region, never a silently
// incomplete region set.
func (ep *Endpoint) groupMessage(buf mem.Addr, t *datatype.Type, count int, out []mem.Block) (regions []mem.Block, blocks int) {
	g := &ep.grouper
	g.Reset(mem.RegCost{Base: int64(ep.model.RegBase), PerPage: int64(ep.model.RegPerPage)}, out)
	p := ep.Program(t, count)
	tooMany := p.Runs() > regFlattenLimit
	if !tooMany {
		if p.Ascending() {
			pack.GroupProgram(g, buf, p)
			return g.Finish(), int(p.Runs())
		}
		ep.blockScratch, tooMany = pack.AppendProgramBlocks(ep.blockScratch[:0], buf, p, regFlattenLimit)
	}
	if tooMany {
		span := t.TrueExtent() + int64(count-1)*t.Extent()
		g.Add(mem.Addr(int64(buf)+t.TrueLB()), span)
		return g.Finish(), 1
	}
	list := ep.blockScratch
	mem.SortBlocks(list)
	for _, b := range list {
		g.Add(b.Addr, b.Len)
	}
	return g.Finish(), len(list)
}

// layoutSummary returns the maximal-run count and average run length of a
// message, the numbers scheme selection and RTS metadata carry, as its
// program reports them: no walk.
func (ep *Endpoint) layoutSummary(t *datatype.Type, count int) (runs int64, avg int64) {
	p := ep.Program(t, count)
	runs = p.Runs()
	if runs > 0 {
		avg = int64(float64(p.Bytes()) / float64(runs))
	}
	return runs, avg
}
