package core

import (
	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/pack"
)

// This file wires the datatype compiler into the endpoint: every layout walk
// the schemes perform — serial pack/unpack, parallel segment collection,
// WR chunking, OGR block enumeration, scheme-selection layout summaries —
// goes through a compiled program cached per (type index, count).
// Config.InterpretedPack reverts every helper to the interpreted cursor.

// regFlattenLimit caps the run enumeration a user-buffer registration pays.
// A message with more maximal runs than this registers its whole covering
// span instead (explicit truncation handling: one conservative region,
// never a silently incomplete region set).
const regFlattenLimit = 1 << 20

// summaryFlattenLimit caps the layout walk behind scheme selection and RTS
// metadata, matching the historical LayoutStats(…, 4096) sample; truncated
// samples are now extrapolated explicitly instead of passing as exact.
const summaryFlattenLimit = 4096

// programFor returns the cached compiled layout program for (t, count),
// compiling and caching on first use. It returns nil when the compiled path
// is disabled by Config.InterpretedPack.
func (ep *Endpoint) programFor(t *datatype.Type, count int) *datatype.Program {
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

// walkerFor returns a run walker over (t, count): a compiled program cursor,
// or the interpreted cursor when compilation is disabled.
func (ep *Endpoint) walkerFor(t *datatype.Type, count int) datatype.RunWalker {
	if p := ep.programFor(t, count); p != nil {
		return p.Cursor()
	}
	return datatype.NewCursor(t, count)
}

// newPacker builds a serial packer over a message in this rank's memory,
// compiled when possible.
func (ep *Endpoint) newPacker(base mem.Addr, t *datatype.Type, count int) *pack.Packer {
	if p := ep.programFor(t, count); p != nil {
		return pack.NewProgramPacker(ep.memory, base, p)
	}
	return pack.NewPacker(ep.memory, base, t, count)
}

// newUnpacker builds a serial unpacker over a message in this rank's memory,
// compiled when possible.
func (ep *Endpoint) newUnpacker(base mem.Addr, t *datatype.Type, count int) *pack.Unpacker {
	if p := ep.programFor(t, count); p != nil {
		return pack.NewProgramUnpacker(ep.memory, base, p)
	}
	return pack.NewUnpacker(ep.memory, base, t, count)
}

// newParallelPacker builds a parallel packer over a message, compiled when
// possible, configured from the endpoint's parallel-engine settings.
func (ep *Endpoint) newParallelPacker(base mem.Addr, t *datatype.Type, count int) *pack.ParallelPacker {
	if p := ep.programFor(t, count); p != nil {
		return pack.NewParallelProgramPacker(ep.memory, base, p, ep.cfg.par())
	}
	return pack.NewParallelPacker(ep.memory, base, t, count, ep.cfg.par())
}

// newParallelUnpacker builds a parallel unpacker over a message, compiled
// when possible, configured from the endpoint's parallel-engine settings.
func (ep *Endpoint) newParallelUnpacker(base mem.Addr, t *datatype.Type, count int) *pack.ParallelUnpacker {
	if p := ep.programFor(t, count); p != nil {
		return pack.NewParallelProgramUnpacker(ep.memory, base, p, ep.cfg.par())
	}
	return pack.NewParallelUnpacker(ep.memory, base, t, count, ep.cfg.par())
}

// messageBlocks enumerates the contiguous blocks of a message for
// registration, from the compiled program when available. The second result
// reports whether the program already guarantees non-decreasing address
// order (the sort in GroupRegions can be skipped). A message with more than
// regFlattenLimit runs degrades explicitly to its single covering span.
func (ep *Endpoint) messageBlocks(buf mem.Addr, t *datatype.Type, count int) ([]mem.Block, bool) {
	var blocks []mem.Block
	var trunc bool
	sorted := false
	if p := ep.programFor(t, count); p != nil {
		blocks, trunc = pack.ProgramBlocks(buf, p, regFlattenLimit)
		sorted = p.Ascending() && !trunc
	} else {
		blocks, trunc = pack.MessageBlocks(buf, t, count, regFlattenLimit)
	}
	if trunc {
		// Truncated flatten: never hand an incomplete block set to OGR.
		// Cover the whole true span of the message in one region instead.
		span := t.TrueExtent() + int64(count-1)*t.Extent()
		lo := int64(buf) + t.TrueLB()
		return []mem.Block{{Addr: mem.Addr(lo), Len: span}}, false
	}
	return blocks, sorted
}

// layoutSummary returns the maximal-run count and average run length of a
// message, the numbers scheme selection and RTS metadata carry. Canonical
// programs answer exactly with no walk; generic shapes pay a bounded sample
// walk, explicitly extrapolated when truncated rather than silently passed
// off as the full layout.
func (ep *Endpoint) layoutSummary(t *datatype.Type, count int) (runs int64, avg int64) {
	if p := ep.programFor(t, count); p != nil && p.Kind() != datatype.ProgGeneric {
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
