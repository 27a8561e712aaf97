package core

import (
	"repro/internal/datatype"
	"repro/internal/verbs"
)

// PerfProbe drives the descriptor-builder hot path — chunkWRs over a
// compiled layout and chunkBatches over its output — in isolation, for the
// perf gate (cmd/perfgate) and the zero-allocation regression tests. It
// holds the same op-owned state a live transfer would (a wrSet arena, a
// reusable program cursor, a batch-window scratch), so a measured call is
// exactly one warm rebuild of the descriptor list with no endpoint, fabric,
// or rendezvous machinery around it. The single local reference synthesizes
// a registration covering the whole address space, so region resolution
// always hits the binary search's first probe pattern rather than failing.
type PerfProbe struct {
	ep    Endpoint // only model/rank are consulted by chunkWRs
	set   wrSet
	prog  datatype.Program
	cur   datatype.ProgCursor
	refs  []regRef
	wrBuf []verbs.SendWR
	out   [][]verbs.SendWR
	bytes int64
}

// NewPerfProbe builds a probe over count instances of dt using the default
// adapter model (MaxSGE 64, MaxPostBatch 64).
func NewPerfProbe(dt *datatype.Type, count int) *PerfProbe {
	m := verbs.DefaultModel()
	p := &PerfProbe{
		prog:  dt.Program(count),
		refs:  []regRef{{addr: 0, len: 1 << 40, key: 1}},
		bytes: dt.Size() * int64(count),
	}
	p.ep.model = &m
	return p
}

// ChunkWRs rebuilds the full descriptor list for the probe's message into
// the arena and reports how many descriptors it produced. Warm calls (after
// the first) must not allocate — the perf gate pins that.
func (p *PerfProbe) ChunkWRs() int {
	p.set.reset()
	p.cur.Reset(&p.prog)
	wrs, err := p.ep.chunkWRs(&p.set, verbs.OpRDMAWrite, &p.cur, 0, p.refs, p.bytes, 0, 1)
	if err != nil {
		panic(err)
	}
	return len(wrs)
}

// ChunkBatches splits n blank descriptors at the per-doorbell limit and
// reports the batch count. Warm calls must not allocate.
func (p *PerfProbe) ChunkBatches(n, limit int) int {
	if cap(p.wrBuf) < n {
		p.wrBuf = make([]verbs.SendWR, n)
	}
	for i := range p.out {
		p.out[i] = nil
	}
	p.out = chunkBatches(p.wrBuf[:n], limit, p.out[:0])
	return len(p.out)
}
