package core

import (
	"sync/atomic"

	"fmt"

	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/pack"
	"repro/internal/simtime"
	"repro/internal/verbs"
)

// sendOp is the sender-side state of one rendezvous transfer.
type sendOp struct {
	id    uint32
	req   *Request
	dst   int
	tag   int
	buf   mem.Addr
	count int
	dt    *datatype.Type
	size  int64 // full message size
	eff   int64 // effective (possibly truncated) size, set by the CTS

	sContig    bool
	registered bool
	regions    []*mem.Region
	refs       []regRef // local regions with lkeys, sorted by address

	// Observability: when the RTS went out, and the scheme the receiver's
	// CTS selected (authoritative even under SchemeAuto).
	tStart simtime.Time
	scheme Scheme

	staging segRes   // Generic whole-message pack buffer
	segs    []segRes // P-RRS pack segments, held until Done
	wrsLeft int      // descriptors not yet finally resolved

	// allPosted guards completion: wrsLeft may transiently hit zero between
	// segment posts, so onWRsDone only fires once every descriptor of the op
	// has been posted.
	allPosted bool
	onWRsDone func()

	// Failure state (see failure.go).
	failed     bool
	failErr    error
	notifyPeer bool

	// Free-list state (freelist.go): outstanding continuation pins and the
	// retired flag that arms recycle-on-last-unpin.
	pins    int
	retired bool

	// Op-owned arenas and scratch, reused across the op's whole life and
	// reset only at recycle: the descriptor arena chunkWRs fills, the
	// descriptor groups sendGatherData accumulates, the per-batch segment
	// scratch of the batched BC-SPUP pipeline, and the parsed CTS segment /
	// region refs (op-owned because admission may park the data phase while
	// another CTS arrives and parses).
	wrs        wrSet
	groups     [][]verbs.SendWR
	segScratch []seg
	ctsSegs    []segRef
	ctsRegs    []regRef
}

// segRes couples a staging segment with the byte count it carries. held
// records whether this op still owns the segment (rather than inferring
// ownership from a sentinel address), so abort teardown releases exactly the
// resources the op holds.
type segRes struct {
	seg   seg
	bytes int64
	held  bool
}

// recvOp is the receiver-side state of one rendezvous transfer.
type recvOp struct {
	key       opKey
	req       *Request
	eff       int64
	truncated bool
	scheme    Scheme
	sel       *SelectorInput // non-nil when an adaptive selector made the choice
	tStart    simtime.Time   // when the RTS met the posted receive

	// Staged path (Generic / BC-SPUP / RWG-UP).
	direct   bool // receiver side contiguous: data lands in the user buffer
	segSize  int64
	nSegs    int
	segs     []segRes
	unpacker *pack.ParallelUnpacker
	arrived  int
	finished int

	// User-buffer registrations (direct, Multi-W, P-RRS).
	regions []*mem.Region
	refs    []regRef

	// wholeSeg backs all segments when staging was allocated as one
	// on-the-fly buffer (pool disabled or message larger than the pool);
	// it is released once, at completion.
	wholeSeg *seg

	// P-RRS read state.
	readCur   datatype.RunWalker
	bytesRead int64
	wrsLeft   int // outstanding receiver-initiated descriptors (scatter reads)

	// Failure state (see failure.go).
	failed     bool
	failErr    error
	notifyPeer bool

	// Free-list state (freelist.go), mirroring sendOp.
	pins    int
	retired bool

	// Op-owned arenas: the scatter-read descriptor arena (P-RRS) and the
	// segment refs assembled for the CTS reply.
	wrs     wrSet
	ctsRefs []segRef
}

func (ep *Endpoint) newOpID() uint32 {
	ep.nextOp++
	return ep.nextOp
}

// chargeTypeProc charges datatype-processing CPU for handling runs runs.
func (ep *Endpoint) chargeTypeProc(runs int) {
	ep.hca.ChargeCPUNamed(ep.cfg.TypeProcBase+simtime.Duration(runs)*ep.cfg.TypeProcPerRun, "typeproc")
}

// registerUserMessage registers the contiguous blocks of a message buffer
// using Optimistic Group Registration through the user pin-down cache,
// charging the real registration work, and hands the regions to done.
// Transient registration faults are retried with backoff (so done may run
// after a virtual-time delay); without faults done runs synchronously.
// On error any partially acquired groups are released first.
//
// regions and refs are caller-supplied append buffers (callers pass the
// owning op's retained slices so a warm registration allocates nothing);
// because the append happens across retry backoffs, the caller must pin the
// owning op until done runs.
func (ep *Endpoint) registerUserMessage(buf mem.Addr, dt *datatype.Type, count int,
	regions []*mem.Region, refs []regRef,
	done func([]*mem.Region, []regRef, error)) {

	blocks, sorted := ep.messageBlocks(buf, dt, count)
	ep.chargeTypeProc(len(blocks))
	cost := mem.RegCost{Base: int64(ep.model.RegBase), PerPage: int64(ep.model.RegPerPage)}
	var groups []mem.Block
	if sorted {
		// Compiled programs that emit in address order skip the sort.
		groups = mem.GroupRegionsSorted(blocks, cost)
	} else {
		groups = mem.GroupRegions(blocks, cost)
	}
	regions = regions[:0]
	refs = refs[:0]
	var total mem.RegOps
	i, attempt := 0, 0
	var step func()
	step = func() {
		for i < len(groups) {
			g := groups[i]
			r, ops, err := ep.userReg.Acquire(g.Addr, g.Len)
			total.Add(ops)
			if err != nil {
				if fault.IsTransient(err) && attempt < ep.cfg.FaultRetryLimit {
					attempt++
					atomic.AddInt64(&ep.ctr.FaultRetries, 1)
					ep.eng.Schedule(ep.cfg.retryBackoff(attempt), step)
					return
				}
				ep.releaseUserRegions(regions)
				done(nil, nil, err)
				return
			}
			attempt = 0
			regions = append(regions, r)
			refs = append(refs, regRef{addr: g.Addr, len: g.Len, key: r.LKey})
			i++
		}
		ep.accountReg(total)
		ep.hca.ChargeCPUNamed(ep.model.RegOpsTime(total), "reg")
		done(regions, refs, nil)
	}
	step()
}

// releaseUserRegions drops user-buffer registrations, charging any real
// deregistration work (cache off or eviction).
func (ep *Endpoint) releaseUserRegions(regions []*mem.Region) {
	var total mem.RegOps
	for _, r := range regions {
		ops, err := ep.userReg.Release(r)
		if err != nil {
			panic(err)
		}
		total.Add(ops)
	}
	ep.accountReg(total)
	if d := ep.model.RegOpsTime(total); d > 0 {
		ep.hca.ChargeCPUNamed(d, "reg")
	}
	ep.qosDrain() // registration pressure just dropped
}

// acquireStaging allocates and registers a dynamic staging buffer of exactly
// n bytes (the Generic scheme's pack/unpack buffers), charging malloc and
// registration work, and hands the segment to done. Transient registration
// faults are retried with backoff; the allocation is freed if registration
// ultimately fails. Without faults done runs synchronously.
func (ep *Endpoint) acquireStaging(n int64, done func(seg, error)) {
	atomic.AddInt64(&ep.ctr.DynamicAllocs, 1)
	addr, err := ep.memory.AllocPage(n)
	if err != nil {
		done(seg{}, err)
		return
	}
	attempt := 0
	var try func()
	try = func() {
		region, ops, err := ep.stagingReg.Acquire(addr, n)
		if err != nil {
			if fault.IsTransient(err) && attempt < ep.cfg.FaultRetryLimit {
				attempt++
				atomic.AddInt64(&ep.ctr.FaultRetries, 1)
				ep.eng.Schedule(ep.cfg.retryBackoff(attempt), try)
				return
			}
			if ferr := ep.memory.Free(addr); ferr != nil {
				panic(ferr)
			}
			done(seg{}, err)
			return
		}
		ep.accountReg(ops)
		ep.hca.ChargeCPUNamed(ep.model.MallocTime(n)+ep.model.RegOpsTime(ops), "malloc+reg")
		done(seg{addr: addr, key: region.LKey, region: region}, nil)
	}
	try()
}

// --- Sender: initiation ------------------------------------------------------

// rndvSend starts the rendezvous protocol for a large message.
func (ep *Endpoint) rndvSend(req *Request, ctx int, buf mem.Addr, count int, dt *datatype.Type, dst, tag int) {
	op := ep.getSendOp()
	op.id, op.req, op.dst, op.tag = ep.newOpID(), req, dst, tag
	op.buf, op.count, op.dt = buf, count, dt
	op.size = dt.Size() * int64(count)
	op.sContig = dt.Contig()
	op.notifyPeer = true
	op.tStart = ep.tnow()
	ep.addSendOp(op)
	atomic.AddInt64(&ep.ctr.RendezvousSends, 1)

	_, sAvg := ep.layoutSummary(dt, count)
	slot := ep.reserveAnnounce(dst)
	sendRTS := func() {
		// The announce closure can sit queued behind an earlier message's
		// delayed RTS; pin so an op aborted in that window is not recycled
		// out from under the closure.
		ep.pinSend(op)
		ep.announceReady(dst, slot, func() {
			defer ep.unpinSend(op)
			ep.mark("rts", "rts", op.id)
			w := ep.ctrlW()
			w.u8(kindRTS)
			w.u32(op.id)
			w.u32(uint32(ctx))
			w.u32(uint32(tag))
			w.i64(op.size)
			w.i64(sAvg)
			if op.sContig {
				w.u8(1)
			} else {
				w.u8(0)
			}
			ep.sendCtrl(dst, w.buf)
		})
	}

	// Copy-reduced fixed schemes register the user buffer now, overlapping
	// registration with the handshake (Section 7.4). Under Auto the choice
	// is the receiver's, so registration waits for the CTS.
	if ep.cfg.Scheme == SchemeRWGUP || ep.cfg.Scheme == SchemeMultiW ||
		(ep.cfg.Scheme == SchemePRRS && op.sContig) || op.sContig {
		ep.pinSend(op)
		ep.registerUserMessage(buf, dt, count, op.regions[:0], op.refs[:0],
			func(regions []*mem.Region, refs []regRef, err error) {
				defer ep.unpinSend(op)
				if err != nil {
					// Still announce the op so the receiver has something to
					// match; the abort's failure notice then unblocks it.
					sendRTS()
					ep.abortSend(op, err)
					return
				}
				if op.failed {
					// The op died before announcing; release the slot with a
					// no-op so later announces to this peer are not stuck.
					ep.announceReady(dst, slot, func() {})
					ep.releaseUserRegions(regions)
					return
				}
				op.regions, op.refs = regions, refs
				op.registered = true
				sendRTS()
			})
		return
	}
	sendRTS()
}

// --- Receiver: match and scheme choice ---------------------------------------

// rndvMatched runs when an RTS meets its posted receive; it allocates
// receiver resources for the chosen scheme and sends the CTS. The scheme
// decision itself (static Section 6 heuristic, or an adaptive selector) lives
// in select.go.
func (ep *Endpoint) rndvMatched(inb *inbound, req *Request) {
	capacity := req.dt.Size() * int64(req.count)
	eff := inb.size
	if eff > capacity {
		eff = capacity
	}
	scheme, sel := ep.decideScheme(inb, req, eff)
	op := ep.getRecvOp()
	op.key = opKey{src: inb.src, op: inb.opID}
	op.req, op.eff = req, eff
	op.truncated = inb.size > capacity
	op.scheme = scheme
	op.sel = sel
	op.direct = req.dt.Contig()
	op.tStart = ep.tnow()
	req.Source = inb.src
	req.Tag = inb.tag
	req.Bytes = eff
	ep.addRecvOp(op)
	ep.mark(schemeName(&matchMarkName, op.scheme), "rts", op.key.op)

	// Service mode gates the whole data phase here: parking before the
	// scheme setup delays only the CTS (the sanctioned Section 4.3.3 stall),
	// never the already-sent announce.
	ep.admitRecv(op, func() {
		switch op.scheme {
		case SchemeGeneric:
			ep.recvStagedSetup(op, eff) // one whole-message segment
		case SchemeBCSPUP, SchemeRWGUP:
			ep.recvStagedSetup(op, ep.cfg.segSizeFor(eff))
		case SchemeMultiW:
			ep.recvMultiWSetup(op)
		case SchemePRRS:
			ep.recvPRRSSetup(op)
		default:
			panic("core: bad scheme at match")
		}
	})
}

// recvStagedSetup assigns unpack destinations — the receiver's user buffer
// directly when it is contiguous, staging segments otherwise — and replies
// with the CTS carrying their addresses and keys. When the unpack pool is
// dry, the reply is delayed until segments free up, stalling the sender
// exactly as Section 4.3.3 prescribes; only a message too large for the
// whole pool falls back to dynamic allocation.
func (ep *Endpoint) recvStagedSetup(op *recvOp, segSize int64) {
	if segSize <= 0 || segSize > op.eff {
		segSize = op.eff
	}
	op.segSize = segSize
	op.nSegs = int((op.eff + segSize - 1) / segSize)

	sendCTS := func(refs []segRef) {
		w := ep.ctrlW()
		w.u8(kindCTS)
		w.u32(op.key.op)
		w.u8(uint8(op.scheme))
		w.i64(op.eff)
		w.i64(segSize)
		w.segRefs(refs)
		ep.sendCtrl(op.key.src, w.buf)
		ep.span(schemeName(&ctsSpanName, op.scheme), "handshake", op.key.op, op.eff, op.tStart)
	}

	if op.direct {
		// Contiguous receiver: segments map straight onto the user buffer.
		ep.pinRecv(op)
		ep.registerUserMessage(op.req.buf, op.req.dt, op.req.count, op.regions[:0], op.refs[:0],
			func(regions []*mem.Region, rrefs []regRef, err error) {
				defer ep.unpinRecv(op)
				if err != nil {
					ep.abortRecv(op, err, true)
					return
				}
				if op.failed {
					ep.releaseUserRegions(regions)
					return
				}
				op.regions = regions
				base := mem.Addr(int64(op.req.buf) + op.req.dt.TrueLB())
				refs := op.ctsRefs[:0]
				for k := 0; k < op.nSegs; k++ {
					refs = append(refs, segRef{addr: base + mem.Addr(int64(k)*segSize), key: rrefs[0].key})
				}
				op.ctsRefs = refs
				sendCTS(refs)
			})
		return
	}

	op.unpacker = ep.newParallelUnpacker(op.req.buf, op.req.dt, op.req.count)

	if op.scheme == SchemeGeneric {
		// The basic scheme's dynamically allocated whole-message unpack
		// buffer (Figure 1).
		ep.pinRecv(op)
		ep.acquireStaging(op.eff, func(s seg, err error) {
			defer ep.unpinRecv(op)
			if err != nil {
				ep.abortRecv(op, err, true)
				return
			}
			if op.failed {
				ep.releaseSeg(ep.unpackPool, s)
				return
			}
			op.segs = append(op.segs[:0], segRes{seg: s, bytes: op.eff, held: true})
			op.ctsRefs = append(op.ctsRefs[:0], segRef{addr: s.addr, key: s.key})
			sendCTS(op.ctsRefs)
		})
		return
	}

	segBytes := func(k int) int64 {
		n := segSize
		if rest := op.eff - int64(k)*segSize; n > rest {
			n = rest
		}
		return n
	}
	pool := ep.unpackPool
	segC := pool.classFor(segSize)
	if !pool.enabled || op.nSegs > pool.slotsFor(segC) {
		// No pool (the worst case of Figure 14) or message larger than the
		// whole pool: allocate one on-the-fly unpack buffer of the real data
		// size — the same registration cost the Generic scheme pays — and
		// carve the segments out of it.
		if !pool.enabled {
			atomic.AddInt64(&ep.ctr.PoolDisabled, 1)
		} else {
			atomic.AddInt64(&ep.ctr.PoolOverflow, 1)
		}
		ep.pinRecv(op)
		ep.acquireStaging(op.eff, func(s seg, err error) {
			defer ep.unpinRecv(op)
			if err != nil {
				ep.abortRecv(op, err, true)
				return
			}
			if op.failed {
				ep.releaseSeg(ep.unpackPool, s)
				return
			}
			op.wholeSeg = &s
			refs := op.ctsRefs[:0]
			for k := 0; k < op.nSegs; k++ {
				addr := s.addr + mem.Addr(int64(k)*segSize)
				// Views onto wholeSeg: not individually held, the backing
				// buffer is released once.
				op.segs = append(op.segs, segRes{
					seg:   seg{addr: addr, key: s.key},
					bytes: segBytes(k),
				})
				refs = append(refs, segRef{addr: addr, key: s.key})
			}
			op.ctsRefs = refs
			sendCTS(refs)
		})
		return
	}
	ep.pinRecv(op)
	pool.whenAvailable(op.nSegs, segC, func() {
		defer ep.unpinRecv(op)
		if op.failed {
			return // aborted while parked; slots stay with the pool
		}
		refs := op.ctsRefs[:0]
		for k := 0; k < op.nSegs; k++ {
			s, ok := pool.tryAcquire(segC)
			if !ok {
				panic("core: unpack pool promised slots it does not have")
			}
			op.segs = append(op.segs, segRes{seg: s, bytes: segBytes(k), held: true})
			refs = append(refs, segRef{addr: s.addr, key: s.key})
		}
		op.ctsRefs = refs
		sendCTS(refs)
	})
}

// recvMultiWSetup registers the receiver's user blocks and ships its layout
// (or its cached identity) plus region keys in the CTS.
func (ep *Endpoint) recvMultiWSetup(op *recvOp) {
	ep.pinRecv(op)
	ep.registerUserMessage(op.req.buf, op.req.dt, op.req.count, op.regions[:0], op.refs[:0],
		func(regions []*mem.Region, refs []regRef, err error) {
			defer ep.unpinRecv(op)
			if err != nil {
				ep.abortRecv(op, err, true)
				return
			}
			if op.failed {
				ep.releaseUserRegions(regions)
				return
			}
			op.regions = regions
			op.refs = refs

			idx := ep.types.commit(op.req.dt)
			version := ep.types.version(idx)
			var layout []byte
			if ep.layouts.needSend(op.key.src, idx, version) {
				layout = datatype.Encode(op.req.dt)
				atomic.AddInt64(&ep.ctr.TypeLayoutsSent, 1)
			}

			w := ep.ctrlW()
			w.u8(kindCTS)
			w.u32(op.key.op)
			w.u8(uint8(SchemeMultiW))
			w.i64(op.eff)
			w.u64(uint64(op.req.buf))
			w.u64(uint64(op.req.count))
			w.u32(uint32(idx))
			w.u32(version)
			if layout != nil {
				w.u8(1)
				w.bytes(layout)
			} else {
				w.u8(0)
			}
			w.regRefs(refs)
			ep.sendCtrl(op.key.src, w.buf)
			ep.span("cts Multi-W", "handshake", op.key.op, op.eff, op.tStart)
		})
}

// recvPRRSSetup registers the receiver's user blocks for scatter reads and
// tells the sender to start producing segments.
func (ep *Endpoint) recvPRRSSetup(op *recvOp) {
	ep.pinRecv(op)
	ep.registerUserMessage(op.req.buf, op.req.dt, op.req.count, op.regions[:0], op.refs[:0],
		func(regions []*mem.Region, refs []regRef, err error) {
			defer ep.unpinRecv(op)
			if err != nil {
				ep.abortRecv(op, err, true)
				return
			}
			if op.failed {
				ep.releaseUserRegions(regions)
				return
			}
			op.regions = regions
			op.refs = refs
			op.segSize = ep.cfg.segSizeFor(op.eff)
			op.nSegs = int((op.eff + op.segSize - 1) / op.segSize)
			op.readCur = ep.walkerFor(op.req.dt, op.req.count)

			w := ep.ctrlW()
			w.u8(kindCTS)
			w.u32(op.key.op)
			w.u8(uint8(SchemePRRS))
			w.i64(op.eff)
			w.i64(op.segSize)
			ep.sendCtrl(op.key.src, w.buf)
			ep.span("cts P-RRS", "handshake", op.key.op, op.eff, op.tStart)
		})
}

// finishRecv completes the receive request and releases receiver resources;
// the op retires to the free-list once the last pinned continuation drops.
func (ep *Endpoint) finishRecv(op *recvOp) {
	if op.failed {
		return // abort teardown owns the resources now
	}
	if !ep.removeRecvOp(op) {
		return // already finalized
	}
	ep.span(schemeName(&recvSpanName, op.scheme), "data", op.key.op, op.eff, op.tStart)
	ep.observeTransfer(op.scheme, op.eff, op.tStart)
	if op.sel != nil && ep.cfg.Selector != nil {
		// Close the adaptive loop: feed the measured receive latency back to
		// the selector that chose this scheme, and account its regret proxy.
		lat := int64(ep.tnow().Sub(op.tStart))
		if regret := ep.cfg.Selector.Observe(*op.sel, op.scheme, lat); regret > 0 {
			atomic.AddInt64(&ep.ctr.TunerRegretNs, regret)
		}
	}
	if op.wholeSeg != nil {
		ep.releaseSeg(ep.unpackPool, *op.wholeSeg)
		op.wholeSeg = nil
	}
	if len(op.regions) > 0 {
		ep.releaseUserRegions(op.regions)
		op.regions = op.regions[:0]
	}
	var err error
	if op.truncated {
		err = ErrTruncate
	}
	op.req.complete(err)
	ep.qosDrain() // one fewer active op; parked transfers may now be admissible
	ep.retireRecv(op)
}

// --- Sender: CTS dispatch ----------------------------------------------------

func (ep *Endpoint) handleCTS(src int, r *ctrlReader) {
	id := r.u32()
	scheme := Scheme(r.u8())
	eff := r.i64()
	op := ep.lookupSendOp(src, id)
	if op == nil && !ep.faultMode() {
		panic(fmt.Sprintf("core rank %d: CTS for unknown op %d", ep.rank, id))
	}
	// A CTS can still arrive for an op this side already aborted (the
	// receiver replied before our failure notice reached it). The data
	// movement is skipped, but per-peer cache state carried by the CTS —
	// the Multi-W layout below — must still be absorbed: the receiver has
	// marked it delivered and will never ship it again. Refs for a dead op
	// parse into endpoint scratch just to advance the reader; a live op
	// parses into its own retained buffers, which must be op-owned because
	// admission may park the data phase while another CTS arrives.
	dead := op == nil || op.failed
	if !dead {
		op.eff = eff
		op.scheme = scheme
		ep.span(schemeName(&handshakeSpanName, scheme), "handshake", op.id, eff, op.tStart)
	}
	switch scheme {
	case SchemeGeneric, SchemeBCSPUP, SchemeRWGUP:
		segSize := r.i64()
		var refs []segRef
		if dead {
			ep.ctsSegScratch = r.segRefsInto(ep.ctsSegScratch[:0])
		} else {
			op.ctsSegs = r.segRefsInto(op.ctsSegs[:0])
			refs = op.ctsSegs
		}
		if r.err != nil {
			panic(r.err)
		}
		if dead {
			return
		}
		ep.admitSend(op, func() { ep.sendStagedData(op, scheme, segSize, refs) })
	case SchemeMultiW:
		rBase := mem.Addr(r.u64())
		rCount := int(r.u64())
		idx := int(r.u32())
		version := r.u32()
		hasLayout := r.u8() != 0
		var rType *datatype.Type
		if hasLayout {
			enc := r.bytes()
			if r.err != nil {
				panic(r.err)
			}
			t, err := datatype.Decode(enc)
			if err != nil {
				panic(err)
			}
			if _, had := ep.layouts.got[layoutKey{src, idx}]; had {
				atomic.AddInt64(&ep.ctr.TypeCacheReplaced, 1)
			}
			ep.layouts.store(src, idx, version, t)
			rType = t
		}
		var rRefs []regRef
		if dead {
			ep.ctsRegScratch = r.regRefsInto(ep.ctsRegScratch[:0])
		} else {
			op.ctsRegs = r.regRefsInto(op.ctsRegs[:0])
			rRefs = op.ctsRegs
		}
		if r.err != nil {
			panic(r.err)
		}
		if dead {
			return
		}
		if rType == nil {
			t, ok := ep.layouts.lookup(src, idx, version)
			if !ok {
				panic(fmt.Sprintf("core rank %d: missing cached layout (%d,%d,v%d)",
					ep.rank, src, idx, version))
			}
			atomic.AddInt64(&ep.ctr.TypeCacheHits, 1)
			rType = t
		}
		ep.admitSend(op, func() { ep.sendMultiWData(op, rBase, rType, rCount, rRefs) })
	case SchemePRRS:
		segSize := r.i64()
		if r.err != nil {
			panic(r.err)
		}
		if dead {
			return
		}
		ep.admitSend(op, func() { ep.sendPRRSData(op, segSize) })
	default:
		panic(fmt.Sprintf("core: CTS with bad scheme %d", scheme))
	}
}

// finishSend completes the send request and releases sender resources; the
// op retires to the free-list once the last pinned continuation drops.
func (ep *Endpoint) finishSend(op *sendOp) {
	if op.failed {
		return // abort teardown owns the resources now
	}
	if !ep.removeSendOp(op) {
		return // already finalized
	}
	ep.span(schemeName(&sendSpanName, op.scheme), "data", op.id, op.eff, op.tStart)
	if len(op.regions) > 0 {
		ep.releaseUserRegions(op.regions)
		op.regions = op.regions[:0]
	}
	op.req.complete(nil)
	ep.qosDrain() // one fewer active op; parked transfers may now be admissible
	ep.retireSend(op)
}

// --- Receiver: segment arrival (RDMA write with immediate) -------------------

func (ep *Endpoint) handleImm(src int, imm uint32, bytes int64) {
	op := ep.lookupRecvOp(src, imm)
	if op == nil {
		if ep.faultMode() {
			return // data landed for an op we already aborted
		}
		panic(fmt.Sprintf("core rank %d: immediate for unknown op %d from %d", ep.rank, imm, src))
	}
	if op.failed {
		return
	}
	op.arrived++
	ep.mark("seg-arrive", "segment", imm)
	switch op.scheme {
	case SchemeMultiW:
		// Single immediate marks the whole zero-copy message landed.
		ep.finishRecv(op)
	case SchemeGeneric, SchemeBCSPUP, SchemeRWGUP:
		ep.stagedArrival(op)
	default:
		panic("core: immediate on unexpected scheme")
	}
}

// stagedArrival advances the staged receive path by one segment.
func (ep *Endpoint) stagedArrival(op *recvOp) {
	if op.direct {
		// Data landed straight in the user buffer; just count.
		if op.arrived == op.nSegs {
			ep.finishRecv(op)
		}
		return
	}
	segmentUnpack := ep.cfg.SegmentUnpack || op.nSegs == 1
	if segmentUnpack {
		k := op.arrived - 1
		ep.unpackSegment(op, k)
		return
	}
	// Segment unpack disabled (Figure 12's comparison case): wait for the
	// whole message, then unpack everything.
	if op.arrived == op.nSegs {
		for k := 0; k < op.nSegs; k++ {
			ep.unpackSegment(op, k)
		}
	}
}

// unpackSegment copies staging segment k into the user buffer, charging copy
// cost, then releases the segment; the last segment completes the receive.
func (ep *Endpoint) unpackSegment(op *recvOp, k int) {
	sr := op.segs[k]
	src := ep.memory.Bytes(sr.seg.addr, sr.bytes)
	st := op.unpacker.Unpack(src)
	n := st.Bytes
	if n != sr.bytes {
		panic("core: segment unpack shortfall")
	}
	atomic.AddInt64(&ep.ctr.BytesUnpacked, n)
	atomic.AddInt64(&ep.ctr.SegmentsPipelined, 1)
	if len(st.Shards) > 1 {
		atomic.AddInt64(&ep.ctr.ParallelUnpacks, 1)
	}
	ep.observeShards(st)
	cost := ep.cfg.parPackCost(ep.model, st)
	t0 := ep.tnow()
	// Pin across the deferred completion: the op can abort (and finalize,
	// with no descriptors outstanding) while this unpack charge is in
	// flight, and the closure must still read this op's state, not a
	// recycled successor's.
	ep.pinRecv(op)
	ep.afterNamed(cost, "unpack", func() {
		defer ep.unpinRecv(op)
		ep.span("unpack", "segment", op.key.op, n, t0)
		if op.failed {
			return // abort teardown released (or will release) the segments
		}
		// Pool slots return to the pool; Generic's dynamic staging buffer is
		// deregistered and freed (releaseSeg dispatches on the segment
		// kind). Segments carved from a whole on-the-fly buffer are views:
		// the backing buffer is released once, at completion.
		if op.wholeSeg == nil {
			ep.releaseSeg(ep.unpackPool, op.segs[k].seg)
			op.segs[k].held = false
		}
		op.finished++
		if op.finished == op.nSegs {
			ep.finishRecv(op)
		}
	})
}
