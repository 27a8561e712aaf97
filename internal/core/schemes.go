package core

import (
	"sync/atomic"

	"fmt"

	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/verbs"
)

// chunkWRs consumes want bytes from a message cursor and builds RDMA
// descriptors (writes or reads) against consecutive remote memory starting
// at rAddr, appending them into the op-owned arena set and returning the
// window of descriptors this call added. The local side is the
// scatter/gather list (keys resolved from localRefs); descriptors split at
// the adapter's SGE limit, each sealed as a three-index sub-slice of the
// arena's SGE store so later appends can never grow into it. When the arena
// backing grows, earlier windows keep pointing at the old backing array —
// those values are never mutated again, so in-flight descriptors stay
// valid. A cursor that runs out before want bytes are consumed is a
// layout/size mismatch and is reported as an error rather than silently
// truncating the transfer.
func (ep *Endpoint) chunkWRs(set *wrSet, opc verbs.Opcode, cur *datatype.ProgCursor, base mem.Addr,
	localRefs []regRef, want int64, rAddr mem.Addr, rKey uint32) ([]verbs.SendWR, error) {

	maxSGE := ep.model.MaxSGE
	wrStart := len(set.wrs)
	sgeStart := len(set.sge)
	var sglBytes int64
	flush := func() {
		if len(set.sge) == sgeStart {
			return
		}
		sgl := set.sge[sgeStart:len(set.sge):len(set.sge)]
		w := set.next()
		w.Op, w.SGL, w.RemoteAddr, w.RKey = opc, sgl, rAddr, rKey
		rAddr += mem.Addr(sglBytes)
		sgeStart = len(set.sge)
		sglBytes = 0
	}
	for want > 0 {
		off, n, ok := cur.Next(want)
		if !ok {
			return nil, fmt.Errorf("core rank %d: layout exhausted with %d bytes unconsumed (layout/size mismatch)",
				ep.rank, want)
		}
		addr := mem.Addr(int64(base) + off)
		i := findRegion(localRefs, addr, n)
		if i < 0 {
			panic(fmt.Sprintf("core rank %d: no region covers [%#x,+%d)", ep.rank, addr, n))
		}
		set.sge = append(set.sge, verbs.SGE{Addr: addr, Len: n, Key: localRefs[i].key})
		sglBytes += n
		want -= n
		if len(set.sge)-sgeStart == maxSGE {
			flush()
		}
	}
	flush()
	return set.wrs[wrStart:], nil
}

// dualWRs walks a local and a remote layout together over want bytes and
// builds the descriptors of a zero-copy transfer between them: one RDMA
// write or read per remote contiguous run — more where the local runs it
// gathers from (scatters to) pass the SGE limit — its key resolved from
// rRefs. Multi-W walks the receiver's registered regions, RMA its target
// window as a one-element list. Successive chunkWRs calls append into the
// same arena, so the window over everything built here is the arena's tail.
func (ep *Endpoint) dualWRs(set *wrSet, opc verbs.Opcode, cur *datatype.ProgCursor, base mem.Addr, refs []regRef,
	rcur *datatype.ProgCursor, rBase mem.Addr, rRefs []regRef, want int64) ([]verbs.SendWR, error) {

	wrStart := len(set.wrs)
	for want > 0 {
		rOff, rLen, ok := rcur.Next(want)
		if !ok {
			return nil, fmt.Errorf("core rank %d: remote layout exhausted with %d bytes unconsumed (layout/size mismatch)",
				ep.rank, want)
		}
		rAddr := mem.Addr(int64(rBase) + rOff)
		i := findRegion(rRefs, rAddr, rLen)
		if i < 0 {
			panic(fmt.Sprintf("core rank %d: no remote region covers [%#x,+%d)", ep.rank, rAddr, rLen))
		}
		if _, err := ep.chunkWRs(set, opc, cur, base, refs, rLen, rAddr, rRefs[i].key); err != nil {
			return nil, err
		}
		want -= rLen
	}
	return set.wrs[wrStart:], nil
}

// chunkBatches splits a descriptor list at the adapter's per-doorbell batch
// limit, appending the batch windows to out (reusing its capacity). The
// limit is distinct from MaxSGE — MaxSGE bounds one descriptor's gather
// list, the batch limit bounds how many descriptors one PostSendList call
// (one doorbell) may carry. limit <= 0 means unlimited.
func chunkBatches(wrs []verbs.SendWR, limit int, out [][]verbs.SendWR) [][]verbs.SendWR {
	if limit <= 0 || len(wrs) <= limit {
		return append(out, wrs)
	}
	for len(wrs) > limit {
		out = append(out, wrs[:limit])
		wrs = wrs[limit:]
	}
	return append(out, wrs)
}

// postWRs posts descriptors for op, counting them in op.wrsLeft and arming
// the op's drain: once the whole descriptor population has drained the op
// gives back its staging buffer, if it packed into one, and finishes
// (sendDrained). The drain only fires after donePosting(op) sets the
// allPosted guard, so a fast segment's completions can never finish the op
// while later segments are still being posted. Post failures and error
// completions abort the op instead of panicking; transient faults are
// retried by the records (wr.go).
func (ep *Endpoint) postWRs(op *sendOp, dst int, wrs []verbs.SendWR, list bool) {
	op.drainArmed = true
	if !list || len(wrs) <= 1 {
		for i := range wrs {
			rec := ep.getWR(wrSendData, dst)
			rec.sop = op
			op.wrsLeft++
			ep.postSingle(rec, &wrs[i])
		}
		return
	}
	op.wrsLeft += len(wrs)
	// Each doorbell batch is one completion record. The batch scratch is
	// swapped out for the loop: release posts synchronously, and a post
	// refused for good aborts the op, whose gate drain can resume a parked
	// transfer that reenters postWRs (abortSend → qosDrain → admitted), which
	// would otherwise clobber the shared backing mid-iteration.
	scratch := ep.batchScratch
	ep.batchScratch = nil
	batches := chunkBatches(wrs, ep.chunkLimit, scratch[:0])
	for _, batch := range batches {
		rec := ep.getBatchWR(wrSendData, dst, batch)
		rec.sop = op
		ep.release(rec)
	}
	for i := range batches {
		batches[i] = nil
	}
	ep.batchScratch = batches[:0]
}

// sendDrained is where a send op whose descriptors have all been posted and
// have all completed ends: the staging buffer it packed into (Generic, and
// BC-SPUP without a pool) goes back, and the op finishes.
func (ep *Endpoint) sendDrained(op *sendOp) {
	if op.staging.held {
		ep.releaseSeg(ep.packPool, op.staging.seg)
		op.staging = segRes{}
	}
	ep.finishSend(op)
}

// withUserRegistration ensures the op's user buffer is registered, then
// resumes the op at op.next (sendRegistered). The op is pinned across the
// walk; regDone aborts it when registration fails.
func (ep *Endpoint) withUserRegistration(op *sendOp) {
	if op.reg.held {
		ep.sendRegistered(op)
		return
	}
	ep.pinSend(op)
	op.reg.start(op.buf, op.dt, op.count)
}

// sendRegistered runs the data-phase step that was waiting for the user
// buffer's registration.
func (ep *Endpoint) sendRegistered(op *sendOp) {
	switch op.next {
	case stepGather:
		ep.sendGatherData(op)
	case stepMultiW:
		ep.sendMultiWData(op)
	case stepPRRSContig:
		// Zero-copy P-RRS: the receiver reads straight from the user buffer.
		base := mem.Addr(int64(op.buf) + op.dt.TrueLB())
		for k := 0; k < op.nSegs; k++ {
			ep.announceSeg(op, base+mem.Addr(int64(k)*op.segSize), op.reg.refs[0].key,
				segBytes(op.eff, op.segSize, k))
		}
	default:
		panic("core: send op registered with nothing to do next")
	}
}

// sendStagedData moves the message into the receiver's staged destinations
// (whole-message staging for Generic, pipelined segments for BC-SPUP, gather
// descriptors for RWG-UP — and gather for any scheme when the send side is
// contiguous, since MVAPICH never stages contiguous data).
func (ep *Endpoint) sendStagedData(op *sendOp) {
	if op.segSize <= 0 || op.segSize > op.eff {
		op.segSize = op.eff
	}
	op.nSegs = int((op.eff + op.segSize - 1) / op.segSize)
	if op.nSegs != len(op.ctsSegs) {
		panic("core: CTS segment count mismatch")
	}

	if op.scheme == SchemeRWGUP || op.sContig {
		op.next = stepGather
		ep.withUserRegistration(op)
		return
	}
	if op.scheme == SchemeGeneric {
		// The basic pack/unpack path: allocate the pack buffer, pack the
		// whole message, one RDMA write, unpack on the far side — fully
		// serialized.
		op.next = stepGenericData
		ep.pinSend(op)
		op.stage.start(op.eff)
		return
	}
	ep.sendBCSPUPData(op)
}

// sendGatherData is the RWG-UP data movement: RDMA-write-with-gather straight
// from the user blocks into each unpack segment, the last descriptor of each
// segment carrying the immediate that drives the receiver's segment unpack.
// (The shared completion countdown may touch zero between segments: the op
// drains only after donePosting.)
func (ep *Endpoint) sendGatherData(op *sendOp) {
	op.cur.ResetTo(op.dt, op.count)
	refs := op.ctsSegs
	for k := 0; k < op.nSegs; k++ {
		wrs, err := ep.chunkWRs(&op.wrs, verbs.OpRDMAWrite, &op.cur, op.buf, op.reg.refs,
			segBytes(op.eff, op.segSize, k), refs[k].addr, refs[k].key)
		if err != nil {
			ep.abortSend(op, err)
			return
		}
		last := len(wrs) - 1
		wrs[last].Op = verbs.OpRDMAWriteImm
		wrs[last].Imm = op.id
		atomic.AddInt64(&ep.ctr.SegmentsPipelined, 1)
		ep.postWRs(op, op.dst, wrs, false)
	}
	ep.donePosting(op)
}

// stageDone runs when the dynamic pack buffer the op asked for is ready (or
// could not be had): Generic packs the whole message into it, BC-SPUP
// without a pool and P-RRS past the pool carve their segments out of it.
func (op *sendOp) stageDone(s seg, err error) {
	ep := op.ep
	guardSend(op)
	defer ep.unpinSend(op)
	if err != nil {
		ep.abortSend(op, err)
		return
	}
	if op.failed {
		ep.releaseSeg(ep.packPool, s)
		return
	}
	op.staging = segRes{seg: s, bytes: op.eff, held: true}
	switch op.next {
	case stepGenericData:
		op.packer.Bind(ep.memory, op.buf, op.dt, op.count)
		st := op.packer.Pack(ep.memory.Bytes(s.addr, op.eff))
		if st.Bytes != op.eff {
			panic("core: generic pack shortfall")
		}
		atomic.AddInt64(&ep.ctr.BytesPacked, st.Bytes)
		ep.chargeParPack(st, "pack")
		wrs := op.wrs.one(verbs.OpRDMAWriteImm,
			verbs.SGE{Addr: s.addr, Len: op.eff, Key: s.key},
			op.ctsSegs[0].addr, op.ctsSegs[0].key, op.id)
		ep.postWRs(op, op.dst, wrs, false)
		ep.donePosting(op)

	case stepBCStaged:
		for k := 0; k < op.nSegs; k++ {
			ep.postWRs(op, op.dst, ep.packStagedSeg(op, k), false)
		}
		ep.donePosting(op)

	case stepPRRSStaged:
		for k := 0; k < op.nSegs; k++ {
			ep.packAndAnnounce(op, k, seg{addr: s.addr + mem.Addr(int64(k)*op.segSize), key: s.key})
		}

	default:
		panic("core: send op got a staging buffer with nothing to do next")
	}
}

// packSeg packs the next n bytes of the op's message into the staging memory
// at addr — one segment of a pipelined scheme — and counts and charges the
// step. The packer is bound to the whole message, so a shortfall is a
// layout/size mismatch the handshake should have caught.
func (ep *Endpoint) packSeg(op *sendOp, addr mem.Addr, n int64) {
	st := op.packer.Pack(ep.memory.Bytes(addr, n))
	if st.Bytes != n {
		panic("core: segment pack shortfall")
	}
	atomic.AddInt64(&ep.ctr.BytesPacked, n)
	atomic.AddInt64(&ep.ctr.SegmentsPipelined, 1)
	ep.chargeParPack(st, "pack")
}

// packStagedSeg packs segment k into its piece of the op's one on-the-fly
// staging buffer and builds the write that carries it.
func (ep *Endpoint) packStagedSeg(op *sendOp, k int) []verbs.SendWR {
	s := op.staging.seg
	n := segBytes(op.eff, op.segSize, k)
	addr := s.addr + mem.Addr(int64(k)*op.segSize)
	ep.packSeg(op, addr, n)
	return op.wrs.one(verbs.OpRDMAWriteImm,
		verbs.SGE{Addr: addr, Len: n, Key: s.key},
		op.ctsSegs[k].addr, op.ctsSegs[k].key, op.id)
}

// sendBCSPUPData is the buffer-centric segment pack: pack each segment into
// a pre-registered pool slot and write it out; the NIC drains segment k
// while the CPU packs segment k+1. When the pack pool runs dry the sender
// stalls until a slot's send completes (Section 4.3.3).
func (ep *Endpoint) sendBCSPUPData(op *sendOp) {
	op.packer.Bind(ep.memory, op.buf, op.dt, op.count)

	if !ep.packPool.enabled {
		// Worst case (Figure 14): one on-the-fly pack buffer of the real data
		// size — the same registration cost Generic pays — carved into
		// segments so the pipeline still runs.
		atomic.AddInt64(&ep.ctr.PoolDisabled, 1)
		op.next = stepBCStaged
		ep.pinSend(op)
		op.stage.start(op.eff)
		return
	}

	op.k = 0
	op.next = stepBCPool
	ep.packStep(op)
}

// packStep asks the pack pool for the slot of the op's next segment, unless
// the op is done or dead; poolReady takes it from there.
func (ep *Endpoint) packStep(op *sendOp) {
	if op.failed || op.k == op.nSegs {
		return
	}
	ep.pinSend(op)
	ep.packPool.whenAvailable(1, op.poolReadyFn)
}

// poolReady runs when the pack pool can serve what the op asked it for.
func (op *sendOp) poolReady() {
	ep := op.ep
	guardSend(op)
	defer ep.unpinSend(op)
	switch op.next {
	case stepBCPool:
		ep.packOneSeg(op)
	case stepPRRSPool:
		if op.failed {
			return
		}
		for k := 0; k < op.nSegs; k++ {
			s, ok := ep.packPool.tryAcquire()
			if !ok {
				panic("core: pack pool promised slots it does not have")
			}
			op.segs = append(op.segs, segRes{seg: s, held: true})
			ep.packAndAnnounce(op, k, s)
		}
	default:
		panic("core: send op got pool slots with nothing to do next")
	}
}

// packOneSeg is one step of the BC-SPUP pipeline: take the slot,
// pack the next segment into it and post its write, whose completion record
// returns the slot, while the next step packs the next segment.
func (ep *Endpoint) packOneSeg(op *sendOp) {
	s, ok := ep.packPool.tryAcquire()
	if !ok {
		panic("core: pool promised a slot it does not have")
	}
	if op.failed {
		ep.releaseSeg(ep.packPool, s)
		return
	}
	idx := op.k
	op.k++
	n := segBytes(op.eff, op.segSize, idx)
	ep.packSeg(op, s.addr, n)
	wr := verbs.SendWR{
		Op:         verbs.OpRDMAWriteImm,
		SGL:        op.wrs.sgl1(verbs.SGE{Addr: s.addr, Len: n, Key: s.key}),
		RemoteAddr: op.ctsSegs[idx].addr, RKey: op.ctsSegs[idx].key, Imm: op.id,
	}
	op.wrsLeft++
	ep.mark("seg-post", "segment", op.id)
	rec := ep.getWR(wrSendSeg, op.dst)
	rec.sop, rec.seg = op, s
	ep.postSingle(rec, &wr)
	if idx == op.nSegs-1 {
		op.allPosted = true
	}
	ep.packStep(op)
}

// sendMultiWData implements the Multi-W zero-copy transfer: walk the local
// and remote layouts together (dualWRs), immediate data on the final
// descriptor. The window is built into a plan (plan.go) if one is idle; the
// next message with its key and registrations posts it as it is, only the
// immediate rewritten, and one sent while it is in flight builds its own.
func (ep *Endpoint) sendMultiWData(op *sendOp) {
	k := planKey{op.dst, op.dt, &op.rLayout.t, op.count, op.rCount, op.buf, op.rBase, op.eff}
	pl, wrs := ep.plans.plan(k, op)
	if op.plan = pl; wrs != nil {
		checkPlan(ep, op)
	} else {
		set := &op.wrs
		if pl != nil { // its old window is recycled
			if set, pl.key = &pl.set, (planKey{}); !poisonWindow(set) {
				set.reset()
			}
		}
		ep.plans.duals++
		op.cur.ResetTo(k.lt, k.lcount)
		op.rcur.ResetTo(k.rt, k.rcount)
		var err error
		if wrs, err = ep.dualWRs(set, verbs.OpRDMAWrite, &op.cur, op.buf, op.reg.refs,
			&op.rcur, op.rBase, op.ctsRegs, op.eff); err != nil {
			ep.abortSend(op, err)
			return
		}
		wrs[len(wrs)-1].Op = verbs.OpRDMAWriteImm
		if pl != nil {
			pl.key, pl.sRefs, pl.rRefs = k, append(pl.sRefs[:0], op.reg.refs...), append(pl.rRefs[:0], op.ctsRegs...)
		}
	}
	wrs[len(wrs)-1].Imm = op.id
	ep.chargeTypeProc(len(wrs))
	ep.postWRs(op, op.dst, wrs, ep.cfg.ListPost)
	ep.donePosting(op)
}

// sendPRRSData implements the sender half of Pack with RDMA Read Scatter:
// pack each segment into a pool slot (or, for a contiguous sender, expose
// user-buffer ranges directly) and announce it; the receiver pulls the data
// with scatter reads and finally acknowledges with Done.
func (ep *Endpoint) sendPRRSData(op *sendOp) {
	if op.segSize <= 0 || op.segSize > op.eff {
		op.segSize = op.eff
	}
	op.nSegs = int((op.eff + op.segSize - 1) / op.segSize)

	if op.sContig {
		op.next = stepPRRSContig
		ep.withUserRegistration(op)
		return
	}

	// P-RRS pack segments stay occupied until the receiver's Done.
	op.packer.Bind(ep.memory, op.buf, op.dt, op.count)
	if !ep.packPool.enabled || op.nSegs > ep.packPool.totalSlots() {
		// Worst case or message larger than the pool: one on-the-fly pack
		// buffer of the real data size, carved into segment views.
		if !ep.packPool.enabled {
			atomic.AddInt64(&ep.ctr.PoolDisabled, 1)
		} else {
			atomic.AddInt64(&ep.ctr.PoolOverflow, 1)
		}
		op.next = stepPRRSStaged
		ep.pinSend(op)
		op.stage.start(op.eff)
		return
	}
	// The slots stay held until the receiver's Done, so take the whole
	// message's worth atomically: partial grants across concurrent ops
	// would deadlock with every op stuck one slot short.
	op.next = stepPRRSPool
	ep.pinSend(op)
	ep.packPool.whenAvailable(op.nSegs, op.poolReadyFn)
}

// announceSeg tells the P-RRS receiver that n bytes of the message are
// readable at (addr, key).
func (ep *Endpoint) announceSeg(op *sendOp, addr mem.Addr, key uint32, n int64) {
	w := ep.ctrlW()
	w.u8(kindSegReady)
	w.u32(op.id)
	w.u64(uint64(addr))
	w.u32(key)
	w.i64(n)
	ep.sendCtrl(op.dst, w.buf)
}

// packAndAnnounce packs P-RRS segment k into s and announces it.
func (ep *Endpoint) packAndAnnounce(op *sendOp, k int, s seg) {
	n := segBytes(op.eff, op.segSize, k)
	ep.packSeg(op, s.addr, n)
	ep.announceSeg(op, s.addr, s.key, n)
}

// handleSegReady is the receiver half of P-RRS: scatter-read the announced
// segment into the user blocks. Reads retry independently — each scatters to
// a fixed address range, so completion order does not matter.
func (ep *Endpoint) handleSegReady(src int, r *ctrlReader) {
	id := r.u32()
	addr := mem.Addr(r.u64())
	key := r.u32()
	n := r.i64()
	if r.err != nil {
		panic(r.err)
	}
	op := ep.lookupRecvOp(src, id)
	if op == nil {
		ep.strayFrame("SegReady", src, id) // the announcement raced an abort
		return
	}
	if op.failed {
		return
	}
	wrs, err := ep.chunkWRs(&op.wrs, verbs.OpRDMARead, &op.cur, op.req.buf, op.reg.refs, n, addr, key)
	if err != nil {
		ep.abortRecv(op, err, true)
		return
	}
	atomic.AddInt64(&ep.ctr.SegmentsPipelined, 1)
	for i := range wrs {
		rec := ep.getWR(wrRecvRead, src)
		rec.rop, rec.bytes = op, wrPayload(&wrs[i])
		op.wrsLeft++
		ep.postSingle(rec, &wrs[i])
	}
}

// wrPayload sums a descriptor's scatter-list bytes: what a P-RRS read adds
// to its op's count of bytes read.
func wrPayload(wr *verbs.SendWR) int64 {
	var n int64
	for _, s := range wr.SGL {
		n += s.Len
	}
	return n
}

// handleDone is the sender half of P-RRS teardown: the receiver has read
// everything, so staging slots (or user registrations) can be released.
func (ep *Endpoint) handleDone(src int, r *ctrlReader) {
	id := r.u32()
	if r.err != nil {
		panic(r.err)
	}
	op := ep.lookupSendOp(src, id)
	if op == nil {
		ep.strayFrame("Done", src, id) // the Done raced an abort
		return
	}
	if op.failed {
		return
	}
	for i := range op.segs {
		if op.segs[i].held {
			ep.releaseSeg(ep.packPool, op.segs[i].seg)
			op.segs[i].held = false
		}
	}
	op.segs = op.segs[:0]
	if op.staging.held {
		ep.releaseSeg(ep.packPool, op.staging.seg)
		op.staging = segRes{}
	}
	ep.finishSend(op)
}
