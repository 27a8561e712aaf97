package core

import (
	"sync/atomic"

	"fmt"

	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/pack"
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
func (ep *Endpoint) chunkWRs(set *wrSet, opc verbs.Opcode, cur datatype.RunWalker, base mem.Addr,
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
		set.wrs = append(set.wrs, verbs.SendWR{Op: opc, SGL: sgl, RemoteAddr: rAddr, RKey: rKey})
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

// postWRs posts descriptors for op, counting them in op.wrsLeft and running
// onAll once the op's whole descriptor population has drained. onAll only
// fires after donePosting(op) sets the allPosted guard, so a fast segment's
// completions can never finish the op while later segments are still being
// posted. Post failures and error completions abort the op instead of
// panicking; transient faults are retried.
func (ep *Endpoint) postWRs(op *sendOp, dst int, wrs []verbs.SendWR, list bool, onAll func()) {
	if onAll != nil {
		op.onWRsDone = onAll
	}
	lane := ep.laneFor(op.eff)
	if !list || len(wrs) <= 1 || ep.faultMode() {
		for i := range wrs {
			wrs[i].Lane = uint8(lane)
			rec := ep.getWR(wrSendData, dst, wrPayload(&wrs[i]))
			rec.sop = op
			op.wrsLeft++
			ep.postSingle(rec, &wrs[i], lane)
		}
		return
	}
	op.wrsLeft += len(wrs)
	for i := range wrs {
		rec := ep.getWR(wrSendData, dst, wrPayload(&wrs[i]))
		rec.sop = op
		wrs[i].WRID, wrs[i].Lane = rec.id(), uint8(lane)
	}
	// Bulk doorbells split at the lane window, not just the adapter limit,
	// so each batch is one window-sized unit for the arbiter. The batch
	// scratch is swapped out for the loop: lane grants can run synchronously
	// and an abort inside one can reenter postWRs (abortSend → qosDrain → a
	// parked transfer), which would otherwise clobber the shared backing
	// mid-iteration.
	scratch := ep.batchScratch
	ep.batchScratch = nil
	batches := chunkBatches(wrs, ep.laneChunkLimit(lane), scratch[:0])
	for _, batch := range batches {
		if ep.lanes == nil {
			// No arbiter: no grant closure, and nobody reads the charge.
			ep.postBatch(op, dst, batch, 0)
			continue
		}
		batch := batch
		var batchBytes int64
		for i := range batch {
			batchBytes += wrPayload(&batch[i])
		}
		ep.submitLane(dst, lane, len(batch), batchBytes, func() { ep.postBatch(op, dst, batch, batchBytes) })
	}
	for i := range batches {
		batches[i] = nil
	}
	ep.batchScratch = batches[:0]
}

// postBatch rings one doorbell for a batch of op's list-posted descriptors
// once the lane arbiter has granted it (at once, with service mode off).
func (ep *Endpoint) postBatch(op *sendOp, dst int, batch []verbs.SendWR, batchBytes int64) {
	err := errOpAborted
	if !op.failed {
		if err = ep.qps[dst].PostSendList(batch); err == nil {
			ep.observeBatch(len(batch))
			return
		}
	}
	// The batch never reached the NIC — the op was aborted while it waited
	// for window room, or the doorbell was rejected (later batches then take
	// the first branch when their grants fire). Its descriptors' records,
	// charge and wrsLeft accounting must still resolve.
	for i := range batch {
		ep.dropWR(batch[i].WRID)
	}
	ep.laneRelease(dst, len(batch), batchBytes)
	if op.failed {
		for range batch {
			ep.sendWRResolved(op, errOpAborted)
		}
		return
	}
	op.wrsLeft -= len(batch)
	ep.abortSend(op, err)
}

// postGroupsChained posts descriptor groups strictly sequentially: group k+1
// starts only after every descriptor of group k — including its immediate —
// has completed. The fault-mode replacement for pipelined group posting:
// retries would otherwise let a later segment's immediate overtake an
// earlier segment's data, breaking the receiver's arrival-order unpack
// indexing. The cost is the pipelining the fault-free path enjoys.
func (ep *Endpoint) postGroupsChained(op *sendOp, groups [][]verbs.SendWR, onAll func()) {
	k := 0
	var next func()
	next = func() {
		if op.failed {
			return
		}
		if k == len(groups) {
			onAll()
			return
		}
		wrs := groups[k]
		k++
		atomic.AddInt64(&ep.ctr.SegmentsPipelined, 1)
		ep.postGroupFenced(op, wrs, next)
	}
	next()
}

// postGroupFenced posts one group's descriptors with retries. When a group
// carries its immediate across several descriptors, the immediate moves to a
// zero-length fence write posted only after every data descriptor completes,
// so a retried descriptor can never let the immediate announce data that has
// not landed. then runs after the whole group (fence included) completes.
func (ep *Endpoint) postGroupFenced(op *sendOp, wrs []verbs.SendWR, then func()) {
	last := len(wrs) - 1
	var fence *verbs.SendWR
	if last > 0 && wrs[last].Op == verbs.OpRDMAWriteImm {
		f := verbs.SendWR{Op: verbs.OpRDMAWriteImm, RemoteAddr: wrs[last].RemoteAddr,
			RKey: wrs[last].RKey, Imm: wrs[last].Imm}
		fence = &f
		wrs[last].Op = verbs.OpRDMAWrite
	}
	dataDone := func() {
		if fence == nil {
			then()
			return
		}
		op.wrsLeft++
		ep.postRetry(op.dst, fence, op, func(err error) {
			if ep.sendWRResolved(op, err) {
				then()
			}
		})
	}
	pending := len(wrs)
	op.wrsLeft += len(wrs)
	resolved := func(err error) {
		if ep.sendWRResolved(op, err) {
			if pending--; pending == 0 {
				dataDone()
			}
		}
	}
	for i := range wrs {
		ep.postRetry(op.dst, &wrs[i], op, resolved)
	}
}

// withUserRegistration ensures the op's user buffer is registered, then runs
// fn. Registration failures abort the op; an op failed during registration
// backoff (a peer abort notice can arrive in the gap) releases the fresh
// registrations instead of leaking them. The op is pinned across the
// registration callback so an abort in the gap cannot recycle it while the
// callback still references its buffers.
func (ep *Endpoint) withUserRegistration(op *sendOp, fn func()) {
	if op.registered {
		fn()
		return
	}
	ep.pinSend(op)
	ep.registerUserMessage(op.buf, op.dt, op.count, op.regions[:0], op.refs[:0],
		func(regions []*mem.Region, refs []regRef, err error) {
			defer ep.unpinSend(op)
			if err != nil {
				ep.abortSend(op, err)
				return
			}
			if op.failed {
				ep.releaseUserRegions(regions)
				return
			}
			op.regions, op.refs = regions, refs
			op.registered = true
			fn()
		})
}

// sendStagedData moves the message into the receiver's staged destinations
// (whole-message staging for Generic, pipelined segments for BC-SPUP, gather
// descriptors for RWG-UP — and gather for any scheme when the send side is
// contiguous, since MVAPICH never stages contiguous data).
func (ep *Endpoint) sendStagedData(op *sendOp, scheme Scheme, segSize int64, refs []segRef) {
	if segSize <= 0 || segSize > op.eff {
		segSize = op.eff
	}
	nSegs := int((op.eff + segSize - 1) / segSize)
	if nSegs != len(refs) {
		panic("core: CTS segment count mismatch")
	}

	if scheme == SchemeRWGUP || op.sContig {
		ep.withUserRegistration(op, func() { ep.sendGatherData(op, segSize, nSegs, refs) })
		return
	}
	if scheme == SchemeGeneric {
		ep.sendGenericData(op, refs)
		return
	}
	ep.sendBCSPUPData(op, segSize, nSegs, refs)
}

// sendGatherData is the RWG-UP data movement: RDMA-write-with-gather straight
// from the user blocks into each unpack segment, the last descriptor of each
// segment carrying the immediate that drives the receiver's segment unpack.
// Descriptor groups for every segment are built before any is posted, so the
// shared completion countdown can never transiently hit zero between
// segments.
func (ep *Endpoint) sendGatherData(op *sendOp, segSize int64, nSegs int, refs []segRef) {
	cur := ep.walkerFor(op.dt, op.count)
	left := op.eff
	groups := op.groups[:0]
	for k := 0; k < nSegs; k++ {
		n := segSize
		if n > left {
			n = left
		}
		left -= n
		wrs, err := ep.chunkWRs(&op.wrs, verbs.OpRDMAWrite, cur, op.buf, op.refs, n, refs[k].addr, refs[k].key)
		if err != nil {
			ep.abortSend(op, err)
			return
		}
		last := len(wrs) - 1
		wrs[last].Op = verbs.OpRDMAWriteImm
		wrs[last].Imm = op.id
		groups = append(groups, wrs)
	}
	op.groups = groups
	if ep.faultMode() {
		ep.postGroupsChained(op, groups, func() { ep.finishSend(op) })
		return
	}
	for _, wrs := range groups {
		atomic.AddInt64(&ep.ctr.SegmentsPipelined, 1)
		ep.postWRs(op, op.dst, wrs, false, func() { ep.finishSend(op) })
	}
	ep.donePosting(op)
}

// sendGenericData is the basic pack/unpack path: allocate the pack buffer,
// pack the whole message, one RDMA write, unpack on the far side — fully
// serialized.
func (ep *Endpoint) sendGenericData(op *sendOp, refs []segRef) {
	ep.pinSend(op)
	ep.acquireStaging(op.eff, func(s seg, err error) {
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
		packer := ep.newParallelPacker(op.buf, op.dt, op.count)
		dst := ep.memory.Bytes(s.addr, op.eff)
		st := packer.Pack(dst)
		if st.Bytes != op.eff {
			panic("core: generic pack shortfall")
		}
		atomic.AddInt64(&ep.ctr.BytesPacked, st.Bytes)
		ep.chargeParPack(st, "pack")
		wrs := op.wrs.one(verbs.OpRDMAWriteImm,
			verbs.SGE{Addr: s.addr, Len: op.eff, Key: s.key},
			refs[0].addr, refs[0].key, op.id)
		ep.postWRs(op, op.dst, wrs, false, func() {
			ep.releaseSeg(ep.packPool, op.staging.seg)
			op.staging = segRes{}
			ep.finishSend(op)
		})
		ep.donePosting(op)
	})
}

// sendBCSPUPData is the buffer-centric segment pack: pack each segment into
// a pre-registered pool slot and write it out; the NIC drains segment k
// while the CPU packs segment k+1. When the pack pool runs dry the sender
// stalls until a slot's send completes (Section 4.3.3). In fault mode,
// segments go out one at a time so retries cannot reorder arrivals.
func (ep *Endpoint) sendBCSPUPData(op *sendOp, segSize int64, nSegs int, refs []segRef) {
	packer := ep.newParallelPacker(op.buf, op.dt, op.count)
	segBytes := func(k int) int64 {
		n := segSize
		if rest := op.eff - int64(k)*segSize; n > rest {
			n = rest
		}
		return n
	}

	if !ep.packPool.enabled {
		// Worst case (Figure 14): one on-the-fly pack buffer of the real data
		// size — the same registration cost Generic pays — carved into
		// segments so the pipeline still runs.
		atomic.AddInt64(&ep.ctr.PoolDisabled, 1)
		ep.pinSend(op)
		ep.acquireStaging(op.eff, func(s seg, err error) {
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
			buildSeg := func(k int) []verbs.SendWR {
				n := segBytes(k)
				addr := s.addr + mem.Addr(int64(k)*segSize)
				st := packer.Pack(ep.memory.Bytes(addr, n))
				if st.Bytes != n {
					panic("core: segment pack shortfall")
				}
				atomic.AddInt64(&ep.ctr.BytesPacked, n)
				atomic.AddInt64(&ep.ctr.SegmentsPipelined, 1)
				ep.chargeParPack(st, "pack")
				return op.wrs.one(verbs.OpRDMAWriteImm,
					verbs.SGE{Addr: addr, Len: n, Key: s.key},
					refs[k].addr, refs[k].key, op.id)
			}
			onAll := func() {
				ep.releaseSeg(ep.packPool, op.staging.seg)
				op.staging = segRes{}
				ep.finishSend(op)
			}
			if ep.faultMode() {
				k := 0
				var next func()
				next = func() {
					if op.failed {
						return
					}
					if k == nSegs {
						onAll()
						return
					}
					w := buildSeg(k)
					k++
					op.wrsLeft++
					ep.postRetry(op.dst, &w[0], op, func(err error) {
						if ep.sendWRResolved(op, err) {
							next()
						}
					})
				}
				next()
				return
			}
			for k := 0; k < nSegs; k++ {
				ep.postWRs(op, op.dst, buildSeg(k), false, onAll)
			}
			ep.donePosting(op)
		})
		return
	}

	if !ep.faultMode() && ep.cfg.postBatchLimit(ep.model) > 1 {
		ep.sendBCSPUPBatched(op, packer, segSize, nSegs, refs)
		return
	}

	k := 0
	var step func()
	step = func() {
		if op.failed || k == nSegs {
			return
		}
		idx := k
		k++
		n := segBytes(idx)
		ep.pinSend(op)
		ep.withSeg(ep.packPool, segSize, func(s seg, err error) {
			defer ep.unpinSend(op)
			if err != nil {
				ep.abortSend(op, err)
				return
			}
			if op.failed {
				ep.releaseSeg(ep.packPool, s)
				return
			}
			dst := ep.memory.Bytes(s.addr, n)
			st := packer.Pack(dst)
			if st.Bytes != n {
				panic("core: segment pack shortfall")
			}
			atomic.AddInt64(&ep.ctr.BytesPacked, n)
			atomic.AddInt64(&ep.ctr.SegmentsPipelined, 1)
			ep.chargeParPack(st, "pack")
			lane := ep.laneFor(op.eff)
			wr := verbs.SendWR{
				Op:         verbs.OpRDMAWriteImm,
				SGL:        op.wrs.sgl1(verbs.SGE{Addr: s.addr, Len: n, Key: s.key}),
				RemoteAddr: refs[idx].addr, RKey: refs[idx].key, Imm: op.id,
				Lane: uint8(lane),
			}
			op.wrsLeft++
			ep.mark("seg-post", "segment", op.id)
			resolve := func(err error) {
				// The slot is released at final resolution either way: on
				// success the data has left it, on abort the descriptor no
				// longer references it.
				ep.releaseSeg(ep.packPool, s)
				ep.mark("seg-complete", "segment", op.id)
				if ep.sendWRResolved(op, err) {
					if ep.faultMode() {
						step()
					}
					if op.allPosted && op.wrsLeft == 0 {
						ep.finishSend(op)
					}
				}
			}
			ep.submitLane(op.dst, lane, 1, n, func() {
				if op.failed {
					ep.laneRelease(op.dst, 1, n)
					resolve(errOpAborted)
					return
				}
				ep.postRetry(op.dst, &wr, op, func(err error) {
					ep.laneRelease(op.dst, 1, n)
					resolve(err)
				})
			})
			if idx == nSegs-1 {
				op.allPosted = true
			}
			if !ep.faultMode() {
				step()
			}
		})
	}
	step()
}

// sendBCSPUPBatched is the doorbell-batched BC-SPUP pipeline: acquire up to
// PostBatch pool slots at once, pack them (each segment one parallel pack
// step), and ring a single doorbell — one PostSendList — for the whole
// batch. The NIC drains batch k while the CPU packs batch k+1, and each
// completion returns its own slot, so a dry pool wakes in slot units rather
// than batch units. Fault mode never reaches this path: retries must not
// reorder segment arrivals, so the serial chained pipeline handles injection
// runs.
func (ep *Endpoint) sendBCSPUPBatched(op *sendOp, packer *pack.ParallelPacker, segSize int64, nSegs int, refs []segRef) {
	c := ep.packPool.classFor(segSize)
	batch := ep.cfg.postBatchLimit(ep.model)
	if max := ep.packPool.slotsFor(c); batch > max {
		batch = max
	}
	if batch < 1 {
		batch = 1
	}
	segBytes := func(k int) int64 {
		n := segSize
		if rest := op.eff - int64(k)*segSize; n > rest {
			n = rest
		}
		return n
	}
	k := 0
	var step func()
	step = func() {
		if op.failed || k == nSegs {
			return
		}
		b := batch
		if rest := nSegs - k; b > rest {
			b = rest
		}
		ep.pinSend(op)
		ep.packPool.whenAvailable(b, c, func() {
			defer ep.unpinSend(op)
			if op.failed {
				return
			}
			start := k
			k += b
			// Descriptors build into the op arena; the seg scratch is safe to
			// reuse per batch because each completion closure captures its
			// slot by value before the next batch is built.
			wrStart := len(op.wrs.wrs)
			segs := op.segScratch[:0]
			for i := 0; i < b; i++ {
				s, ok := ep.packPool.tryAcquire(c)
				if !ok {
					panic("core: pack pool promised slots it does not have")
				}
				segs = append(segs, s)
				idx := start + i
				n := segBytes(idx)
				st := packer.Pack(ep.memory.Bytes(s.addr, n))
				if st.Bytes != n {
					panic("core: segment pack shortfall")
				}
				atomic.AddInt64(&ep.ctr.BytesPacked, n)
				atomic.AddInt64(&ep.ctr.SegmentsPipelined, 1)
				ep.chargeParPack(st, "pack")
				op.wrs.wrs = append(op.wrs.wrs, verbs.SendWR{
					Op:         verbs.OpRDMAWriteImm,
					SGL:        op.wrs.sgl1(verbs.SGE{Addr: s.addr, Len: n, Key: s.key}),
					RemoteAddr: refs[idx].addr, RKey: refs[idx].key, Imm: op.id,
				})
				ep.mark("seg-post", "segment", op.id)
			}
			op.segScratch = segs
			wrs := op.wrs.wrs[wrStart:]
			op.wrsLeft += b
			lane := ep.laneFor(op.eff)
			var batchBytes int64
			for i := range wrs {
				n := wrs[i].SGL[0].Len
				batchBytes += n
				rec := ep.getWR(wrSendSeg, op.dst, n)
				rec.sop, rec.seg = op, segs[i]
				wrs[i].WRID, wrs[i].Lane = rec.id(), uint8(lane)
			}
			// The doorbell itself is one lane unit: bulk batches wait for
			// window room while the packed slots stay charged to this op.
			ep.submitLane(op.dst, lane, b, batchBytes, func() {
				if op.failed {
					// Aborted while waiting for window room: slots and
					// charge return, the descriptors never post.
					for i := range wrs {
						ep.dropWR(wrs[i].WRID)
						ep.releaseSeg(ep.packPool, segs[i])
					}
					ep.laneRelease(op.dst, b, batchBytes)
					op.wrsLeft -= b
					if op.wrsLeft == 0 {
						ep.finalizeSendAbort(op)
					}
					return
				}
				if err := ep.qps[op.dst].PostSendList(wrs); err != nil {
					// The whole doorbell was rejected: nothing reached the
					// NIC, so the batch's slots go straight back.
					for i := range wrs {
						ep.dropWR(wrs[i].WRID)
						ep.releaseSeg(ep.packPool, segs[i])
					}
					ep.laneRelease(op.dst, b, batchBytes)
					op.wrsLeft -= b
					ep.abortSend(op, err)
					return
				}
				ep.observeBatch(len(wrs))
				if k == nSegs {
					op.allPosted = true
				}
				step()
			})
		})
	}
	step()
}

// sendMultiWData implements the Multi-W zero-copy transfer: walk the local
// and remote layouts together, emitting one RDMA write per remote contiguous
// run (gathering across local runs), immediate data on the final descriptor.
func (ep *Endpoint) sendMultiWData(op *sendOp, rBase mem.Addr, rType *datatype.Type, rCount int, rRefs []regRef) {
	ep.withUserRegistration(op, func() {
		sc := ep.walkerFor(op.dt, op.count)
		rc := ep.walkerFor(rType, rCount)
		remaining := op.eff
		// Successive chunkWRs calls append into the same arena, so the flat
		// window over everything built here is just the arena tail.
		wrStart := len(op.wrs.wrs)
		for remaining > 0 {
			rOff, rLen, ok := rc.Next(remaining)
			if !ok {
				ep.abortSend(op, fmt.Errorf("core rank %d: receiver layout smaller than effective size (%d bytes unconsumed)",
					ep.rank, remaining))
				return
			}
			rAddr := mem.Addr(int64(rBase) + rOff)
			i := findRegion(rRefs, rAddr, rLen)
			if i < 0 {
				panic(fmt.Sprintf("core rank %d: no remote region covers [%#x,+%d)", ep.rank, rAddr, rLen))
			}
			if _, err := ep.chunkWRs(&op.wrs, verbs.OpRDMAWrite, sc, op.buf, op.refs, rLen, rAddr, rRefs[i].key); err != nil {
				ep.abortSend(op, err)
				return
			}
			remaining -= rLen
		}
		wrs := op.wrs.wrs[wrStart:]
		last := len(wrs) - 1
		wrs[last].Op = verbs.OpRDMAWriteImm
		wrs[last].Imm = op.id
		ep.chargeTypeProc(len(wrs))
		if ep.faultMode() {
			op.groups = append(op.groups[:0], wrs)
			ep.postGroupsChained(op, op.groups, func() { ep.finishSend(op) })
			return
		}
		ep.postWRs(op, op.dst, wrs, ep.cfg.ListPost, func() { ep.finishSend(op) })
		ep.donePosting(op)
	})
}

// sendPRRSData implements the sender half of Pack with RDMA Read Scatter:
// pack each segment into a pool slot (or, for a contiguous sender, expose
// user-buffer ranges directly) and announce it; the receiver pulls the data
// with scatter reads and finally acknowledges with Done.
func (ep *Endpoint) sendPRRSData(op *sendOp, segSize int64) {
	if segSize <= 0 || segSize > op.eff {
		segSize = op.eff
	}
	nSegs := int((op.eff + segSize - 1) / segSize)

	announce := func(k int, addr mem.Addr, key uint32, n int64) {
		w := ep.ctrlW()
		w.u8(kindSegReady)
		w.u32(op.id)
		w.u64(uint64(addr))
		w.u32(key)
		w.i64(n)
		ep.sendCtrl(op.dst, w.buf)
	}

	if op.sContig {
		// Zero-copy P-RRS: the receiver reads straight from the user buffer.
		ep.withUserRegistration(op, func() {
			base := mem.Addr(int64(op.buf) + op.dt.TrueLB())
			left := op.eff
			for k := 0; k < nSegs; k++ {
				n := segSize
				if n > left {
					n = left
				}
				left -= n
				announce(k, base+mem.Addr(int64(k)*segSize), op.refs[0].key, n)
			}
		})
		return
	}

	// P-RRS pack segments stay occupied until the receiver's Done.
	packer := ep.newParallelPacker(op.buf, op.dt, op.count)
	packSeg := func(k int, s seg) {
		n := segSize
		if rest := op.eff - int64(k)*segSize; n > rest {
			n = rest
		}
		dst := ep.memory.Bytes(s.addr, n)
		st := packer.Pack(dst)
		if st.Bytes != n {
			panic("core: P-RRS pack shortfall")
		}
		atomic.AddInt64(&ep.ctr.BytesPacked, n)
		atomic.AddInt64(&ep.ctr.SegmentsPipelined, 1)
		ep.chargeParPack(st, "pack")
		announce(k, s.addr, s.key, n)
	}
	segC := ep.packPool.classFor(segSize)
	if !ep.packPool.enabled || nSegs > ep.packPool.slotsFor(segC) {
		// Worst case or message larger than the pool: one on-the-fly pack
		// buffer of the real data size, carved into segment views.
		if !ep.packPool.enabled {
			atomic.AddInt64(&ep.ctr.PoolDisabled, 1)
		} else {
			atomic.AddInt64(&ep.ctr.PoolOverflow, 1)
		}
		ep.pinSend(op)
		ep.acquireStaging(op.eff, func(s seg, err error) {
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
			for k := 0; k < nSegs; k++ {
				packSeg(k, seg{addr: s.addr + mem.Addr(int64(k)*segSize), key: s.key})
			}
		})
		return
	}
	// The slots stay held until the receiver's Done, so take the whole
	// message's worth atomically: partial grants across concurrent ops
	// would deadlock with every op stuck one slot short.
	ep.pinSend(op)
	ep.packPool.whenAvailable(nSegs, segC, func() {
		defer ep.unpinSend(op)
		if op.failed {
			return
		}
		for k := 0; k < nSegs; k++ {
			s, ok := ep.packPool.tryAcquire(segC)
			if !ok {
				panic("core: pack pool promised slots it does not have")
			}
			op.segs = append(op.segs, segRes{seg: s, held: true})
			packSeg(k, s)
		}
	})
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
		if ep.faultMode() {
			return // announcement raced an abort
		}
		panic(fmt.Sprintf("core rank %d: SegReady for unknown op %d", ep.rank, id))
	}
	if op.failed {
		return
	}
	wrs, err := ep.chunkWRs(&op.wrs, verbs.OpRDMARead, op.readCur, op.req.buf, op.refs, n, addr, key)
	if err != nil {
		ep.abortRecv(op, err, true)
		return
	}
	atomic.AddInt64(&ep.ctr.SegmentsPipelined, 1)
	lane := ep.laneFor(op.eff)
	for i := range wrs {
		wrs[i].Lane = uint8(lane)
		rec := ep.getWR(wrRecvRead, src, wrPayload(&wrs[i]))
		rec.rop = op
		op.wrsLeft++
		ep.postSingle(rec, &wrs[i], lane)
	}
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
		if ep.faultMode() {
			return // Done raced an abort
		}
		panic(fmt.Sprintf("core rank %d: Done for unknown op %d", ep.rank, id))
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
