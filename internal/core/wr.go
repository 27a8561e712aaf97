package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/qos"
	"repro/internal/verbs"
)

// Completion records (DESIGN.md §16). Every post the endpoint makes with
// something to do at its completion — a descriptor posted on its own, or a
// whole doorbell batch — owns one wrRec from post to final resolution. The
// record is typed — it says what kind of post it stands for and carries that
// kind's operands — so resolving one is a table lookup and a switch, not a
// map probe and a closure call, and the records recycle through the endpoint
// like every other warm-path object. The work-request ID the fabric echoes
// IS the table index (low 32 bits) plus the record's generation (the 31 bits
// above), so a completion finds its record in O(1) and a stale one can never
// be mistaken for a live one. WRID 0 means "no record": control sends, which
// are posted unsignaled and whose completions would carry nothing to do.
//
// A doorbell batch is signaled at its tail only (verbs.SendWR.Unsignaled):
// the connection completes in posting order, so the tail's completion is the
// batch's, and the record settles the whole batch's descriptor count and
// lane charge at once. The members before the tail carry the record's ID
// with the wrMember bit set: a member only ever completes to report its
// failure, and the record keeps that error for the tail to resolve with, so
// an op aborts once and no record is recycled under a completion still in
// flight.

// wrKind says what resolving a post means.
type wrKind uint8

const (
	wrFree wrKind = iota // on the free list
	// wrSendData is a data descriptor of a send op, or a doorbell batch of
	// them: the lane charge returns and the op's descriptor countdown
	// advances (the op drains at zero).
	wrSendData
	// wrSendSeg is a segment write of the doorbell-batched BC-SPUP pipeline:
	// as wrSendData, and the pack-pool slot it read from returns; the op
	// finishes at zero.
	wrSendSeg
	// wrSendSegStep is a segment write of the per-segment BC-SPUP pipeline,
	// posted on its own: as wrSendSeg, and in fault mode its resolution is
	// what starts the next segment.
	wrSendSegStep
	// wrRecvRead is a P-RRS scatter read of a receive op.
	wrRecvRead
	// wrCall runs done(err): RMA posts (a descriptor, or a doorbell batch)
	// and the fault-mode chained pipelines, whose continuations are per
	// segment, not per descriptor.
	wrCall
)

// wrRec is one post's completion record.
type wrRec struct {
	ep   *Endpoint
	slot uint32
	gen  uint32
	kind wrKind

	peer  int
	n     int   // descriptors the record settles: 1, or a batch's length
	bytes int64 // their gather-list bytes: the lane charge to return
	sop   *sendOp
	rop   *recvOp
	seg   seg
	done  func(error)

	// Single posts keep their descriptor here: the lane arbiter may grant
	// it later, and transient faults re-post it. try (bound once per record
	// as tryFn) is that grant and that retry timer — and a batch's grant.
	single  bool
	wr      verbs.SendWR
	attempt int
	tryFn   func()

	// A doorbell batch keeps its descriptor window until the doorbell rings,
	// and the first error one of its unsignaled members completed with until
	// its tail's completion resolves the record.
	batch []verbs.SendWR
	err   error
}

// wrMember marks the work-request ID of a batch's unsignaled member.
const wrMember = 1 << 63

// id is the work-request ID that leads a completion back to this record.
func (rec *wrRec) id() uint64 { return (uint64(rec.gen)<<32 | uint64(rec.slot)) &^ wrMember }

// getWR takes a completion record for one descriptor of the given kind
// headed to peer.
func (ep *Endpoint) getWR(kind wrKind, peer int, bytes int64) *wrRec {
	var rec *wrRec
	if n := len(ep.wrFree); n > 0 {
		rec = ep.wrFree[n-1]
		ep.wrFree = ep.wrFree[:n-1]
	} else {
		if len(ep.wrTab) == 0 {
			ep.wrTab = append(ep.wrTab, nil) // slot 0 is "no record"
		}
		rec = &wrRec{ep: ep, slot: uint32(len(ep.wrTab))}
		rec.tryFn = rec.try
		ep.wrTab = append(ep.wrTab, rec)
	}
	rec.gen++
	rec.kind, rec.peer, rec.n, rec.bytes = kind, peer, 1, bytes
	return rec
}

// getBatchWR takes the one completion record of a doorbell batch and seals
// the batch as its unit: every descriptor on the given lane, only the tail
// signaled.
func (ep *Endpoint) getBatchWR(kind wrKind, peer int, batch []verbs.SendWR, lane qos.Lane) *wrRec {
	rec := ep.getWR(kind, peer, 0)
	rec.n, rec.batch = len(batch), batch
	id := rec.id()
	for i := range batch {
		wr := &batch[i]
		rec.bytes += wrPayload(wr)
		wr.WRID, wr.Lane, wr.Unsignaled = id|wrMember, uint8(lane), true
	}
	tail := &batch[len(batch)-1]
	tail.WRID, tail.Unsignaled = id, false
	return rec
}

// lookupWR returns the live record a completion's WRID names, or nil for
// WRID 0.
func (ep *Endpoint) lookupWR(wrid uint64) *wrRec {
	wrid &^= wrMember
	if wrid == 0 {
		return nil
	}
	slot := uint32(wrid)
	if int(slot) >= len(ep.wrTab) || ep.wrTab[slot].kind == wrFree || ep.wrTab[slot].id() != wrid {
		panic(fmt.Sprintf("core rank %d: completion for stale work request %#x", ep.rank, wrid))
	}
	return ep.wrTab[slot]
}

// putWR recycles a record; its old WRID is dead from here on.
func (ep *Endpoint) putWR(rec *wrRec) {
	*rec = wrRec{ep: ep, slot: rec.slot, gen: rec.gen, tryFn: rec.tryFn}
	ep.wrFree = append(ep.wrFree, rec)
}

// wrLive counts the completion records out with posted descriptors; zero
// when the endpoint is quiet.
func (ep *Endpoint) wrLive() int { return max(len(ep.wrTab)-1, 0) - len(ep.wrFree) }

// dropWR recycles the record of a descriptor that never reached the NIC;
// the caller settles its accounting.
func (ep *Endpoint) dropWR(wrid uint64) { ep.putWR(ep.lookupWR(wrid)) }

// cancelled reports whether the record's op has failed, so an abandoned
// descriptor stops re-posting into memory that is about to be released.
func (rec *wrRec) cancelled() bool {
	return (rec.sop != nil && rec.sop.failed) || (rec.rop != nil && rec.rop.failed)
}

// postSingle posts the record's descriptor on its own — through the lane
// arbiter when service mode is on — retrying transient faults (post
// failures and error completions) with bounded backoff. The record resolves
// exactly once: with nil after a successful completion, or with the final
// error.
func (ep *Endpoint) postSingle(rec *wrRec, wr *verbs.SendWR, lane qos.Lane) {
	rec.single, rec.wr = true, *wr
	if ep.lanes == nil || ep.faultMode() {
		rec.try()
		return
	}
	ep.submitLane(rec.peer, lane, 1, rec.bytes, rec.tryFn)
}

// postBatch rings the doorbell of the record's batch — once the lane arbiter
// has granted it, with service mode on. A batch that never reaches the NIC
// (its op was aborted while it waited for window room, or the doorbell was
// rejected) resolves here instead, with its whole count and charge.
func (ep *Endpoint) postBatch(rec *wrRec) {
	err := errOpAborted
	if !rec.cancelled() {
		if err = ep.qps[rec.peer].PostSendList(rec.batch); err == nil {
			ep.observeBatch(rec.n)
			return
		}
	}
	ep.resolveWR(rec, err)
}

// try is one posting attempt of a single descriptor, each with a fresh WRID,
// or a batch's lane grant.
func (rec *wrRec) try() {
	ep := rec.ep
	if rec.batch != nil {
		ep.postBatch(rec)
		return
	}
	if rec.cancelled() {
		ep.resolveWR(rec, errOpAborted)
		return
	}
	rec.gen++
	rec.wr.WRID = rec.id()
	if err := ep.qps[rec.peer].PostSend(rec.wr); err != nil && !ep.retryWR(rec, err) {
		ep.resolveWR(rec, err)
	}
}

// retryWR schedules another attempt after a transient fault and reports
// whether it did.
func (ep *Endpoint) retryWR(rec *wrRec, err error) bool {
	if !fault.IsTransient(err) || rec.attempt >= ep.cfg.FaultRetryLimit || rec.cancelled() {
		return false
	}
	rec.attempt++
	atomic.AddInt64(&ep.ctr.FaultRetries, 1)
	ep.eng.Schedule(ep.cfg.retryBackoff(rec.attempt), rec.tryFn)
	return true
}

// postRetry posts one descriptor whose resolution is a plain continuation:
// done runs exactly once, with nil or the final error. op, when not nil, is
// the send op whose failure abandons the descriptor.
func (ep *Endpoint) postRetry(dst int, wr *verbs.SendWR, op *sendOp, done func(error)) {
	rec := ep.getWR(wrCall, dst, 0)
	rec.sop, rec.done = op, done
	rec.single, rec.wr = true, *wr
	rec.try()
}

func (ep *Endpoint) handleSendCQE(e verbs.CQE) {
	rec := ep.lookupWR(e.WRID)
	if rec == nil {
		if e.Err != nil {
			panic(fmt.Sprintf("core rank %d: unhandled send error: %v", ep.rank, e.Err))
		}
		return
	}
	if e.WRID&wrMember != 0 {
		// An unsignaled member of a batch completes only to report its
		// failure; the batch's tail is still in flight behind it.
		if rec.err == nil {
			rec.err = e.Err
		}
		return
	}
	if e.Err != nil && rec.single && ep.retryWR(rec, e.Err) {
		return
	}
	ep.resolveWR(rec, e.Err)
}

// resolveWR is a post's final resolution — completed, failed past retry, or
// abandoned: the record recycles, then its kind's continuation runs. A batch
// resolves with the first error any of its descriptors reported.
func (ep *Endpoint) resolveWR(rec *wrRec, err error) {
	if rec.err != nil {
		err = rec.err
	}
	kind, peer, n, bytes, sop, rop, sg, done := rec.kind, rec.peer, rec.n, rec.bytes, rec.sop, rec.rop, rec.seg, rec.done
	ep.putWR(rec)
	switch kind {
	case wrSendData:
		ep.laneRelease(peer, n, bytes)
		if ep.sendWRResolved(sop, n, err) {
			ep.advanceSend(sop)
		}
	case wrSendSeg:
		// The slot is released at resolution either way: on success the
		// data has left it, on abort the descriptor no longer references it.
		ep.releaseSeg(ep.packPool, sg)
		ep.laneRelease(peer, 1, bytes)
		ep.mark("seg-complete", "segment", sop.id)
		if ep.sendWRResolved(sop, 1, err) && sop.allPosted && sop.wrsLeft == 0 {
			ep.finishSend(sop)
		}
	case wrSendSegStep:
		ep.laneRelease(peer, 1, bytes)
		ep.releaseSeg(ep.packPool, sg)
		ep.mark("seg-complete", "segment", sop.id)
		if ep.sendWRResolved(sop, 1, err) {
			if ep.faultMode() {
				ep.packStep(sop)
			}
			if sop.allPosted && sop.wrsLeft == 0 {
				ep.finishSend(sop)
			}
		}
	case wrRecvRead:
		ep.laneRelease(peer, 1, bytes)
		if ep.recvWRResolved(rop, err) {
			rop.bytesRead += bytes
			if rop.bytesRead == rop.eff {
				w := ep.ctrlW()
				w.u8(kindDone)
				w.u32(rop.key.op)
				ep.sendCtrl(peer, w.buf)
				ep.finishRecv(rop)
			}
		}
	case wrCall:
		done(err)
	}
}
