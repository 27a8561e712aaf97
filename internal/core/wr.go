package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/simtime"
	"repro/internal/verbs"
)

// Completion records (DESIGN.md §16). Every post the endpoint makes with
// something to do at its completion — a descriptor posted on its own, or a
// whole doorbell batch — owns one wrRec from post to final resolution. The
// record is typed — it says what kind of post it stands for and carries that
// kind's operands — so resolving one is a table lookup and a switch, not a
// map probe and a closure call, and the records recycle through the endpoint
// like every other warm-path object. The work-request ID the fabric echoes
// IS the table index (low 32 bits), the record's generation (the 16 bits
// above) and the descriptor's place in its post (the 16 bits above those), so
// a completion finds its record in O(1), a stale one can never be mistaken
// for a live one, and an error completion says which descriptor did not
// land. WRID 0 means "no record": control sends, which are posted unsignaled
// and whose completions would carry nothing to do.
//
// A doorbell batch is signaled at its tail only (verbs.SendWR.Unsignaled):
// the connection completes in posting order, failures included, so the
// tail's completion is the batch's, and the record settles the whole batch's
// descriptor count at once. A member ahead of the tail only
// ever completes to report its failure, and the record keeps that error —
// and the member — for the tail to resolve or re-ring with, so an op aborts
// once and no record is recycled under a completion still in flight.
//
// The records are also the one posting path (DESIGN.md §7): release → try →
// fabric → handleSendCQE → retry or resolveWR, for every scheme and for RMA,
// with or without a fault injector attached.

// wrKind says what resolving a post means.
type wrKind uint8

const (
	wrFree wrKind = iota // on the free list
	// wrSendData is a data descriptor of a send op, or a doorbell batch of
	// them: the op's descriptor countdown advances (the op drains at zero).
	wrSendData
	// wrSendSeg is a segment write of a BC-SPUP pipeline: as wrSendData, and
	// the pack-pool slot it read from returns; the op finishes at zero.
	wrSendSeg
	// wrRecvRead is a P-RRS scatter read of a receive op.
	wrRecvRead
	// wrCall runs done(err): RMA posts (a descriptor, or a doorbell batch).
	wrCall
)

// Transient faults — a rejected post, an error completion, a failed
// registration (rndv.go) — are retried this many times, backing off from
// faultRetryBase, before they fail the operation.
const (
	faultRetryLimit = 6
	faultRetryBase  = 5 * simtime.Microsecond
)

// retryBackoff returns the backoff before retry number attempt (1-based):
// faultRetryBase doubled per retry, capped at one millisecond.
func retryBackoff(attempt int) simtime.Duration {
	d := faultRetryBase
	for i := 1; i < attempt && d < simtime.Millisecond; i++ {
		d *= 2
	}
	return d
}

// wrRec is one post's completion record.
type wrRec struct {
	ep   *Endpoint
	slot uint32
	gen  uint32
	kind wrKind

	peer  int
	n     int   // descriptors the record settles: 1, or a batch's length
	bytes int64 // a P-RRS read's scatter-list bytes
	sop   *sendOp
	rop   *recvOp
	seg   seg
	done  func(error)

	// try (bound once per record as tryFn for the retry timer) is one
	// posting attempt of what has not landed yet.
	attempt int
	tryFn   func()

	// A single post keeps its descriptor in wr; a doorbell batch keeps its
	// window of the op's descriptor arena, which a re-ring shrinks to the
	// members that did not land (nfail of them, moved to the window's front
	// as their error completions arrive).
	wr    verbs.SendWR
	batch []verbs.SendWR
	nfail int
	// err is the error the post resolves with, unless it is transient and
	// retried: the first one reported, or the first permanent one.
	err error

	// next links the units of a send op that release holds back.
	next *wrRec
}

// WRID layout above the slot: wrGenBits of generation, then the descriptor's
// index in its post.
const (
	wrGenBits  = 16
	wrIdxShift = 32 + wrGenBits
	// maxBatchWRs is the longest doorbell batch the index has room for.
	maxBatchWRs = 1 << (64 - wrIdxShift)
)

// id is the work-request ID that leads a completion back to this record (of
// its first descriptor: the others add their index).
func (rec *wrRec) id() uint64 { return uint64(rec.gen&(1<<wrGenBits-1))<<32 | uint64(rec.slot) }

// getWR takes a completion record for one descriptor of the given kind
// headed to peer.
func (ep *Endpoint) getWR(kind wrKind, peer int) *wrRec {
	rec := ep.wrs.Get(ep.newWR)
	rec.kind, rec.peer, rec.n = kind, peer, 1
	return rec
}

// newWR makes a record and gives it the next slot of the table.
func (ep *Endpoint) newWR(rec *wrRec) {
	if len(ep.wrTab) == 0 {
		ep.wrTab = append(ep.wrTab, nil) // slot 0 is "no record"
	}
	rec.ep, rec.slot, rec.tryFn = ep, uint32(len(ep.wrTab)), rec.try
	ep.wrTab = append(ep.wrTab, rec)
}

// getBatchWR takes the one completion record of a doorbell batch (at most
// ep.chunkLimit descriptors).
func (ep *Endpoint) getBatchWR(kind wrKind, peer int, batch []verbs.SendWR) *wrRec {
	rec := ep.getWR(kind, peer)
	rec.n, rec.batch = len(batch), batch
	return rec
}

// lookupWR returns the live record a completion's WRID names, or nil for
// WRID 0.
func (ep *Endpoint) lookupWR(wrid uint64) *wrRec {
	wrid &= 1<<wrIdxShift - 1
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
	*rec = wrRec{ep: ep, slot: rec.slot, gen: rec.gen + 1, tryFn: rec.tryFn}
	ep.wrs.Put(rec)
}

// wrLive counts the completion records out with posted descriptors; zero
// when the endpoint is quiet.
func (ep *Endpoint) wrLive() int { return ep.wrs.Live() }

// cancelled reports whether the record's op has failed, so an abandoned
// descriptor stops re-posting into memory that is about to be released.
func (rec *wrRec) cancelled() bool {
	return (rec.sop != nil && rec.sop.failed) || (rec.rop != nil && rec.rop.failed)
}

// postSingle makes the record the post unit of one descriptor and releases
// it.
func (ep *Endpoint) postSingle(rec *wrRec, wr *verbs.SendWR) {
	rec.wr = *wr
	ep.release(rec)
}

// release makes the first posting attempt of a sealed post unit — a single,
// or a doorbell batch — unless it holds the unit back. The unit resolves
// exactly once: with nil after everything it carries has landed, or
// with the error that outlasted its retries.
//
// With a fault injector attached a retry can land a descriptor after ones
// posted behind it, and two things must survive that: an immediate never
// announces data that has not landed, and one op's immediates arrive in
// segment order (stagedArrival counts them). So a send op's units are then
// released one at a time, in posting order, the next when the one before it
// has finally resolved (resolveWR); and a list unit whose tail carries the
// immediate is sealed as two, the plain writes and then the tail on its own,
// because inside one doorbell nothing holds the tail back while a member
// ahead of it is re-rung. Receive ops' reads and RMA need neither: each
// lands in a range of its own and nothing is announced before all have.
func (ep *Endpoint) release(rec *wrRec) {
	if op := rec.sop; op != nil && ep.faultMode() {
		if last := len(rec.batch) - 1; last > 0 && rec.batch[last].Op == verbs.OpRDMAWriteImm {
			imm := &rec.batch[last]
			tail := ep.getWR(rec.kind, rec.peer)
			tail.sop = op
			rec.n, rec.batch = last, rec.batch[:last]
			ep.release(rec)
			ep.postSingle(tail, imm)
			return
		}
		prev := op.unitTail
		op.unitTail = rec
		if prev != nil {
			prev.next = rec
			return
		}
	}
	rec.try()
}

// try is one posting attempt — the first, from release or, for a unit held
// back, from resolveWR, or a retry — of the record's single descriptor, or a
// ring of its batch's doorbell, under a fresh WRID. A unit that does not
// reach the NIC (its op was aborted while it waited, or the post was refused
// for good) resolves here, with its whole count.
func (rec *wrRec) try() {
	ep := rec.ep
	err := errOpAborted
	if !rec.cancelled() {
		rec.gen++
		id := rec.id()
		if rec.batch == nil {
			rec.wr.WRID = id
			err = ep.qps[rec.peer].PostSend(rec.wr)
		} else {
			for i := range rec.batch {
				rec.batch[i].WRID, rec.batch[i].Unsignaled = id|uint64(i)<<wrIdxShift, true
			}
			rec.batch[len(rec.batch)-1].Unsignaled = false
			if err = ep.qps[rec.peer].PostSendList(rec.batch); err == nil {
				ep.observeBatch(len(rec.batch))
			}
		}
		if err == nil || ep.retryWR(rec, err) {
			return
		}
	}
	ep.resolveWR(rec, err)
}

// retryWR schedules another attempt after a transient fault — of the whole
// post when the post call refused it, of the members that did not land when
// their completions said so — and reports whether it did.
func (ep *Endpoint) retryWR(rec *wrRec, err error) bool {
	if !fault.IsTransient(err) || rec.attempt >= faultRetryLimit || rec.cancelled() {
		return false
	}
	rec.attempt++
	atomic.AddInt64(&ep.ctr.FaultRetries, 1)
	if rec.nfail > 0 {
		rec.batch = rec.batch[:rec.nfail]
	}
	rec.nfail, rec.err = 0, nil
	ep.eng.Schedule(retryBackoff(rec.attempt), rec.tryFn)
	return true
}

func (ep *Endpoint) handleSendCQE(e verbs.CQE) {
	rec := ep.lookupWR(e.WRID)
	if rec == nil {
		if e.Err != nil {
			panic(fmt.Sprintf("core rank %d: unhandled send error: %v", ep.rank, e.Err))
		}
		return
	}
	idx := int(e.WRID >> wrIdxShift)
	if e.Err != nil {
		// Completions come in posting order, so the members that failed
		// collect, in order, at the front of the window they came from: what
		// they overwrite has landed, or has moved there already. Writes and
		// reads are idempotent, and a unit holds no immediate beside other
		// data, so ringing just these again is safe.
		if rec.batch != nil {
			rec.batch[rec.nfail] = rec.batch[idx]
			rec.nfail++
			if op := rec.sop; op != nil && op.plan != nil {
				op.plan.key = planKey{} // the window is no longer what a build gives
			}
		}
		if rec.err == nil || fault.IsTransient(rec.err) && !fault.IsTransient(e.Err) {
			rec.err = e.Err
		}
	}
	if idx < len(rec.batch)-1 {
		return // a member ahead of the tail completes only to report its failure
	}
	if rec.err == nil || !ep.retryWR(rec, rec.err) {
		ep.resolveWR(rec, rec.err)
	}
}

// resolveWR is a post's final resolution — completed, failed past retry, or
// abandoned: the record recycles, its kind's continuation runs, and the unit
// release held back behind it, if any, goes. That one goes whether this one
// failed or not: the failure has aborted the op, so the units behind it
// resolve in try without reaching the NIC, each with its count, one after
// the other.
func (ep *Endpoint) resolveWR(rec *wrRec, err error) {
	kind, peer, n, bytes, sop, rop, sg, done, next := rec.kind, rec.peer, rec.n, rec.bytes, rec.sop, rec.rop, rec.seg, rec.done, rec.next
	if sop != nil && sop.unitTail == rec {
		sop.unitTail = nil
	}
	ep.putWR(rec)
	switch kind {
	case wrSendData:
		if ep.sendWRResolved(sop, n, err) {
			ep.advanceSend(sop)
		}
	case wrSendSeg:
		// The slot is released at resolution either way: on success the
		// data has left it, on abort the descriptor no longer references it.
		ep.releaseSeg(ep.packPool, sg)
		ep.mark("seg-complete", "segment", sop.id)
		if ep.sendWRResolved(sop, 1, err) && sop.allPosted && sop.wrsLeft == 0 {
			ep.finishSend(sop)
		}
	case wrRecvRead:
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
	if next != nil {
		next.try()
	}
}
