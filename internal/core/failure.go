package core

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Structured error propagation for the transfer schemes.
//
// Taxonomy: transient faults (injected post failures, error CQEs,
// registration failures classified transient) are retried with bounded
// exponential backoff in virtual time; permanent faults — including retry
// exhaustion — abort the operation. An abort completes the Request with the
// error immediately, but resource teardown waits until every outstanding
// descriptor of the op has drained: a pool slot released while a retried
// RDMA write still references it could be reacquired by another transfer
// and corrupted, since the pool-wide registration stays valid. After the
// drain, the peer is told (kindSendFail/kindRecvFail) so its half of the
// rendezvous fails too instead of waiting forever.

// ErrRemoteAbort reports that the peer rank aborted the transfer after an
// unrecoverable fault on its side.
var ErrRemoteAbort = errors.New("core: peer aborted transfer")

// errOpAborted resolves descriptors that were abandoned (not re-posted)
// because their op had already failed.
var errOpAborted = errors.New("core: descriptor abandoned after op abort")

// faultMode reports whether a fault injector is attached to this fabric.
// It selects no code path: release (wr.go), the one place that reads it,
// decides from it when a send op's post units go out.
func (ep *Endpoint) faultMode() bool { return ep.hca.Injector() != nil }

// strayFrame is where a control frame or an immediate that names no op of
// this endpoint ends. One that raced an abort is expected — the peer sent it
// before our failure notice reached it — and is dropped, whatever caused the
// abort: an injected fault, an admission rejection, a refused CTS, a
// responder's NAK. On an endpoint that has never aborted anything it is a
// protocol bug.
func (ep *Endpoint) strayFrame(what string, src int, id uint32) {
	if atomic.LoadInt64(&ep.ctr.RequestsFailed) == 0 && atomic.LoadInt64(&ep.ctr.PeerAborts) == 0 {
		panic(fmt.Sprintf("core rank %d: %s for unknown op %d from %d", ep.rank, what, id, src))
	}
}

// --- Sender-side abort -------------------------------------------------------

// abortSend fails a sender-side op: the request completes with err now, and
// teardown (and peer notification) happens once outstanding descriptors
// drain. Safe to call repeatedly; only the first error sticks.
func (ep *Endpoint) abortSend(op *sendOp, err error) {
	if op.failed {
		return
	}
	op.failed = true
	op.failErr = err
	atomic.AddInt64(&ep.ctr.RequestsFailed, 1)
	ep.mark("abort-send", "abort", op.id)
	op.req.complete(err)
	if op.wrsLeft == 0 {
		ep.finalizeSendAbort(op)
	}
}

// finalizeSendAbort releases everything a failed send op holds, once no
// descriptor references it anymore, and notifies the receiver.
func (ep *Endpoint) finalizeSendAbort(op *sendOp) {
	if !ep.removeSendOp(op) {
		return // already finalized
	}
	if op.staging.held {
		ep.releaseSeg(ep.packPool, op.staging.seg)
		op.staging = segRes{}
	}
	for i := range op.segs {
		if op.segs[i].held {
			ep.releaseSeg(ep.packPool, op.segs[i].seg)
			op.segs[i].held = false
		}
	}
	op.segs = op.segs[:0]
	op.reg.release()
	if op.notifyPeer {
		w := ep.ctrlW()
		w.u8(kindSendFail)
		w.u32(op.id)
		ep.sendCtrl(op.dst, w.buf)
	}
	ep.qosDrain() // a dead op releases nothing later; re-check parked work
	ep.retireSend(op)
}

// sendWRResolved accounts n finally-resolved descriptors (completed, failed
// past retry, or abandoned — one posted on its own, or a doorbell batch) of a
// send op and reports whether the op's state machine should advance:
// failures start or continue the abort drain instead.
func (ep *Endpoint) sendWRResolved(op *sendOp, n int, err error) bool {
	op.wrsLeft -= n
	if err != nil && !op.failed {
		ep.abortSend(op, err)
		return false
	}
	if op.failed {
		if op.wrsLeft == 0 {
			ep.finalizeSendAbort(op)
		}
		return false
	}
	return true
}

// advanceSend drains the op (sendDrained), once, when its whole descriptor
// population has been posted (the allPosted guard) and has completed.
func (ep *Endpoint) advanceSend(op *sendOp) {
	if op.allPosted && op.wrsLeft == 0 && op.drainArmed {
		op.drainArmed = false
		ep.sendDrained(op)
	}
}

// donePosting marks that every descriptor of the op has been posted; the
// drain postWRs armed may only fire after this (the allPosted guard), so a
// fast early segment can never complete the op while later segments are
// still being posted.
func (ep *Endpoint) donePosting(op *sendOp) {
	op.allPosted = true
	if op.failed {
		if op.wrsLeft == 0 {
			ep.finalizeSendAbort(op)
		}
		return
	}
	ep.advanceSend(op)
}

// --- Receiver-side abort -----------------------------------------------------

// abortRecv fails a receiver-side op; notify says whether the sender should
// be told once the drain finishes (false when the abort was caused by the
// sender's own failure notice).
func (ep *Endpoint) abortRecv(op *recvOp, err error, notify bool) {
	if op.failed {
		return
	}
	op.failed = true
	op.failErr = err
	op.notifyPeer = notify
	atomic.AddInt64(&ep.ctr.RequestsFailed, 1)
	ep.mark("abort-recv", "abort", op.key.op)
	op.req.complete(err)
	if op.wrsLeft == 0 {
		ep.finalizeRecvAbort(op)
	}
}

// finalizeRecvAbort releases everything a failed receive op holds and
// notifies the sender if requested.
func (ep *Endpoint) finalizeRecvAbort(op *recvOp) {
	if !ep.removeRecvOp(op) {
		return // already finalized
	}
	if op.haveWhole {
		ep.releaseSeg(ep.unpackPool, op.wholeSeg)
		op.haveWhole = false
	}
	// The segment list keeps its length: an unpack completion still in
	// flight reads its entry for the span it closes.
	for i := range op.segs {
		if op.segs[i].held {
			ep.releaseSeg(ep.unpackPool, op.segs[i].seg)
			op.segs[i].held = false
		}
	}
	op.reg.release()
	if op.notifyPeer {
		w := ep.ctrlW()
		w.u8(kindRecvFail)
		w.u32(op.key.op)
		ep.sendCtrl(op.key.src, w.buf)
	}
	ep.qosDrain() // a dead op releases nothing later; re-check parked work
	ep.retireRecv(op)
}

// recvWRResolved is sendWRResolved for receiver-initiated descriptors
// (P-RRS scatter reads).
func (ep *Endpoint) recvWRResolved(op *recvOp, err error) bool {
	op.wrsLeft--
	if err != nil && !op.failed {
		ep.abortRecv(op, err, true)
		return false
	}
	if op.failed {
		if op.wrsLeft == 0 {
			ep.finalizeRecvAbort(op)
		}
		return false
	}
	return true
}

// --- Cross-rank failure notices ----------------------------------------------

// handleSendFail processes a sender's abort notice: fail the matched receive,
// or drop the queued RTS so no future receive matches a dead transfer.
func (ep *Endpoint) handleSendFail(src int, r *ctrlReader) {
	id := r.u32()
	if r.err != nil {
		panic(r.err)
	}
	atomic.AddInt64(&ep.ctr.PeerAborts, 1)
	if op := ep.lookupRecvOp(src, id); op != nil {
		ep.abortRecv(op, fmt.Errorf("%w (sender rank %d)", ErrRemoteAbort, src), false)
		return
	}
	// Not matched yet: mark the queued RTS dead. It stays matchable so a
	// receive posted later fails promptly instead of waiting forever.
	if inb := ep.unexp.findRTS(src, id); inb != nil {
		inb.failed = true
	}
}

// handleRecvFail processes a receiver's abort notice: fail the sender-side
// op without notifying back.
func (ep *Endpoint) handleRecvFail(src int, r *ctrlReader) {
	id := r.u32()
	if r.err != nil {
		panic(r.err)
	}
	atomic.AddInt64(&ep.ctr.PeerAborts, 1)
	if op := ep.lookupSendOp(src, id); op != nil {
		op.notifyPeer = false
		ep.abortSend(op, fmt.Errorf("%w (receiver rank %d)", ErrRemoteAbort, src))
	}
}
