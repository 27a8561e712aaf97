package fabric

import (
	"fmt"

	"repro/internal/simtime"
	"repro/internal/verbs"
)

// stage is where a flight record is in its life. Every transition names the
// stage it expects to leave, so a record used after it was recycled (or
// stepped twice) panics at the access instead of corrupting a later
// descriptor.
type stage uint8

const (
	stageFree     stage = iota // on a free list; all fields poisoned to zero
	stagePosted                // descriptor accepted, delivery pending
	stageLanded                // delivery ran (moving nothing, after a fault), ack pending
	stageAcked                 // completion entry filled in, about to be pushed
	stageDispatch              // waiting for the CQ handler's event
)

// flight is the one in-flight record of a descriptor, and of a completion
// entry on its way to a handler. A send-side record is taken from the
// initiator's free list at post and returns to it after the send
// completion's handler ran; a receive-side record lives from the arrival's
// credit match to its handler's return, on the responder's list. The three
// method values are bound once, when the record is first created.
//
// A channel-send payload is not allocated per message: it rides in buffers of
// the node's payload pool, which a record holds from the moment it needs one
// to its recycling. The initiator's record snapshots the Inline bytes at post
// (the caller may reuse them as soon as the post returns); at delivery the
// responder copies them into a buffer of its own for the receive-side record
// the arrival is matched to, and the completion entry's Data is that buffer.
// It goes back to the pool when the handler returns, so Data is valid until
// then and is overwritten by whichever payload takes the buffer next.
type flight struct {
	stage stage
	qp    *QP              // initiating queue pair
	wr    verbs.SendWR     // the descriptor, copied once at post
	size  int64            // payload bytes
	data  []byte           // channel-send payload: a buffer of the node's pool (payloadBuf)
	lag   simtime.Duration // completion delay still to serve after delivery
	err   error            // completion status
	next  *flight          // rest of the train this record heads or rides in

	cq  *CQ       // dispatch target
	cqe verbs.CQE // the completion entry

	deliverFn, ackFn, dispatchFn func()
}

// step moves the record from one stage to the next.
func (fl *flight) step(from, to stage) {
	if fl.stage != from {
		panic(fmt.Sprintf("fabric: flight record in stage %d, want %d (used after recycle?)", fl.stage, from))
	}
	fl.stage = to
}

// getFlight takes a record off the node's free list, or makes one.
func (n *Node) getFlight(to stage) *flight {
	var fl *flight
	if k := len(n.free); k > 0 {
		fl = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		n.made++
		fl = &flight{}
		fl.deliverFn, fl.ackFn, fl.dispatchFn = fl.deliver, fl.ack, fl.dispatch
	}
	fl.step(stageFree, to)
	return fl
}

// putFlight poisons a record and returns it, and the payload buffer it
// holds, to the node's free lists.
func (n *Node) putFlight(fl *flight) {
	if fl.data != nil {
		n.putPayload(fl.data)
	}
	*fl = flight{deliverFn: fl.deliverFn, ackFn: fl.ackFn, dispatchFn: fl.dispatchFn}
	n.free = append(n.free, fl)
}

// maxPayloadBytes bounds the bytes a node's payload pool retains, so a burst
// of large channel sends does not pin its buffers forever.
const maxPayloadBytes = 1 << 20

// payloadBuf returns a pooled buffer holding a copy of src, or nil for an
// empty payload.
func (n *Node) payloadBuf(src []byte) []byte {
	if len(src) == 0 {
		return nil
	}
	var b []byte
	if k := len(n.payloads); k > 0 {
		b, n.payloads = n.payloads[k-1], n.payloads[:k-1]
		n.payloadBytes -= cap(b)
	}
	return append(b[:0], src...)
}

// putPayload returns a payload buffer to the node's pool.
func (n *Node) putPayload(b []byte) {
	if n.payloadBytes+cap(b) > maxPayloadBytes {
		return
	}
	n.payloadBytes += cap(b)
	n.payloads = append(n.payloads, b)
}

// deliver is the delivery stage: it lands this record, and the train behind
// it, in the peer's execution context, then sends the train home.
func (fl *flight) deliver() {
	for g := fl; g != nil; g = g.next {
		g.land()
	}
	n := fl.qp.node
	n.fab.exec.Return(n, fl.ackFn)
}

// land moves one descriptor's payload under the responder's protection
// check. The gather list is read here, from the initiator's registered
// memory, which the verbs contract keeps stable until the send completion.
func (fl *flight) land() {
	fl.step(stagePosted, stageLanded)
	if fl.err != nil {
		return // failed at launch: the adapter consumed it and moved nothing
	}
	qp, wr := fl.qp, &fl.wr
	peer := qp.peer
	if wr.Op == verbs.OpSend {
		peer.arrive(arrival{data: fl.data, bytes: fl.size, imm: wr.Imm, hasImm: true})
		return
	}
	if err := peer.node.mem.Reg().CheckAccess(wr.RKey, wr.RemoteAddr, fl.size); err != nil {
		// The responder NAKs at once: no ack flight, no injected delay.
		fl.err, fl.lag = fmt.Errorf("remote access error: %w", err), 0
		return
	}
	remote := peer.node.mem.Bytes(wr.RemoteAddr, fl.size)
	local := qp.node.mem
	if wr.Op == verbs.OpRDMARead {
		for _, s := range wr.SGL {
			if s.Len > 0 {
				remote = remote[copy(local.Bytes(s.Addr, s.Len), remote):]
			}
		}
	} else {
		for _, s := range wr.SGL {
			if s.Len > 0 {
				remote = remote[copy(remote, local.Bytes(s.Addr, s.Len)):]
			}
		}
		if wr.Op == verbs.OpRDMAWriteImm {
			peer.arrive(arrival{bytes: fl.size, imm: wr.Imm, hasImm: true})
		}
	}
	// Injected delays model a congested completion path without reordering
	// the delivery above.
	if inj := qp.node.fab.injector; inj != nil {
		fl.lag += inj.Delay()
	}
}

// ack is the completion stage, in the initiator's context, for this record
// and the train behind it, in posting order. An unsignaled descriptor that
// succeeded is done here: nobody waits for its ack, and its record goes
// straight back to the free list. Every other one — signaled, or failed,
// which always completes — serves what is left of its completion delay
// (the rest of the train waiting behind it) and pushes its send completion.
func (fl *flight) ack() {
	for g := fl; g != nil; {
		next := g.next
		switch {
		case g.err == nil && g.wr.Unsignaled:
			g.step(stageLanded, stageFree)
			g.qp.node.putFlight(g)
		case g.lag > 0:
			lag := g.lag
			g.lag = 0
			g.qp.node.eng.Schedule(lag, g.ackFn)
			return
		default:
			g.next = nil
			g.step(stageLanded, stageAcked)
			g.cqe = verbs.CQE{QP: g.qp, WRID: g.wr.WRID, Op: g.wr.Op, Bytes: g.size, Err: g.err}
			g.qp.sendCQ.push(g)
		}
		g = next
	}
}

// dispatch runs the CQ handler on the record's completion entry and
// recycles the record when the handler returns.
func (fl *flight) dispatch() {
	fl.step(stageDispatch, stageFree)
	cq := fl.cq
	cq.handler(fl.cqe)
	cq.node.putFlight(fl)
}
