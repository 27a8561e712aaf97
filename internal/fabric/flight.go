package fabric

import (
	"fmt"
	"slices"

	"repro/internal/mem"
	"repro/internal/simtime"
	"repro/internal/verbs"
)

// stage is where a flight record is in its life. Every transition names the
// stage it expects to leave, so a record used after it was recycled (or
// stepped twice) panics at the access instead of corrupting a later train.
type stage uint8

const (
	stageFree     stage = iota // on a free list; all fields poisoned to zero
	stagePosted                // train accepted, delivery pending
	stageLanded                // delivery ran; the ack walk is pending, or paused on the tail's lag
	stageAcked                 // completion entry filled in, about to be pushed
	stageDispatch              // waiting for the CQ handler's event
)

// flight is the one in-flight record of a descriptor train — the descriptors
// of a post that cross to the peer in one delivery and come home in one
// return (QP.post cuts them) — and of a completion entry on its way to a
// handler. The train is not copied: wrs is the window of the poster's array
// it was cut from, which the verbs contract keeps untouched until the post's
// last completion; a single post is a train of one over the record's own
// array. A send-side record is taken from the initiator's free list at post,
// ends as its tail's completion entry and goes back when that entry's
// handler has run — or, the tail unsignaled and not failed, at the ack stage,
// where a member ahead of the tail that completes borrows a record for its
// entry. A receive-side record, on the responder's list, lives from the
// arrival's credit match to its handler's return and holds the pooled buffer
// that is the entry's Data. The stage methods are bound once, at creation.
type flight struct {
	stage stage
	qp    *QP              // initiating queue pair
	wrs   []verbs.SendWR   // the train: the poster's descriptors, or one[:]
	fails []failure        // the members that failed, ascending; the array outlives recycling
	lag   simtime.Duration // completion delay the tail has still to serve after delivery
	data  []byte           // channel-send payload (a send ends its train): a buffer of the node's pool
	one   [1]verbs.SendWR  // a single post's descriptor, copied at post

	cq  *CQ       // dispatch target
	cqe verbs.CQE // the completion entry

	deliverFn, ackFn, dispatchFn func()
}

// failure is the status of a member that failed, at launch or at landing.
type failure struct {
	i   int // the member's index in the window
	err error
}

// step moves the record from one stage to the next.
func (fl *flight) step(from, to stage) {
	if fl.stage != from {
		panic(fmt.Sprintf("fabric: flight record in stage %d, want %d (used after recycle?)", fl.stage, from))
	}
	fl.stage = to
}

// getFlight takes a record off the node's free list.
func (n *Node) getFlight(to stage) *flight {
	fl := n.flights.Get(newFlight)
	fl.step(stageFree, to)
	return fl
}

func newFlight(fl *flight) { fl.deliverFn, fl.ackFn, fl.dispatchFn = fl.deliver, fl.ack, fl.dispatch }

// putFlight poisons a record and returns it, and the payload buffer it
// holds, to the node's free lists.
func (n *Node) putFlight(fl *flight) {
	if fl.data != nil {
		n.payloads.Put(fl.data)
	}
	clear(fl.fails)
	fails, deliver, ack, dispatch := fl.fails[:0], fl.deliverFn, fl.ackFn, fl.dispatchFn
	*fl = flight{} // in place: a literal with the kept fields is built aside and copied in
	fl.fails, fl.deliverFn, fl.ackFn, fl.dispatchFn = fails, deliver, ack, dispatch
	n.flights.Put(fl)
}

// payloadBuf returns a buffer of the node's pool holding a copy of src, or
// nil for an empty payload.
func (n *Node) payloadBuf(src []byte) []byte {
	if len(src) == 0 {
		return nil
	}
	b := n.payloads.Get(int64(len(src)))
	copy(b, src)
	return b
}

// sglBytes is the payload length of a gather/scatter list.
func sglBytes(sgl []verbs.SGE) (n int64) {
	for i := range sgl {
		n += sgl[i].Len
	}
	return n
}

// deliver is the delivery stage: it lands the train's members, in posting
// order, in the peer's execution context — the gather list is read here, not
// at post — then sends the train home. A member the responder refuses is
// NAKed at once: no ack flight, no injected delay. Every landed member draws
// one (a congested completion path); the tail serves a signaled member's.
func (fl *flight) deliver() {
	fl.step(stagePosted, stageLanded)
	n, peer := fl.qp.node, fl.qp.peer
	local, remote := n.mem, peer.node.mem
	inj := n.fab.injector
	var reg *mem.Region // the responder's region the member before wrote under: asked first
	at := 0             // fails[at:] are of the members still to land
	for k := range fl.wrs {
		wr := &fl.wrs[k]
		if at < len(fl.fails) && fl.fails[at].i == k {
			at++ // failed at launch: the adapter consumed it and moved nothing
			continue
		}
		if wr.Op == verbs.OpSend {
			peer.arrive(arrival{data: fl.data, bytes: int64(len(fl.data)), imm: wr.Imm, hasImm: true})
			continue
		}
		size := sglBytes(wr.SGL)
		if !reg.Grants(wr.RKey, wr.RemoteAddr, size) {
			var err error
			if reg, err = remote.Reg().CheckAccess(wr.RKey, wr.RemoteAddr, size); err != nil {
				fl.fails = slices.Insert(fl.fails, at, failure{k, fmt.Errorf("remote access error: %w", err)})
				at++
				continue
			}
		}
		dst := remote.Bytes(wr.RemoteAddr, size)
		for _, s := range wr.SGL {
			if s.Len > 0 && wr.Op == verbs.OpRDMARead {
				dst = dst[copy(local.Bytes(s.Addr, s.Len), dst):]
			} else if s.Len > 0 {
				dst = dst[copy(dst, local.Bytes(s.Addr, s.Len)):]
			}
		}
		if wr.Op == verbs.OpRDMAWriteImm {
			peer.arrive(arrival{bytes: size, imm: wr.Imm, hasImm: true})
		}
		if inj != nil {
			if d := inj.Delay(); !wr.Unsignaled {
				fl.lag += d
			}
		}
	}
	n.fab.exec.Return(n, fl.ackFn)
}

// ack is the completion stage, in the initiator's context: it walks the
// train in posting order. An unsignaled member that succeeded is done here —
// nobody waits for its ack. Every other one pushes its send completion: a
// member ahead of the tail in a borrowed record, the tail, its completion
// delay served, in the train's own — which lets the window go first, so the
// poster may rewrite it from the tail's completion on.
func (fl *flight) ack() {
	fl.step(stageLanded, stageLanded)
	qp, n := fl.qp, fl.qp.node
	tail, at := len(fl.wrs)-1, 0 // fails[at:] are of the members still to ack
	for k := range fl.wrs {
		wr := &fl.wrs[k]
		var err error
		if at < len(fl.fails) && fl.fails[at].i == k {
			err = fl.fails[at].err
			at++
		}
		if err == nil && wr.Unsignaled {
			continue
		}
		cqe := verbs.CQE{QP: qp, WRID: wr.WRID, Op: wr.Op, Bytes: sglBytes(wr.SGL), Err: err}
		switch {
		case k < tail:
			e := n.getFlight(stageAcked)
			e.cqe = cqe
			qp.sendCQ.push(e)
		case err == nil && fl.lag > 0:
			// The members ahead are done: what resumes is a train of the tail.
			n.eng.Schedule(fl.lag, fl.ackFn)
			clear(fl.fails)
			fl.wrs, fl.fails, fl.lag = fl.wrs[tail:], fl.fails[:0], 0
			return
		default:
			if wr.Op == verbs.OpSend {
				cqe.Bytes = int64(len(fl.data))
			}
			fl.step(stageLanded, stageAcked)
			fl.cqe, fl.wrs = cqe, nil
			qp.sendCQ.push(fl)
			return
		}
	}
	fl.step(stageLanded, stageFree)
	n.putFlight(fl)
}

// dispatch runs the CQ handler on the record's completion entry and
// recycles the record when the handler returns.
func (fl *flight) dispatch() {
	fl.step(stageDispatch, stageFree)
	cq := fl.cq
	cq.handler(fl.cqe)
	cq.node.putFlight(fl)
}
