package fabric

import (
	"fmt"
	"sync/atomic"

	"repro/internal/simtime"
	"repro/internal/verbs"
)

// arrival is a channel-semantics payload or an immediate notification
// looking for a receive credit.
type arrival struct {
	data   []byte
	bytes  int64
	imm    uint32
	hasImm bool
}

// QP is one end of a reliable connection. Its queue state (credits, stalled
// arrivals) belongs to the owning node's execution context.
type QP struct {
	node     *Node
	num      int
	peer     *QP
	sendCQ   *CQ
	recvCQ   *CQ
	recvQ    Ring[verbs.RecvWR]
	stalled  Ring[arrival]
	userData int
}

// Node returns the owning node.
func (qp *QP) Node() *Node { return qp.node }

// Peer returns the connected remote QP.
func (qp *QP) Peer() *QP { return qp.peer }

// Num returns the QP number (unique per node).
func (qp *QP) Num() int { return qp.num }

// UserData returns the tag stored with SetUserData.
func (qp *QP) UserData() int { return qp.userData }

// SetUserData stores an integer tag on the QP for the owning protocol layer.
func (qp *QP) SetUserData(v int) { qp.userData = v }

// PostRecv posts a receive credit. If arrivals were stalled waiting for
// credits they are delivered now, in arrival order.
func (qp *QP) PostRecv(wr verbs.RecvWR) {
	atomic.AddInt64(&qp.node.counters.RecvsPosted, 1)
	qp.recvQ.Push(wr)
	for qp.stalled.Len() > 0 && qp.recvQ.Len() > 0 {
		qp.completeArrival(qp.stalled.Pop())
	}
}

// RecvCredits reports the number of posted, unconsumed receive credits.
func (qp *QP) RecvCredits() int { return qp.recvQ.Len() }

// arrive consumes a receive credit for a, or stalls it until one is posted
// (the receiver-not-ready case). a.data belongs to the sender's record and
// is only good for the duration of the call: a stalled arrival takes a copy.
func (qp *QP) arrive(a arrival) {
	if qp.recvQ.Len() == 0 {
		if a.data != nil {
			a.data = append([]byte(nil), a.data...)
		}
		qp.stalled.Push(a)
		return
	}
	qp.completeArrival(a)
}

func (qp *QP) completeArrival(a arrival) {
	fl := qp.node.getFlight(stageAcked)
	// The payload moves into a buffer of this node's, which is what CQE.Data
	// names until the handler returns and the record is recycled.
	fl.data = qp.node.payloadBuf(a.data)
	fl.cqe = verbs.CQE{
		QP:     qp,
		WRID:   qp.recvQ.Pop().WRID,
		Op:     verbs.OpRecv,
		Bytes:  a.bytes,
		Imm:    a.imm,
		HasImm: a.hasImm,
		Data:   fl.data,
	}
	qp.recvCQ.push(fl)
}

// PostSend posts one work request.
func (qp *QP) PostSend(wr verbs.SendWR) error {
	one := [1]verbs.SendWR{wr}
	return qp.post(one[:], false)
}

// PostSendList posts a list of work requests in one operation; descriptors
// after the first are cheaper to post (the extended interface the paper's
// Multi-W scheme evaluates in Figure 13).
func (qp *QP) PostSendList(wrs []verbs.SendWR) error {
	return qp.post(wrs, true)
}

func (qp *QP) errorf(format string, args ...any) error {
	return fmt.Errorf("%s %s qp%d: "+format, append([]any{qp.node.fab.name, qp.node.name, qp.num}, args...)...)
}

func (qp *QP) post(wrs []verbs.SendWR, list bool) error {
	if len(wrs) == 0 {
		return nil
	}
	n := qp.node
	f := n.fab
	m := &f.model

	// MaxPostBatch bounds descriptors per doorbell; it is distinct from
	// MaxSGE, which bounds one descriptor's gather list.
	if list && m.MaxPostBatch > 0 && len(wrs) > m.MaxPostBatch {
		return qp.errorf("list post of %d descriptors exceeds MaxPostBatch %d", len(wrs), m.MaxPostBatch)
	}

	// Validate everything before charging any time, so a bad descriptor in a
	// list fails the whole post (as ibv_post_send does).
	for i := range wrs {
		if err := qp.validate(&wrs[i]); err != nil {
			return qp.errorf("%w", err)
		}
	}

	// Injected post failures model ibv_post_send rejecting the descriptor
	// (transiently: queue full; permanently: QP moved to error state).
	// Channel-semantics sends are exempt — control traffic must keep the
	// transport's reliable ordering for the protocol layer's matching rules.
	if inj := f.injector; inj != nil && wrs[0].Op != verbs.OpSend {
		if err := inj.PostFault(); err != nil {
			return qp.errorf("post: %w", err)
		}
	}

	// A post travels as descriptor trains. Every descriptor reserves what it
	// occupies when it is posted, but one nobody can observe — an unsignaled
	// plain write: no completion at either end — has no event of its own. It
	// rides to the peer on the delivery of the next descriptor somebody can
	// (signaled, immediate, send, read, or the last of the post), at that
	// descriptor's delivery time; completion is in posting order, so nobody
	// could have told sooner that it landed. An executor that ignores
	// virtual time never cuts, and the whole post crosses as one train. A
	// descriptor the injector fails (launch) moves nothing and has no
	// delivery of its own either: it rides in its place, so its error
	// completion follows the landing of everything posted before it, and the
	// initiator may re-post it, or release the memory, on the error alone.
	whole := f.exec.Trains()
	var head, tail *flight
	var due simtime.Time // when the train being built is delivered
	moving := false      // whether it carries anything that lands
	var sges, bulk, sends, writes, imms, reads int64
	for i := range wrs {
		wr := &wrs[i]
		sges += int64(len(wr.SGL))
		if wr.Lane != 0 {
			bulk++
		}
		switch wr.Op {
		case verbs.OpSend:
			sends++
		case verbs.OpRDMAWriteImm:
			imms++
			fallthrough
		case verbs.OpRDMAWrite:
			writes++
		case verbs.OpRDMARead:
			reads++
		}
		ready := n.ChargeCPUNamed(m.PostTime(i, len(wr.SGL), list), "doorbell")

		fl := n.getFlight(stagePosted)
		fl.qp, fl.wr = qp, *wr
		if wr.Op == verbs.OpSend {
			// The Inline payload is captured now, into a pooled buffer: the
			// caller may reuse its own as soon as the post returns.
			fl.data = n.payloadBuf(wr.Inline)
			fl.wr.Inline = nil
			fl.size = int64(len(fl.data))
		} else {
			for _, s := range wr.SGL {
				fl.size += s.Len
			}
		}
		at, ok := qp.launch(fl, ready)
		if ok || !moving {
			due, moving = at, ok
		}
		// The train is the peer's from the moment it is handed over:
		// everything is written before Deliver.
		if head == nil {
			head = fl
		} else {
			tail.next = fl
		}
		tail = fl
		if i == len(wrs)-1 || ok && !whole && (wr.Op != verbs.OpRDMAWrite || !wr.Unsignaled) {
			f.exec.Deliver(qp.peer.node, due, head.deliverFn)
			head, moving = nil, false
		}
	}
	c := n.counters
	atomic.AddInt64(&c.ListPosts, 1) // a single post is a post operation of its own
	atomic.AddInt64(&c.DescriptorsPosted, int64(len(wrs)))
	atomic.AddInt64(&c.SGEsPosted, sges)
	addNonzero(&c.LaneBulkDescs, bulk)
	addNonzero(&c.SendsPosted, sends)
	addNonzero(&c.RDMAWritesPosted, writes)
	addNonzero(&c.ImmediatesSent, imms)
	addNonzero(&c.RDMAReadsPosted, reads)
	return nil
}

// addNonzero adds n to a counter other threads may be reading, skipping the
// atomic when there is nothing to add.
func addNonzero(c *int64, n int64) {
	if n != 0 {
		atomic.AddInt64(c, n)
	}
}

// launch starts one descriptor that the host finished posting at ready: it
// reserves what the descriptor occupies and returns when its delivery is
// due — or, with false, when the injector failed it, the time its error
// completion would be due were nothing posted ahead of it.
func (qp *QP) launch(fl *flight, ready simtime.Time) (simtime.Time, bool) {
	n := qp.node
	f := n.fab

	// Injected CQE errors: the adapter consumes the descriptor but the
	// transfer fails before any payload moves, and the initiator sees an
	// error completion. Channel-semantics sends are exempt (see post).
	if inj := f.injector; inj != nil && fl.wr.Op != verbs.OpSend {
		if ferr := inj.CQEFault(); ferr != nil {
			fl.err = qp.errorf("%v failed: %w", fl.wr.Op, ferr)
			return f.pricing.Fault(qp, &fl.wr, ready), false
		}
	}
	plan := f.pricing.Launch(qp, &fl.wr, fl.size, ready)
	fl.lag = plan.AckLag
	return plan.Deliver, true
}

func (qp *QP) validate(wr *verbs.SendWR) error {
	switch wr.Op {
	case verbs.OpSend:
		if len(wr.SGL) != 0 {
			return fmt.Errorf("OpSend carries inline payloads only")
		}
		return nil
	case verbs.OpRDMAWrite, verbs.OpRDMAWriteImm:
		total, err := qp.validateSGL(wr.SGL)
		if err != nil {
			return err
		}
		// Remote access rights are checked at delivery (the responder side),
		// but the target range must at least be a plausible address. (Memory
		// bounds are immutable, so reading them from here is safe even when
		// the peer runs concurrently.)
		return qp.peer.node.mem.CheckRange(wr.RemoteAddr, total)
	case verbs.OpRDMARead:
		_, err := qp.validateSGL(wr.SGL)
		return err
	default:
		return fmt.Errorf("bad opcode %v", wr.Op)
	}
}

// validateSGL checks every SGE against the local registration table and
// returns the total byte length.
func (qp *QP) validateSGL(sgl []verbs.SGE) (int64, error) {
	n := qp.node
	var total int64
	for _, s := range sgl {
		if s.Len < 0 {
			return 0, fmt.Errorf("%s %s: negative SGE length", n.fab.name, n.name)
		}
		if s.Len == 0 {
			continue
		}
		if err := n.mem.Reg().CheckAccess(s.Key, s.Addr, s.Len); err != nil {
			return 0, err
		}
		total += s.Len
	}
	return total, nil
}
