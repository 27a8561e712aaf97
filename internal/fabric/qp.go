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

	// Without an injector every descriptor of the post shares one outcome
	// path, so an executor that ignores virtual time carries them to the
	// peer as one train: one crossing out, one back, per post instead of
	// per descriptor. With one, each descriptor draws its own fate.
	train := f.exec.Trains() && f.injector == nil
	var head, tail *flight

	c := n.counters
	if list {
		atomic.AddInt64(&c.ListPosts, 1)
	}
	for i := range wrs {
		wr := &wrs[i]
		atomic.AddInt64(&c.DescriptorsPosted, 1)
		atomic.AddInt64(&c.SGEsPosted, int64(len(wr.SGL)))
		if wr.Lane != 0 {
			atomic.AddInt64(&c.LaneBulkDescs, 1)
		}
		switch wr.Op {
		case verbs.OpSend:
			atomic.AddInt64(&c.SendsPosted, 1)
		case verbs.OpRDMAWrite, verbs.OpRDMAWriteImm:
			atomic.AddInt64(&c.RDMAWritesPosted, 1)
			if wr.Op == verbs.OpRDMAWriteImm {
				atomic.AddInt64(&c.ImmediatesSent, 1)
			}
		case verbs.OpRDMARead:
			atomic.AddInt64(&c.RDMAReadsPosted, 1)
		}
		if !list {
			atomic.AddInt64(&c.ListPosts, 1) // each single post is its own post operation
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
		switch {
		case !train:
			qp.launch(fl, ready)
		case head == nil:
			head, tail = fl, fl
		default:
			tail.next, tail = fl, fl
		}
	}
	if head != nil {
		f.exec.Deliver(qp.peer.node, n.eng.Now(), head.deliverFn)
	}
	return nil
}

// launch prices one descriptor that the host finished posting at ready and
// starts it on its way.
func (qp *QP) launch(fl *flight, ready simtime.Time) {
	n := qp.node
	f := n.fab

	// Injected CQE errors: the adapter consumes the descriptor but the
	// transfer fails before any payload moves, and the initiator sees an
	// error completion. Channel-semantics sends are exempt (see post).
	if inj := f.injector; inj != nil && fl.wr.Op != verbs.OpSend {
		if ferr := inj.CQEFault(); ferr != nil {
			fl.step(stagePosted, stageLanded)
			fl.err = qp.errorf("%v failed: %w", fl.wr.Op, ferr)
			n.eng.At(f.pricing.Fault(qp, &fl.wr, ready), fl.ackFn)
			return
		}
	}

	// The record is the peer's from the moment it is handed over: everything
	// is written before Deliver.
	plan := f.pricing.Launch(qp, &fl.wr, fl.size, ready)
	if fl.early = plan.AckEarly; !fl.early {
		fl.lag = plan.AckLag
	}
	f.exec.Deliver(qp.peer.node, plan.Deliver, fl.deliverFn)
	if plan.AckEarly {
		n.eng.At(plan.Deliver.Add(plan.AckLag), fl.ackFn)
	}
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
