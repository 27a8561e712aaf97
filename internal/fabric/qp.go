package fabric

import (
	"fmt"
	"sync/atomic"

	"repro/internal/mem"
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

// PostSend posts one work request: a train of one over the record's copy of wr.
func (qp *QP) PostSend(wr verbs.SendWR) error {
	fl := qp.node.getFlight(stagePosted)
	fl.one[0] = wr
	err := qp.post(fl.one[:], fl)
	if err != nil {
		fl.step(stagePosted, stageFree)
		qp.node.putFlight(fl)
	}
	return err
}

// PostSendList posts a list of work requests in one operation; descriptors
// after the first are cheaper to post (the paper's Figure 13). wrs is read,
// not copied: it stays untouched until the post's last completion.
func (qp *QP) PostSendList(wrs []verbs.SendWR) error { return qp.post(wrs, nil) }

func (qp *QP) errorf(format string, args ...any) error {
	return fmt.Errorf("%s %s qp%d: "+format, append([]any{qp.node.fab.name, qp.node.name, qp.num}, args...)...)
}

// post is the one posting path. single is the record a single post holds its
// descriptor in, its one train's; a list post (nil) takes a record per train.
func (qp *QP) post(wrs []verbs.SendWR, single *flight) error {
	if len(wrs) == 0 {
		return nil
	}
	n, f := qp.node, qp.node.fab
	m, inj, list := &f.model, f.injector, single == nil

	// MaxPostBatch bounds descriptors per doorbell; it is distinct from
	// MaxSGE, which bounds one descriptor's gather list.
	if list && m.MaxPostBatch > 0 && len(wrs) > m.MaxPostBatch {
		return qp.errorf("list post of %d descriptors exceeds MaxPostBatch %d", len(wrs), m.MaxPostBatch)
	}

	// Validate everything before charging any time, so a bad descriptor in a
	// list fails the whole post (as ibv_post_send does).
	table, remote := n.mem.Reg(), qp.peer.node.mem
	var reg *mem.Region // the region the SGE before resolved
	for i := range wrs {
		if err := validate(&wrs[i], table, remote, &reg); err != nil {
			return qp.errorf("%w", err)
		}
	}

	// Injected post failures model ibv_post_send rejecting the descriptor
	// (transiently: queue full; permanently: QP moved to error state).
	// Channel-semantics sends are exempt from injection — control traffic must
	// keep the transport's reliable ordering for the protocol's matching rules.
	if inj != nil && wrs[0].Op != verbs.OpSend {
		if err := inj.PostFault(); err != nil {
			return qp.errorf("post: %w", err)
		}
	}

	// A post travels as descriptor trains, each one flight record over its
	// window of wrs (DESIGN.md §17). Every descriptor reserves what it
	// occupies when it is posted, but one nobody can observe — an unsignaled
	// plain write: no completion at either end — has no event of its own: it
	// rides on the delivery of the next descriptor somebody can (signaled,
	// immediate, send, read, or the last of the post), at that one's delivery
	// time. An executor that ignores virtual time cuts behind a send only (a
	// record holds one captured payload). A descriptor the injector fails —
	// consumed by the adapter, nothing moved — rides in its place too, so its
	// error completion follows the landing of everything posted before it.
	whole := f.exec.Trains()
	fl, start := single, 0 // the train being built, and where it begins in wrs
	var due simtime.Time   // when it is delivered
	moving := false        // whether it carries anything that lands
	var sges int64
	var ops [verbs.OpRecv]int64 // descriptors by opcode: validate admitted no other
	for i := range wrs {
		wr := &wrs[i]
		sges += int64(len(wr.SGL))
		ops[wr.Op]++
		ready := n.ChargeCPUNamed(m.PostTime(i, len(wr.SGL), list), "doorbell")
		if fl == nil {
			fl = n.getFlight(stagePosted)
		}

		// plan.Deliver is when the descriptor's delivery is due — or, failed,
		// when its error completion would be, were nothing posted ahead of it.
		var plan Plan
		var ferr error
		if inj != nil && wr.Op != verbs.OpSend {
			ferr = inj.CQEFault()
		}
		ok := ferr == nil
		if ok {
			size := sglBytes(wr.SGL)
			if wr.Op == verbs.OpSend {
				// The Inline payload is captured now, into a pooled buffer:
				// the caller may reuse its own as soon as the post returns.
				fl.data = n.payloadBuf(wr.Inline)
				size = int64(len(fl.data))
			}
			plan = f.pricing.Launch(qp, wr, size, ready)
		} else {
			fl.fails = append(fl.fails, failure{i - start, qp.errorf("%v failed: %w", wr.Op, ferr)})
			plan.Deliver = f.pricing.Fault(qp, wr, ready)
		}
		if ok || !moving {
			due, moving = plan.Deliver, ok
		}
		if i == len(wrs)-1 || ok && (wr.Op == verbs.OpSend || !whole && (wr.Op != verbs.OpRDMAWrite || !wr.Unsignaled)) {
			// The train is the peer's from the moment it is handed over:
			// everything is written before Deliver.
			fl.qp, fl.wrs, fl.lag = qp, wrs[start:i+1], plan.AckLag
			f.exec.Deliver(qp.peer.node, due, fl.deliverFn)
			fl, start, moving = nil, i+1, false
		}
	}
	c := n.counters
	atomic.AddInt64(&c.ListPosts, 1) // a single post is a post operation of its own
	atomic.AddInt64(&c.DescriptorsPosted, int64(len(wrs)))
	atomic.AddInt64(&c.SGEsPosted, sges)
	addNonzero(&c.SendsPosted, ops[verbs.OpSend])
	addNonzero(&c.RDMAWritesPosted, ops[verbs.OpRDMAWrite]+ops[verbs.OpRDMAWriteImm])
	addNonzero(&c.ImmediatesSent, ops[verbs.OpRDMAWriteImm])
	addNonzero(&c.RDMAReadsPosted, ops[verbs.OpRDMARead])
	return nil
}

// addNonzero adds n to a counter other threads may be reading, skipping the
// atomic when there is nothing to add.
func addNonzero(c *int64, n int64) {
	if n != 0 {
		atomic.AddInt64(c, n)
	}
}

// validate checks one descriptor against the initiator's registration table
// — asking *reg, the region the last check resolved, first — and its target
// against the responder's address space: access rights are the responder's
// to check, at delivery, but memory bounds are immutable and safe to read.
func validate(wr *verbs.SendWR, table *mem.RegTable, remote *mem.Memory, reg **mem.Region) (err error) {
	switch wr.Op {
	case verbs.OpRDMAWrite, verbs.OpRDMAWriteImm, verbs.OpRDMARead:
	case verbs.OpSend:
		if len(wr.SGL) != 0 {
			return fmt.Errorf("OpSend carries inline payloads only")
		}
		return nil
	default:
		return fmt.Errorf("bad opcode %v", wr.Op)
	}
	var total int64
	for i := range wr.SGL {
		s := &wr.SGL[i]
		if s.Len < 0 {
			return fmt.Errorf("negative SGE length")
		}
		if s.Len > 0 && !(*reg).Grants(s.Key, s.Addr, s.Len) {
			if *reg, err = table.CheckAccess(s.Key, s.Addr, s.Len); err != nil {
				return err
			}
		}
		total += s.Len
	}
	if wr.Op == verbs.OpRDMARead {
		return nil
	}
	return remote.CheckRange(wr.RemoteAddr, total)
}
