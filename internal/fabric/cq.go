package fabric

import (
	"sync/atomic"

	"repro/internal/simtime"
	"repro/internal/verbs"
)

// CQ is a completion queue on one node. A CQ either queues entries for
// polling (Poll/WaitPoll) or dispatches them to a handler; protocol engines
// use the handler form so completion processing charges the host CPU and
// serializes with other host work. All methods run in the owning node's
// execution context.
type CQ struct {
	node    *Node
	queue   Ring[verbs.CQE]
	handler func(verbs.CQE)
	sig     simtime.Signal
}

// NewCQ creates a completion queue on a node.
func NewCQ(n *Node) *CQ { return &CQ{node: n} }

// SetHandler switches the CQ to handler dispatch. Each entry is delivered in
// its own event after reserving CompletionCost on the node's CPU, so
// handlers never reenter posting code. Must be set before any completion
// arrives.
func (cq *CQ) SetHandler(fn func(verbs.CQE)) {
	if cq.queue.Len() > 0 {
		panic(cq.node.fab.name + ": SetHandler on non-empty CQ")
	}
	cq.handler = fn
}

// push delivers the completion a record carries, at the current time. In
// handler mode the record rides on to the dispatch event and is recycled
// when the handler returns; in polling mode the entry is queued by value —
// with a payload copy of its own, since nothing bounds how long it waits to
// be polled — and the record is recycled here.
func (cq *CQ) push(fl *flight) {
	n := cq.node
	atomic.AddInt64(&n.counters.Completions, 1)
	if cq.handler != nil {
		fl.step(stageAcked, stageDispatch)
		fl.cq = cq
		n.eng.At(n.ChargeCPUNamed(n.fab.model.CompletionCost, "cqe"), fl.dispatchFn)
		return
	}
	e := fl.cqe
	if e.Data != nil {
		e.Data = append([]byte(nil), e.Data...)
	}
	cq.queue.Push(e)
	n.putFlight(fl)
	cq.sig.Broadcast()
}

// Poll removes and returns the oldest completion, if any.
func (cq *CQ) Poll() (verbs.CQE, bool) {
	if cq.queue.Len() == 0 {
		return verbs.CQE{}, false
	}
	return cq.queue.Pop(), true
}

// WaitPoll blocks the process until a completion is available, then returns
// it, charging the completion-handling CPU cost.
func (cq *CQ) WaitPoll(p *simtime.Process) verbs.CQE {
	for cq.queue.Len() == 0 {
		p.Wait(&cq.sig)
	}
	e := cq.queue.Pop()
	p.WaitUntil(cq.node.ChargeCPU(cq.node.fab.model.CompletionCost))
	return e
}

// Len reports the number of queued completions (always 0 in handler mode).
func (cq *CQ) Len() int { return cq.queue.Len() }
