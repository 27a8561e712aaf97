//go:build dtdebug

package core

import (
	"fmt"
	"slices"

	"repro/internal/verbs"
)

// Use-after-recycle guard (go test -tags dtdebug). The pooled records of the
// message path — send and receive ops, arrival records, request handles —
// are reached by steps that run later: bound methods handed to the engine,
// to a pool's waiter queue, to the admission gate. The pin protocol is what
// keeps a record alive until its last step has run; this build is what
// catches the protocol being wrong. A recycled record is stamped freed (its
// generation counter says how many messages it had carried), its pointers
// are scrubbed so that whatever else reads it faults on the spot, and it is
// quarantined — never handed out again — so a stale step cannot find its
// record carrying a later message and quietly corrupt that one: it finds
// the poisoned record, and its guard panics.

// DebugRecords reports whether this build poisons recycled records.
const DebugRecords = true

// recordStamp is a pooled record's debug state.
type recordStamp struct{ freed bool }

func stale(what string, gen uint32) {
	panic(fmt.Sprintf("core: step on a recycled %s (generation %d): a continuation outlived its record", what, gen))
}

func guardSend(op *sendOp) {
	if op.stamp.freed {
		stale("send op", op.gen)
	}
}

func guardRecv(op *recvOp) {
	if op.stamp.freed {
		stale("receive op", op.gen)
	}
}

func guardInbound(inb *inbound) {
	if inb.stamp.freed {
		stale("arrival record", inb.gen)
	}
}

func guardRequest(r *Request) {
	if r.stamp.freed {
		stale("request", r.gen)
	}
}

// The poison functions report true: the record is not to be reused.

func poisonSend(op *sendOp) bool {
	op.stamp.freed, op.ep = true, nil
	return true
}

func poisonRecv(op *recvOp) bool {
	op.stamp.freed, op.ep = true, nil
	return true
}

func poisonInbound(inb *inbound) bool {
	inb.stamp.freed, inb.ep = true, nil
	return true
}

func poisonRequest(r *Request) bool {
	r.stamp.freed, r.ep = true, nil
	return true
}

// poisonWindow does the same to a plan's window before a rebuild: its
// descriptors get an opcode no fabric posts and lose their keys and gather
// lists, and the arrays are never built into again.
func poisonWindow(s *wrSet) bool {
	wrs := s.wrs[:cap(s.wrs)]
	for i := range wrs {
		wrs[i] = verbs.SendWR{Op: -1}
	}
	*s = wrSet{}
	return true
}

// checkPlan rebuilds the window of a plan hit into scratch and panics unless
// the plan's equals it field by field (but for those a post sets).
func checkPlan(ep *Endpoint, op *sendOp) {
	win := op.plan.set.wrs
	op.cur.Reset(op.plan.key.lprog)
	op.rcur.Reset(op.plan.key.rprog)
	want, err := ep.dualWRs(&wrSet{}, verbs.OpRDMAWrite, &op.cur, op.buf, op.reg.refs, &op.rcur, op.rBase, op.ctsRegs, op.eff)
	if err != nil || len(want) != len(win) {
		panic(fmt.Sprintf("core rank %d: a plan holds %d descriptors, a rebuild gives %d (%v)", ep.rank, len(win), len(want), err))
	}
	want[len(want)-1].Op, want[len(want)-1].Imm = verbs.OpRDMAWriteImm, win[len(win)-1].Imm
	for i := range want {
		if a, b := want[i], win[i]; a.Op != b.Op || a.RemoteAddr != b.RemoteAddr || a.RKey != b.RKey || a.Imm != b.Imm || b.Inline != nil || !slices.Equal(a.SGL, b.SGL) {
			panic(fmt.Sprintf("core rank %d: planned descriptor %d of %d is %+v, a rebuild gives %+v", ep.rank, i, len(win), b, a))
		}
	}
}
