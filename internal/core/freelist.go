package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/verbs"
)

// Allocation discipline for the warm message path (DESIGN.md §16).
//
// Every per-message object the protocol needs — the send and receive op
// records with their RDMA descriptor and scatter/gather arenas, pack state
// and layout cursors, the arrival records of the matching queues, eager
// frame and payload buffers, and request handles — is drawn from an
// endpoint-owned free-list (mem.FreeList, mem.BufPool) and returned when the
// message retires or, for a handle, when a wait releases it or its caller
// frees it. So a warm endpoint moves messages allocating nothing; only a
// handle its caller keeps is left to the collector. A list that runs dry
// makes as many records as are live, so it grows about log₂(peak) times,
// almost all of them during warm-up.
//
// Ownership protocol:
//
//   - An op is LIVE from getSendOp/getRecvOp until recycle. A rendezvous op
//     is ACTIVE while linked into its peer's table (addSendOp ..
//     removeSendOp); an eager send op never is.
//   - finishSend/finishRecv and finalizeSendAbort/finalizeRecvAbort unlink
//     the op and call retireSend/retireRecv exactly once; an eager send
//     retires as soon as its frame is built.
//   - A step that can fire after the op retires (its announce, admission
//     parking, a pool wait, a registration or staging walk, a deferred
//     unpack or eager completion) PINS the op before it is handed out and
//     unpins when it runs; descriptor completions need no pin because
//     op.wrsLeft > 0 already blocks finalization. A retired op recycles when
//     its last pin drops. The steps are methods of the record, bound once
//     when it is made, and read their operands from its fields.
//   - recycle zeroes the per-message state but keeps slice and arena
//     capacity, so the next message on this endpoint reuses the same backing
//     memory. Under -tags dtdebug a recycled record is poisoned and never
//     reused, so a step that fires on it panics (debug_on.go).

// peerState shards the endpoint's per-peer protocol state: the active send
// and receive ops for that peer (small slices — linear scan and swap-delete
// stay allocation-free where map inserts do not) and the announce order.
type peerState struct {
	sends []*sendOp
	recvs []*recvOp
	ann   annQueue
}

// peer returns (lazily creating) the state shard for peer id. Shards are
// pointer-stable once created.
func (ep *Endpoint) peer(id int) *peerState {
	for id >= len(ep.peers) {
		ep.peers = append(ep.peers, nil)
	}
	p := ep.peers[id]
	if p == nil {
		p = &peerState{}
		ep.peers[id] = p
	}
	return p
}

// --- Active-op tables ---------------------------------------------------------

func (ep *Endpoint) addSendOp(op *sendOp) {
	p := ep.peer(op.dst)
	p.sends = append(p.sends, op)
	ep.activeSends++
}

func (ep *Endpoint) lookupSendOp(dst int, id uint32) *sendOp {
	if dst < 0 || dst >= len(ep.peers) || ep.peers[dst] == nil {
		return nil
	}
	for _, op := range ep.peers[dst].sends {
		if op.id == id {
			return op
		}
	}
	return nil
}

// removeSendOp unlinks op from its peer table; it reports false when the op
// was already unlinked, making finalization idempotent.
func (ep *Endpoint) removeSendOp(op *sendOp) bool {
	if op.dst < 0 || op.dst >= len(ep.peers) || ep.peers[op.dst] == nil {
		return false
	}
	s := ep.peers[op.dst].sends
	for i, o := range s {
		if o == op {
			last := len(s) - 1
			s[i] = s[last]
			s[last] = nil
			ep.peers[op.dst].sends = s[:last]
			ep.activeSends--
			return true
		}
	}
	return false
}

func (ep *Endpoint) addRecvOp(op *recvOp) {
	p := ep.peer(op.key.src)
	p.recvs = append(p.recvs, op)
	ep.activeRecvs++
}

func (ep *Endpoint) lookupRecvOp(src int, id uint32) *recvOp {
	if src < 0 || src >= len(ep.peers) || ep.peers[src] == nil {
		return nil
	}
	for _, op := range ep.peers[src].recvs {
		if op.key.op == id {
			return op
		}
	}
	return nil
}

// removeRecvOp unlinks op from its peer table; it reports false when the op
// was already unlinked.
func (ep *Endpoint) removeRecvOp(op *recvOp) bool {
	src := op.key.src
	if src < 0 || src >= len(ep.peers) || ep.peers[src] == nil {
		return false
	}
	s := ep.peers[src].recvs
	for i, o := range s {
		if o == op {
			last := len(s) - 1
			s[i] = s[last]
			s[last] = nil
			ep.peers[src].recvs = s[:last]
			ep.activeRecvs--
			return true
		}
	}
	return false
}

// --- Op free-lists and pinning ------------------------------------------------

func (ep *Endpoint) getSendOp() *sendOp { return ep.sendOps.Get(ep.newSendOp) }

func (ep *Endpoint) getRecvOp() *recvOp { return ep.recvOps.Get(ep.newRecvOp) }

// pinSend keeps op's state alive for a step that may fire after the op
// retires. Every pin must be balanced by exactly one unpinSend.
func (ep *Endpoint) pinSend(op *sendOp) { op.pins++ }

// unpinSend drops one pin; the last pin off a retired op recycles it.
func (ep *Endpoint) unpinSend(op *sendOp) {
	op.pins--
	if op.pins < 0 {
		panic("core: sendOp unpin without pin")
	}
	if op.pins == 0 && op.retired {
		ep.recycleSend(op)
	}
}

// pinRecv is pinSend for receiver-side ops.
func (ep *Endpoint) pinRecv(op *recvOp) { op.pins++ }

// unpinRecv drops one pin; the last pin off a retired op recycles it.
func (ep *Endpoint) unpinRecv(op *recvOp) {
	op.pins--
	if op.pins < 0 {
		panic("core: recvOp unpin without pin")
	}
	if op.pins == 0 && op.retired {
		ep.recycleRecv(op)
	}
}

// retireSend marks an unlinked op done with the protocol; it recycles now or
// when the last outstanding pin drops.
func (ep *Endpoint) retireSend(op *sendOp) {
	if op.retired {
		panic("core: sendOp retired twice")
	}
	op.retired = true
	if op.pins == 0 {
		ep.recycleSend(op)
	}
}

// retireRecv is retireSend for receiver-side ops.
func (ep *Endpoint) retireRecv(op *recvOp) {
	if op.retired {
		panic("core: recvOp retired twice")
	}
	op.retired = true
	if op.pins == 0 {
		ep.recycleRecv(op)
	}
}

func (ep *Endpoint) recycleSend(op *sendOp) {
	op.wrs.reset()
	clear(op.segs)
	op.segs = op.segs[:0]
	op.ctsSegs, op.ctsRegs = op.ctsSegs[:0], op.ctsRegs[:0]
	op.reg.drop()
	op.sendMsg = sendMsg{}
	op.gen++
	if poisonSend(op) {
		ep.sendOps.Drop()
		return
	}
	ep.sendOps.Put(op)
}

func (ep *Endpoint) recycleRecv(op *recvOp) {
	op.wrs.reset()
	clear(op.segs)
	op.segs = op.segs[:0]
	op.reg.drop()
	op.recvMsg = recvMsg{}
	op.gen++
	if poisonRecv(op) {
		ep.recvOps.Drop()
		return
	}
	ep.recvOps.Put(op)
}

// --- Arrival records ----------------------------------------------------------

func (ep *Endpoint) getInbound() *inbound { return ep.inbs.Get(ep.newInbound) }

func (ep *Endpoint) newInbound(inb *inbound) {
	inb.ep, inb.deliveredFn, inb.selfArrivedFn = ep, inb.delivered, inb.selfArrived
}

// putInbound recycles an arrival record that has been matched and consumed,
// and the payload buffer it owns.
func (ep *Endpoint) putInbound(inb *inbound) {
	if inb.ownsData {
		ep.bufs.Put(inb.data)
	}
	inb.inboundMsg = inboundMsg{}
	inb.gen++
	if poisonInbound(inb) {
		ep.inbs.Drop()
		return
	}
	ep.inbs.Put(inb)
}

// --- Request handles ----------------------------------------------------------

// newRequest takes a request handle off the free list.
func (ep *Endpoint) newRequest() *Request { return ep.reqs.Get(ep.makeRequest) }

func (ep *Endpoint) makeRequest(r *Request) { r.ep = ep }

// Free hands a completed request back to its endpoint for reuse, the way
// MPI_Wait sets a handle to MPI_REQUEST_NULL. WaitRelease does it for every
// blocking call and for mpi's waits; a caller of WaitAll or WaitAny does it
// itself, or leaves the handle to the collector. The handle must not be used
// afterwards.
func (r *Request) Free() {
	if !r.done {
		panic("core: Free of a request that has not completed")
	}
	ep := r.ep
	*r = Request{ep: ep, gen: r.gen + 1}
	if poisonRequest(r) {
		ep.reqs.Drop()
		return
	}
	ep.reqs.Put(r)
}

// PoolStats reports the endpoint's warm-path free-list accounting. At world
// quiescence — every request completed or aborted, every message received,
// all fabric events drained — the live counts must be zero and every record
// must have returned to its free-list; the abort-path soak tests assert
// exactly that.
type PoolStats struct {
	// LiveSendOps / LiveRecvOps count ops handed out and not yet recycled
	// (active, or retired but still pinned by an outstanding step).
	LiveSendOps int
	LiveRecvOps int
	// FreeSendOps / FreeRecvOps count ops parked on the free-lists.
	FreeSendOps int
	FreeRecvOps int
	// ActiveSends / ActiveRecvs count ops currently linked in the per-peer
	// tables (the admission gate's notion of "active").
	ActiveSends int
	ActiveRecvs int
	// LiveInbound counts arrival records out: queued unexpected, or
	// delivering. LiveBufs counts eager frame and payload buffers out.
	LiveInbound int
	LiveBufs    int
	// LiveRequests counts request handles handed out and not handed back
	// with Free; a caller that keeps or drops its handles leaves them
	// counted.
	LiveRequests int
	// LiveWRs counts completion records out with posted descriptors.
	LiveWRs int
}

// PoolStats returns the current free-list accounting snapshot.
func (ep *Endpoint) PoolStats() PoolStats {
	return PoolStats{
		LiveSendOps:  ep.sendOps.Live(),
		LiveRecvOps:  ep.recvOps.Live(),
		FreeSendOps:  len(ep.sendOps.Parked()),
		FreeRecvOps:  len(ep.recvOps.Parked()),
		ActiveSends:  ep.activeSends,
		ActiveRecvs:  ep.activeRecvs,
		LiveInbound:  ep.inbs.Live(),
		LiveBufs:     ep.bufs.Live(),
		LiveRequests: ep.reqs.Live(),
		LiveWRs:      ep.wrLive(),
	}
}

// --- Descriptor arena ---------------------------------------------------------

// wrSet is an op-owned descriptor arena: chunkWRs and the single-descriptor
// builders append into it and hand out windows, so the warm path builds WR
// and SGE lists without allocating. The arena only resets at op recycle —
// the fabric reads a posted list where it lies (verbs.SendWR: the descriptor
// array and the SGE arrays stay untouched until the post's last completion;
// on the real-time fabric it is the responder goroutine that reads them),
// and the op's last completion is what finalization waits for (wrsLeft == 0).
type wrSet struct {
	wrs []verbs.SendWR
	sge []verbs.SGE
}

func (s *wrSet) reset() {
	for i := range s.wrs {
		s.wrs[i] = verbs.SendWR{}
	}
	s.wrs = s.wrs[:0]
	s.sge = s.sge[:0]
}

// sgl1 appends a single SGE and returns its sealed one-element gather list.
func (s *wrSet) sgl1(e verbs.SGE) []verbs.SGE {
	start := len(s.sge)
	s.sge = append(s.sge, e)
	return s.sge[start:len(s.sge):len(s.sge)]
}

// next grows the arena by one descriptor and returns the slot, zero — reset
// left it so — for the builder to fill in place: appending a SendWR value
// would build it on the stack and copy its 96 bytes in.
func (s *wrSet) next() *verbs.SendWR {
	if len(s.wrs) == cap(s.wrs) {
		s.wrs = append(s.wrs, verbs.SendWR{})
	} else {
		s.wrs = s.wrs[:len(s.wrs)+1]
	}
	return &s.wrs[len(s.wrs)-1]
}

// one appends a single-SGE write-with-immediate descriptor and returns its
// one-element window (the shape postWRs consumes).
func (s *wrSet) one(opc verbs.Opcode, e verbs.SGE, rAddr mem.Addr, rKey, imm uint32) []verbs.SendWR {
	sgl := s.sgl1(e)
	w := s.next()
	w.Op, w.SGL, w.RemoteAddr, w.RKey, w.Imm = opc, sgl, rAddr, rKey, imm
	n := len(s.wrs)
	return s.wrs[n-1 : n : n]
}

// --- Control scratch ----------------------------------------------------------

// ctrlW hands out the endpoint's reusable control-frame writer. Safe for any
// build-then-sendCtrl sequence that completes synchronously (every backend
// copies Inline before PostSend returns); frames that are built now but
// posted later (eager messages riding the announce queue) are built in a
// buffer of ep.bufs instead.
func (ep *Endpoint) ctrlW() *ctrlWriter {
	ep.ctrlw.buf = ep.ctrlw.buf[:0]
	return &ep.ctrlw
}

// poolStatsString formats the free-list accounting for DebugState's stall
// diagnosis output.
func (ep *Endpoint) poolStatsString() string {
	return fmt.Sprintf("liveOps(send=%d recv=%d) freeOps(send=%d recv=%d) live(inbound=%d bufs=%d requests=%d)",
		ep.sendOps.Live(), ep.recvOps.Live(), len(ep.sendOps.Parked()), len(ep.recvOps.Parked()), ep.inbs.Live(), ep.bufs.Live(), ep.reqs.Live())
}
