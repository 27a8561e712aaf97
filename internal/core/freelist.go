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
// frame and payload buffers, and the request handles a caller hands back —
// is drawn from an endpoint-owned free-list and returned when the message
// retires, so a warm endpoint moves messages allocating nothing but the
// request handles its callers keep. The lists are plain slices, not
// sync.Pools: a GC cycle must not be able to empty them, or allocs/op would
// become nondeterministic and the perf gate (cmd/perfgate) could not pin it.
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

func (ep *Endpoint) getSendOp() *sendOp {
	ep.liveSend++
	if n := len(ep.sendFree); n > 0 {
		op := ep.sendFree[n-1]
		ep.sendFree[n-1] = nil
		ep.sendFree = ep.sendFree[:n-1]
		return op
	}
	return newSendOp(ep)
}

func (ep *Endpoint) getRecvOp() *recvOp {
	ep.liveRecv++
	if n := len(ep.recvFree); n > 0 {
		op := ep.recvFree[n-1]
		ep.recvFree[n-1] = nil
		ep.recvFree = ep.recvFree[:n-1]
		return op
	}
	return newRecvOp(ep)
}

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
	ep.liveSend--
	op.wrs.reset()
	clear(op.segs)
	op.segs = op.segs[:0]
	op.ctsSegs, op.ctsRegs = op.ctsSegs[:0], op.ctsRegs[:0]
	op.reg.drop()
	op.sendMsg = sendMsg{}
	op.gen++
	if poisonSend(op) {
		return
	}
	ep.sendFree = append(ep.sendFree, op)
}

func (ep *Endpoint) recycleRecv(op *recvOp) {
	ep.liveRecv--
	op.wrs.reset()
	clear(op.segs)
	op.segs, op.ctsRefs = op.segs[:0], op.ctsRefs[:0]
	op.reg.drop()
	op.recvMsg = recvMsg{}
	op.gen++
	if poisonRecv(op) {
		return
	}
	ep.recvFree = append(ep.recvFree, op)
}

// --- Arrival records ----------------------------------------------------------

func (ep *Endpoint) getInbound() *inbound {
	ep.liveInb++
	if n := len(ep.inbFree); n > 0 {
		inb := ep.inbFree[n-1]
		ep.inbFree[n-1] = nil
		ep.inbFree = ep.inbFree[:n-1]
		return inb
	}
	inb := &inbound{ep: ep}
	inb.deliveredFn, inb.selfArrivedFn = inb.delivered, inb.selfArrived
	return inb
}

// putInbound recycles an arrival record that has been matched and consumed,
// and the payload buffer it owns.
func (ep *Endpoint) putInbound(inb *inbound) {
	ep.liveInb--
	if inb.ownsData {
		ep.putBuf(inb.data)
	}
	inb.inboundMsg = inboundMsg{}
	inb.gen++
	if poisonInbound(inb) {
		return
	}
	ep.inbFree = append(ep.inbFree, inb)
}

// --- Request handles ----------------------------------------------------------

// newRequest takes a request handle off the free list, or makes one when
// more are out than ever were before.
func (ep *Endpoint) newRequest() *Request {
	ep.liveReq++
	if r := ep.reqFree; r != nil {
		ep.reqFree, r.next = r.next, nil
		return r
	}
	return &Request{ep: ep}
}

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
	ep.liveReq--
	*r = Request{ep: ep, gen: r.gen + 1}
	if poisonRequest(r) {
		return
	}
	r.next, ep.reqFree = ep.reqFree, r
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
		LiveSendOps:  ep.liveSend,
		LiveRecvOps:  ep.liveRecv,
		FreeSendOps:  len(ep.sendFree),
		FreeRecvOps:  len(ep.recvFree),
		ActiveSends:  ep.activeSends,
		ActiveRecvs:  ep.activeRecvs,
		LiveInbound:  ep.liveInb,
		LiveBufs:     ep.liveBufs,
		LiveRequests: ep.liveReq,
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

// --- Eager frame and payload buffers -------------------------------------------

// Eager frames, parked unexpected payloads and self-send payloads come from
// one per-endpoint buffer pool, in power-of-two size classes from 64 B up
// (so a get is a pop, never a search). What bounds the pool is the bytes it
// retains, not a buffer count: a stream of small messages may keep hundreds
// of parked payloads cycling without ever allocating, while a burst of huge
// ones cannot pin its buffers forever.
const (
	minBufShift = 6       // the smallest class holds 64 B buffers
	numBufClass = 12      // the largest, 128 KiB ones
	maxBufBytes = 1 << 20 // retained (parked) bytes per endpoint
	maxBufCap   = 1 << (minBufShift + numBufClass - 1)
)

// bufClass returns the class whose buffers hold at least n bytes.
func bufClass(n int64) int {
	c := 0
	for int64(1)<<(minBufShift+c) < n {
		c++
	}
	return c
}

// getBuf returns a length-n byte buffer, a parked one when its class has
// one. A buffer larger than the largest class is simply allocated.
func (ep *Endpoint) getBuf(n int64) []byte {
	ep.liveBufs++
	if n > maxBufCap {
		return make([]byte, n)
	}
	c := bufClass(n)
	if k := len(ep.bufFree[c]); k > 0 {
		b := ep.bufFree[c][k-1]
		ep.bufFree[c][k-1] = nil
		ep.bufFree[c] = ep.bufFree[c][:k-1]
		ep.bufBytes -= int64(cap(b))
		return b[:n]
	}
	return make([]byte, n, 1<<(minBufShift+c))
}

// putBuf parks a buffer for reuse once nothing references it (the fabric
// copies an Inline payload synchronously inside PostSend), unless the pool
// already retains its fill.
func (ep *Endpoint) putBuf(b []byte) {
	ep.liveBufs--
	n := int64(cap(b))
	if n > maxBufCap || n < 1<<minBufShift || ep.bufBytes+n > maxBufBytes {
		return
	}
	c := bufClass(n)
	if n != 1<<(minBufShift+c) {
		return // not one of ours
	}
	ep.bufBytes += n
	ep.bufFree[c] = append(ep.bufFree[c], b)
}

// --- Control scratch ----------------------------------------------------------

// ctrlW hands out the endpoint's reusable control-frame writer. Safe for any
// build-then-sendCtrl sequence that completes synchronously (every backend
// copies Inline before PostSend returns); frames that are built now but
// posted later (eager messages riding the announce queue) are built in a
// getBuf buffer instead.
func (ep *Endpoint) ctrlW() *ctrlWriter {
	ep.ctrlw.buf = ep.ctrlw.buf[:0]
	return &ep.ctrlw
}

// poolStatsString formats the free-list accounting for DebugState's stall
// diagnosis output.
func (ep *Endpoint) poolStatsString() string {
	return fmt.Sprintf("liveOps(send=%d recv=%d) freeOps(send=%d recv=%d) live(inbound=%d bufs=%d requests=%d)",
		ep.liveSend, ep.liveRecv, len(ep.sendFree), len(ep.recvFree), ep.liveInb, ep.liveBufs, ep.liveReq)
}
