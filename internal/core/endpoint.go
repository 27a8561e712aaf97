package core

import (
	"sync/atomic"

	"errors"
	"fmt"

	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/qos"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/verbs"
)

// Wildcards for receive matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// ErrTruncate reports that an incoming message was larger than the posted
// receive buffer; the receive completes with the truncated byte count.
var ErrTruncate = errors.New("core: message truncated")

// initialCredits is the number of receive credits pre-posted per QP;
// each consumed credit is immediately replenished.
const initialCredits = 1024

// Request is a communication request (the MPI_Request analogue). It
// completes through the simulation's event machinery; processes block on it
// with Wait.
type Request struct {
	ep     *Endpoint
	isRecv bool
	done   bool
	sig    simtime.Signal

	// Err is nil on success; ErrTruncate on a truncated receive.
	Err error
	// Source and Tag identify the matched message on a completed receive.
	Source int
	Tag    int
	// Bytes is the payload size transferred.
	Bytes int64

	// Receive-side posting information.
	buf     mem.Addr
	count   int
	dt      *datatype.Type
	ctxWant int
	srcWant int
	tagWant int
	seq     uint64 // post-order stamp within the matching index
}

// Done reports whether the request has completed.
func (r *Request) Done() bool { return r.done }

// Wait blocks the process until the request completes.
func (r *Request) Wait(p *simtime.Process) {
	for !r.done {
		p.Wait(&r.sig)
	}
}

func (r *Request) complete(err error) {
	if r.done {
		panic("core: double completion of request")
	}
	r.done = true
	if err != nil && r.Err == nil {
		r.Err = err
	}
	r.sig.Broadcast()
	if r.ep != nil {
		r.ep.reqSig.Broadcast()
	}
}

// WaitAll blocks until every request completes.
func WaitAll(p *simtime.Process, reqs ...*Request) {
	for _, r := range reqs {
		r.Wait(p)
	}
}

// WaitAny blocks until at least one request completes and returns its index
// (the lowest, if several completed together). All requests must belong to
// the same endpoint.
func WaitAny(p *simtime.Process, reqs ...*Request) int {
	if len(reqs) == 0 {
		panic("core: WaitAny with no requests")
	}
	ep := reqs[0].ep
	for {
		for i, r := range reqs {
			if r.ep != ep {
				panic("core: WaitAny across endpoints")
			}
			if r.done {
				return i
			}
		}
		p.Wait(&ep.reqSig)
	}
}

// inbound is a message that arrived before a matching receive was posted:
// an eager payload or a rendezvous start.
type inbound struct {
	kind    uint8 // kindEager or kindRTS
	ctx     int   // communicator context
	src     int
	tag     int
	opID    uint32
	size    int64
	data    []byte // packed eager payload
	sAvg    int64  // sender's average run length (RTS, for Auto)
	sContig bool   // sender layout contiguous (RTS)
	failed  bool   // sender aborted this RTS before it was matched
	claimed bool   // matched and removed; tombstone in the arrival-order list
}

// Endpoint is one rank's datatype communication engine. All methods must be
// called from simulation context (a Process body or an event handler).
type Endpoint struct {
	rank   int
	node   string // tracer process name ("rank3")
	eng    *simtime.Engine
	hca    verbs.HCA
	model  *verbs.Model
	memory *mem.Memory
	cfg    Config
	ctr    *stats.Counters

	// regGauge tracks currently pinned pages (nil-safe no-op without a
	// metrics registry).
	regGauge *stats.Gauge

	qps    []verbs.QP // indexed by peer rank; nil for self
	sendCQ verbs.CQ
	recvCQ verbs.CQ

	packPool   *segPool
	unpackPool *segPool
	userReg    *mem.RegCache
	stagingReg *mem.RegCache

	recvQ      recvIndex      // posted receives, indexed per (ctx, src, tag)
	unexp      unexpIndex     // unexpected arrivals, indexed per (ctx, src, tag)
	arrivalSig simtime.Signal // broadcast when an unexpected message queues
	reqSig     simtime.Signal // broadcast whenever any request completes

	nextOp uint32

	// peers shards per-peer protocol state — the active send/recv ops and
	// the announce order (see peerState in freelist.go). The announce queue
	// serializes message announces (kindEager / kindRTS) per destination: a
	// slot is reserved at Isend time and the queue drains strictly FIFO, so
	// a registration retry that delays one message's RTS cannot let a later
	// message's announce overtake it on the wire — the receiver matches
	// announces in arrival order, so announce order IS MPI's non-overtaking
	// guarantee.
	peers       []*peerState
	activeSends int // ops linked across all peers[i].sends
	activeRecvs int // ops linked across all peers[i].recvs

	// Warm-path free-lists and scratch (freelist.go): per-message protocol
	// objects recycle through the endpoint instead of the allocator.
	sendFree      []*sendOp
	recvFree      []*recvOp
	liveSend      int
	liveRecv      int
	annFree       []*annSlot
	bufFree       [][]byte
	ctrlw         ctrlWriter       // synchronous build→send control frames
	batchScratch  [][]verbs.SendWR // postWRs doorbell-split scratch
	ctsSegScratch []segRef         // dead-CTS parse scratch
	ctsRegScratch []regRef         // dead-CTS parse scratch
	mc            metricCache      // lazily bound metric handles (observe.go)

	// Service mode (cfg.QoS != nil): lanes arbitrates bulk descriptor
	// posting per peer, gate parks whole bulk transfers under resource
	// pressure. Both are nil when QoS is disabled.
	lanes  *qos.Arbiter
	gate   *qos.Gate
	qosPol qos.Policy

	// Completion records of posted descriptors (wr.go): wrTab is indexed by
	// the low half of the work-request ID, wrFree holds the recycled ones.
	wrTab  []*wrRec
	wrFree []*wrRec

	types   *typeRegistry
	layouts *layoutCache
	progs   *programCache
}

type opKey struct {
	src int
	op  uint32
}

// NewEndpoint creates the engine for one rank on the given HCA. Peers are
// wired afterwards with ConnectPeers.
func NewEndpoint(rank int, hca verbs.HCA, cfg Config) (*Endpoint, error) {
	ep := &Endpoint{
		rank:    rank,
		node:    fmt.Sprintf("rank%d", rank),
		eng:     hca.Engine(),
		hca:     hca,
		model:   hca.Model(),
		memory:  hca.Mem(),
		cfg:     cfg,
		ctr:     hca.Counters(),
		types:   newTypeRegistry(),
		layouts: newLayoutCache(),
		progs:   &programCache{},
	}
	ep.recvQ.init()
	ep.unexp.init()
	ep.sendCQ = hca.NewCQ()
	ep.recvCQ = hca.NewCQ()
	ep.sendCQ.SetHandler(ep.handleSendCQE)
	ep.recvCQ.SetHandler(ep.handleRecvCQE)

	var err error
	ep.packPool, err = newSegPool(ep.memory, cfg.PoolSize, cfg.SegmentSize, cfg.PoolShards, cfg.UsePools)
	if err != nil {
		return nil, err
	}
	ep.unpackPool, err = newSegPool(ep.memory, cfg.PoolSize, cfg.SegmentSize, cfg.PoolShards, cfg.UsePools)
	if err != nil {
		return nil, err
	}
	// Observability: pool park counting and occupancy/registration gauges.
	// A nil Metrics registry hands out nil gauges, which are no-op sinks.
	ep.packPool.ctr = ep.ctr
	ep.unpackPool.ctr = ep.ctr
	ep.packPool.gauge = cfg.Metrics.Gauge("pool_used/pack")
	ep.unpackPool.gauge = cfg.Metrics.Gauge("pool_used/unpack")
	ep.regGauge = cfg.Metrics.Gauge("registered_pages")
	ep.userReg = mem.NewRegCache(ep.memory.Reg(), cfg.RegCacheCapacity, cfg.RegCache)
	ep.stagingReg = mem.NewRegCache(ep.memory.Reg(), cfg.RegCacheCapacity, cfg.RegCache)
	if inj := hca.Injector(); inj != nil {
		ep.userReg.SetFaultFn(inj.RegFault)
		ep.stagingReg.SetFaultFn(inj.RegFault)
	}
	if cfg.QoS != nil {
		ep.qosPol = *cfg.QoS
		ep.lanes = qos.NewArbiter(ep.qosPol)
		ep.gate = qos.NewGate(ep.qosPol)
	}
	return ep, nil
}

// ConnectPeers wires RC queue pairs between every pair of endpoints and
// pre-posts receive credits.
func ConnectPeers(eps []*Endpoint) {
	n := len(eps)
	for _, ep := range eps {
		if ep.qps == nil {
			ep.qps = make([]verbs.QP, n)
		}
	}
	credits := creditsFor(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := eps[i], eps[j]
			qa, qb := a.hca.Connect(b.hca, a.sendCQ, a.recvCQ, b.sendCQ, b.recvCQ)
			qa.SetUserData(j)
			qb.SetUserData(i)
			a.qps[j] = qa
			b.qps[i] = qb
			for k := 0; k < credits; k++ {
				qa.PostRecv(verbs.RecvWR{})
				qb.PostRecv(verbs.RecvWR{})
			}
		}
	}
}

// Rank returns this endpoint's rank.
func (ep *Endpoint) Rank() int { return ep.rank }

// Size returns the number of connected ranks (including self).
func (ep *Endpoint) Size() int { return len(ep.qps) }

// Mem returns the rank's simulated memory.
func (ep *Endpoint) Mem() *mem.Memory { return ep.memory }

// Counters returns the rank's statistics counters.
func (ep *Endpoint) Counters() *stats.Counters { return ep.ctr }

// Config returns the endpoint configuration.
func (ep *Endpoint) Config() Config { return ep.cfg }

// Engine returns the simulation engine.
func (ep *Endpoint) Engine() *simtime.Engine { return ep.eng }

// CommitType assigns (or returns) the rank-local index of a datatype, the
// identity shipped in Multi-W layout exchanges.
func (ep *Endpoint) CommitType(t *datatype.Type) int { return ep.types.commit(t) }

// FreeType releases a datatype's index for reuse and drops the index's
// compiled programs; the next type committed to the same index gets a bumped
// version so peers' caches detect staleness.
func (ep *Endpoint) FreeType(t *datatype.Type) {
	if idx, ok := ep.types.free(t); ok {
		ep.progs.free(idx)
	}
}

func (ep *Endpoint) accountReg(ops mem.RegOps) {
	atomic.AddInt64(&ep.ctr.Registrations, ops.Registrations)
	atomic.AddInt64(&ep.ctr.RegisteredBytes, ops.RegisteredBytes)
	atomic.AddInt64(&ep.ctr.RegisteredPages, ops.RegisteredPages)
	atomic.AddInt64(&ep.ctr.Deregistrations, ops.Dereg)
	atomic.AddInt64(&ep.ctr.DeregisteredPages, ops.DeregPages)
	atomic.AddInt64(&ep.ctr.RegCacheHits, ops.Hits)
	atomic.AddInt64(&ep.ctr.RegCacheMisses, ops.Misses)
	atomic.AddInt64(&ep.ctr.RegCacheEvictions, ops.Evictions)
	ep.regGauge.Add(ops.RegisteredPages - ops.DeregPages)
}

// after charges the endpoint CPU for d and runs fn when the work finishes.
func (ep *Endpoint) after(d simtime.Duration, fn func()) {
	ep.afterNamed(d, "host", fn)
}

// afterNamed is after with an activity label for the tracer.
func (ep *Endpoint) afterNamed(d simtime.Duration, name string, fn func()) {
	end := ep.hca.ChargeCPUNamed(d, name)
	ep.eng.At(end, fn)
}

// annSlot is one reserved position in a peer's announce order.
type annSlot struct {
	ready bool
	fn    func()
}

// reserveAnnounce claims the next announce position for dst. Must be called
// synchronously at Isend time, before any virtual-time deferral, so the
// slot order equals the MPI posting order.
func (ep *Endpoint) reserveAnnounce(dst int) *annSlot {
	s := ep.getAnnSlot()
	q := &ep.peer(dst).ann
	q.s = append(q.s, s)
	return s
}

// announceReady supplies the slot's post closure (which may be a no-op for
// an op that died before announcing) and drains the queue head while it is
// ready. An announce delayed by registration backoff thus blocks every
// later announce to the same peer instead of being overtaken by one.
// Drained slots are nilled out immediately — their post closures capture
// packed payloads — then recycled to the slot free-list (safe because post
// closures only build and send control frames; they never reenter the
// announce machinery), and the backing array is released once fully drained,
// so the queue retains nothing for completed announces.
func (ep *Endpoint) announceReady(dst int, s *annSlot, fn func()) {
	s.ready, s.fn = true, fn
	q := &ep.peer(dst).ann
	for q.head < len(q.s) && q.s[q.head].ready {
		slot := q.s[q.head]
		q.s[q.head] = nil
		q.head++
		slot.fn()
		ep.putAnnSlot(slot)
	}
	if q.head == len(q.s) {
		if cap(q.s) > 256 {
			q.s = nil
		} else {
			q.s = q.s[:0]
		}
		q.head = 0
	}
}

// sendCtrl posts a control message to a peer. Its completion carries
// nothing to do, so it is posted without a completion record (WRID 0).
func (ep *Endpoint) sendCtrl(dst int, payload []byte) {
	atomic.AddInt64(&ep.ctr.CtrlMessages, 1)
	if err := ep.qps[dst].PostSend(verbs.SendWR{Op: verbs.OpSend, Inline: payload}); err != nil {
		panic(fmt.Sprintf("core: ctrl send failed: %v", err))
	}
}

func (ep *Endpoint) handleRecvCQE(e verbs.CQE) {
	// Replenish the consumed credit.
	e.QP.PostRecv(verbs.RecvWR{})
	src := e.QP.UserData()
	if e.Data != nil {
		ep.handleCtrl(src, e.Data)
		return
	}
	if !e.HasImm {
		panic("core: receive completion with neither data nor immediate")
	}
	ep.handleImm(src, e.Imm, e.Bytes)
}

// --- Send / receive entry points ------------------------------------------

// Isend starts a nonblocking send of (buf, count, dt) to rank dst with tag
// in the default (world) communicator context.
func (ep *Endpoint) Isend(buf mem.Addr, count int, dt *datatype.Type, dst, tag int) *Request {
	return ep.IsendCtx(0, buf, count, dt, dst, tag)
}

// IsendCtx is Isend within an explicit communicator context: messages match
// receives only within the same context.
func (ep *Endpoint) IsendCtx(ctx int, buf mem.Addr, count int, dt *datatype.Type, dst, tag int) *Request {
	req := &Request{ep: ep, Source: ep.rank, Tag: tag}
	size := dt.Size() * int64(count)
	req.Bytes = size
	switch {
	case dst == ep.rank:
		ep.selfSend(req, ctx, buf, count, dt, tag)
	case size < ep.cfg.EagerThreshold:
		ep.eagerSend(req, ctx, buf, count, dt, dst, tag)
	default:
		ep.rndvSend(req, ctx, buf, count, dt, dst, tag)
	}
	return req
}

// IssendCtx starts a synchronous-mode send: it always uses the rendezvous
// protocol, so completion implies the receive has been matched
// (MPI_Issend). Self sends fall back to standard semantics.
func (ep *Endpoint) IssendCtx(ctx int, buf mem.Addr, count int, dt *datatype.Type, dst, tag int) *Request {
	req := &Request{ep: ep, Source: ep.rank, Tag: tag}
	req.Bytes = dt.Size() * int64(count)
	if dst == ep.rank {
		ep.selfSend(req, ctx, buf, count, dt, tag)
		return req
	}
	ep.rndvSend(req, ctx, buf, count, dt, dst, tag)
	return req
}

// Ssend is the blocking synchronous-mode send in the world context.
func (ep *Endpoint) Ssend(p *simtime.Process, buf mem.Addr, count int, dt *datatype.Type, dst, tag int) error {
	r := ep.IssendCtx(0, buf, count, dt, dst, tag)
	r.Wait(p)
	return r.Err
}

// Irecv posts a nonblocking receive into (buf, count, dt) from rank src
// (or AnySource) with tag (or AnyTag) in the default (world) context.
func (ep *Endpoint) Irecv(buf mem.Addr, count int, dt *datatype.Type, src, tag int) *Request {
	return ep.IrecvCtx(0, buf, count, dt, src, tag)
}

// IrecvCtx is Irecv within an explicit communicator context.
func (ep *Endpoint) IrecvCtx(ctx int, buf mem.Addr, count int, dt *datatype.Type, src, tag int) *Request {
	req := &Request{
		ep: ep, isRecv: true,
		buf: buf, count: count, dt: dt, ctxWant: ctx, srcWant: src, tagWant: tag,
	}
	if inb := ep.unexp.take(ctx, src, tag); inb != nil {
		ep.deliver(inb, req)
		return req
	}
	ep.recvQ.post(req)
	return req
}

// Send is the blocking form of Isend.
func (ep *Endpoint) Send(p *simtime.Process, buf mem.Addr, count int, dt *datatype.Type, dst, tag int) error {
	r := ep.Isend(buf, count, dt, dst, tag)
	r.Wait(p)
	return r.Err
}

// Recv is the blocking form of Irecv; it returns the completed request for
// its status fields.
func (ep *Endpoint) Recv(p *simtime.Process, buf mem.Addr, count int, dt *datatype.Type, src, tag int) (*Request, error) {
	r := ep.Irecv(buf, count, dt, src, tag)
	r.Wait(p)
	return r, r.Err
}

func matchWanted(wantCtx, wantSrc, wantTag, ctx, src, tag int) bool {
	return wantCtx == ctx &&
		(wantSrc == AnySource || wantSrc == src) &&
		(wantTag == AnyTag || wantTag == tag)
}

// matchPosted finds and removes the first posted receive matching
// (ctx, src, tag).
func (ep *Endpoint) matchPosted(ctx, src, tag int) *Request {
	return ep.recvQ.match(ctx, src, tag)
}

// deliver routes a matched inbound message to its receive request.
func (ep *Endpoint) deliver(inb *inbound, req *Request) {
	switch inb.kind {
	case kindEager:
		ep.eagerDeliver(inb, req)
	case kindRTS:
		if inb.failed {
			// The sender aborted this transfer before we matched it; fail
			// the receive promptly instead of waiting for data forever.
			req.Source = inb.src
			req.Tag = inb.tag
			atomic.AddInt64(&ep.ctr.RequestsFailed, 1)
			req.complete(fmt.Errorf("%w (sender rank %d)", ErrRemoteAbort, inb.src))
			return
		}
		ep.rndvMatched(inb, req)
	default:
		panic("core: bad inbound kind")
	}
}

// --- Eager protocol ---------------------------------------------------------

// eagerSend transfers small messages through the Eager protocol. With the
// Generic scheme, data is packed into a temporary buffer and then copied to
// the protocol's internal buffer (Figure 1); every other scheme packs
// directly into the internal buffer (the improved path of Figure 7).
func (ep *Endpoint) eagerSend(req *Request, ctx int, buf mem.Addr, count int, dt *datatype.Type, dst, tag int) {
	slot := ep.reserveAnnounce(dst)
	size := dt.Size() * int64(count)
	payload := ep.getBuf(size)
	p := ep.newPacker(buf, dt, count)
	n, runs := p.PackTo(payload)
	if n != size {
		panic("core: short pack")
	}
	var cost simtime.Duration
	if dt.Contig() {
		// Contiguous data: one copy into the internal buffer either way.
		cost = ep.model.CopyTime(size, 1)
		atomic.AddInt64(&ep.ctr.BytesStaged, size)
	} else if ep.cfg.Scheme == SchemeGeneric {
		// Pack to temp buffer, then copy temp into the internal buffer.
		cost = ep.model.MallocTime(size) +
			ep.cfg.packCost(ep.model, size, runs) +
			ep.model.CopyTime(size, 1)
		atomic.AddInt64(&ep.ctr.BytesPacked, size)
		atomic.AddInt64(&ep.ctr.BytesStaged, size)
	} else {
		cost = ep.cfg.packCost(ep.model, size, runs)
		atomic.AddInt64(&ep.ctr.BytesPacked, size)
	}
	atomic.AddInt64(&ep.ctr.EagerSends, 1)

	// The frame buffer is pooled, not the endpoint's synchronous ctrl
	// scratch: the announce may be queued behind an earlier message's
	// delayed RTS and posted later, so it needs its own storage. The packed
	// payload is copied into the frame here, so both buffers return to the
	// free-list as soon as their last reader is done — the payload now, the
	// frame once the fabric has copied it inline (PostSend does that
	// synchronously inside sendCtrl).
	w := ctrlWriter{buf: ep.getBuf(0)}
	w.u8(kindEager)
	w.u32(uint32(ctx))
	w.u32(uint32(tag))
	w.i64(size)
	w.bytes(payload)
	ep.putBuf(payload)

	// Charge the pack, then post through the announce queue: the CPU
	// resource already orders the wire message after the pack work, and the
	// queue keeps wire order equal to Isend call order — MPI's
	// non-overtaking guarantee — even when an earlier rendezvous send's RTS
	// is sitting in a registration-retry backoff.
	t0 := ep.tnow()
	end := ep.hca.ChargeCPUNamed(cost, "pack")
	ep.announceReady(dst, slot, func() {
		ep.sendCtrl(dst, w.buf)
		ep.putBuf(w.buf)
	})
	// The eager send completes once the data has left the user buffer.
	ep.eng.At(end, func() {
		ep.span("eager send", "data", 0, size, t0)
		req.complete(nil)
	})
}

// handleCtrl dispatches an arrived control message.
func (ep *Endpoint) handleCtrl(src int, data []byte) {
	r := &ctrlReader{buf: data}
	kind := r.u8()
	switch kind {
	case kindEager:
		ctx := int(int32(r.u32()))
		tag := int(int32(r.u32()))
		size := r.i64()
		payload := r.bytes()
		if r.err != nil {
			panic(r.err)
		}
		inb := &inbound{kind: kindEager, ctx: ctx, src: src, tag: tag, size: size, data: payload}
		if req := ep.matchPosted(ctx, src, tag); req != nil {
			ep.eagerDeliver(inb, req)
			return
		}
		// Unexpected: MPICH copies the payload aside into an unexpected-
		// message buffer; charge that staging copy.
		atomic.AddInt64(&ep.ctr.BytesStaged, size)
		ep.hca.ChargeCPU(ep.model.CopyTime(size, 1))
		ep.unexp.add(inb)
		ep.arrivalSig.Broadcast()
	case kindRTS:
		inb := &inbound{kind: kindRTS, src: src}
		inb.opID = r.u32()
		inb.ctx = int(int32(r.u32()))
		inb.tag = int(int32(r.u32()))
		inb.size = r.i64()
		inb.sAvg = r.i64()
		inb.sContig = r.u8() != 0
		if r.err != nil {
			panic(r.err)
		}
		if req := ep.matchPosted(inb.ctx, src, inb.tag); req != nil {
			ep.rndvMatched(inb, req)
			return
		}
		ep.unexp.add(inb)
		ep.arrivalSig.Broadcast()
	case kindCTS:
		ep.handleCTS(src, r)
	case kindSegReady:
		ep.handleSegReady(src, r)
	case kindDone:
		ep.handleDone(src, r)
	case kindSendFail:
		ep.handleSendFail(src, r)
	case kindRecvFail:
		ep.handleRecvFail(src, r)
	default:
		panic(fmt.Sprintf("core: bad control kind %d", kind))
	}
}

// eagerDeliver unpacks a matched eager payload into the receive buffer.
func (ep *Endpoint) eagerDeliver(inb *inbound, req *Request) {
	capacity := req.dt.Size() * int64(req.count)
	n := inb.size
	var err error
	if n > capacity {
		n = capacity
		err = ErrTruncate
	}
	u := ep.newUnpacker(req.buf, req.dt, req.count)
	got, runs := u.UnpackFrom(inb.data[:n])
	if got != n {
		panic("core: short unpack")
	}
	var cost simtime.Duration
	if req.dt.Contig() {
		cost = ep.model.CopyTime(n, 1)
		atomic.AddInt64(&ep.ctr.BytesStaged, n)
	} else if ep.cfg.Scheme == SchemeGeneric {
		cost = ep.model.CopyTime(n, 1) +
			ep.model.MallocTime(n) +
			ep.cfg.packCost(ep.model, n, runs)
		atomic.AddInt64(&ep.ctr.BytesStaged, n)
		atomic.AddInt64(&ep.ctr.BytesUnpacked, n)
	} else {
		cost = ep.cfg.packCost(ep.model, n, runs)
		atomic.AddInt64(&ep.ctr.BytesUnpacked, n)
	}
	req.Source = inb.src
	req.Tag = inb.tag
	req.Bytes = n
	t0 := ep.tnow()
	ep.afterNamed(cost, "unpack", func() {
		ep.span("eager recv", "data", 0, n, t0)
		req.complete(err)
	})
}

// --- Self sends -------------------------------------------------------------

// selfSend handles rank-to-rank-self transfers with a local pack/unpack.
func (ep *Endpoint) selfSend(req *Request, ctx int, buf mem.Addr, count int, dt *datatype.Type, tag int) {
	size := dt.Size() * int64(count)
	payload := make([]byte, size)
	p := ep.newPacker(buf, dt, count)
	_, runs := p.PackTo(payload)
	atomic.AddInt64(&ep.ctr.BytesPacked, size)
	cost := ep.cfg.packCost(ep.model, size, runs)
	inb := &inbound{kind: kindEager, ctx: ctx, src: ep.rank, tag: tag, size: size, data: payload}
	ep.afterNamed(cost, "pack", func() {
		req.complete(nil)
		if r := ep.matchPosted(ctx, ep.rank, tag); r != nil {
			ep.eagerDeliver(inb, r)
			return
		}
		ep.unexp.add(inb)
		ep.arrivalSig.Broadcast()
	})
}

// DebugState summarizes in-flight protocol state for diagnosing stalls.
func (ep *Endpoint) DebugState() string {
	return fmt.Sprintf(
		"rank %d: sendOps=%d recvOps=%d posted=%d unexpected=%d packPool(free=%d/%d waiters=%d) unpackPool(free=%d/%d waiters=%d) cqCallbacks=%d %s",
		ep.rank, ep.activeSends, ep.activeRecvs, ep.recvQ.len(), ep.unexp.len(),
		ep.packPool.available(), ep.packPool.totalSlots(), ep.packPool.pendingWaiters(),
		ep.unpackPool.available(), ep.unpackPool.totalSlots(), ep.unpackPool.pendingWaiters(),
		ep.wrLive(), ep.poolStatsString())
}

// DebugOps lists in-flight operation details (diagnostics only).
func (ep *Endpoint) DebugOps() string {
	s := ""
	for _, p := range ep.peers {
		if p == nil {
			continue
		}
		for _, op := range p.sends {
			s += fmt.Sprintf("send op %d: dst=%d eff=%d wrsLeft=%d segsHeld=%d\n",
				op.id, op.dst, op.eff, op.wrsLeft, len(op.segs))
		}
		for _, op := range p.recvs {
			s += fmt.Sprintf("recv op %d from %d: scheme=%v eff=%d arrived=%d/%d finished=%d bytesRead=%d\n",
				op.key.op, op.key.src, op.scheme, op.eff, op.arrived, op.nSegs, op.finished, op.bytesRead)
		}
	}
	return s
}

// Status describes a matched (or probed) message.
type Status struct {
	Source int
	Tag    int
	Bytes  int64
}

// Iprobe checks, without receiving, whether a message matching (src, tag) —
// wildcards allowed — has arrived in the world context. It reports the
// message's envelope.
func (ep *Endpoint) Iprobe(src, tag int) (Status, bool) {
	return ep.IprobeCtx(0, src, tag)
}

// IprobeCtx is Iprobe within an explicit communicator context.
func (ep *Endpoint) IprobeCtx(ctx, src, tag int) (Status, bool) {
	if inb, ok := ep.unexp.peek(ctx, src, tag); ok {
		return Status{Source: inb.src, Tag: inb.tag, Bytes: inb.size}, true
	}
	return Status{}, false
}

// Probe blocks until a message matching (src, tag) arrives in the world
// context and returns its envelope without receiving it.
func (ep *Endpoint) Probe(p *simtime.Process, src, tag int) Status {
	return ep.ProbeCtx(p, 0, src, tag)
}

// ProbeCtx is Probe within an explicit communicator context.
func (ep *Endpoint) ProbeCtx(p *simtime.Process, ctx, src, tag int) Status {
	for {
		if st, ok := ep.IprobeCtx(ctx, src, tag); ok {
			return st
		}
		p.Wait(&ep.arrivalSig)
	}
}
