package core

import (
	"sync/atomic"

	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/pack"
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
// completes through the simulation's event machinery; a process waiting on it
// (WaitAll, WaitAny) is its endpoint's waiter, which w points at meanwhile.
type Request struct {
	ep     *Endpoint
	isRecv bool
	done   bool
	w      *waiter

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

	// next links the request into its exact-match bucket of posted receives
	// while it waits there, and into the endpoint's free list once it has
	// been handed back with Free. gen counts how often it has been.
	next  *Request
	gen   uint32
	stamp recordStamp
}

// Done reports whether the request has completed.
func (r *Request) Done() bool { guardRequest(r); return r.done }

// Wait blocks the process until the request completes: WaitAll(p, r).
func (r *Request) Wait(p *simtime.Process) { WaitAll(p, r) }

func (r *Request) complete(err error) {
	guardRequest(r)
	if r.done {
		panic("core: double completion of request")
	}
	r.done = true
	if err != nil && r.Err == nil {
		r.Err = err
	}
	if w := r.w; w != nil {
		r.w = nil
		if w.need--; w.need == 0 {
			w.sig.Broadcast()
		}
	}
}

// waiter is an endpoint's one waiting process (one rank is one process);
// need counts the completions still due before it resumes.
type waiter struct {
	need   int
	parked bool
	sig    simtime.Signal
}

// WaitAll blocks until every request completes, parking the process once:
// the completion that leaves none pending wakes it, at the virtual instant
// the last of one-at-a-time waits would have (DESIGN.md §14). A request
// listed twice counts once; a nil entry (MPI_REQUEST_NULL) is skipped.
// Checked contract: the requests share an endpoint, and at most one process
// waits on an endpoint at a time.
func WaitAll(p *simtime.Process, reqs ...*Request) { wait(p, reqs, len(reqs)) }

// WaitAny blocks until at least one request completes and returns its index
// (the lowest, if several completed together; -1, MPI_UNDEFINED, when every
// entry is nil). Only a completion in reqs wakes it; the contract is
// WaitAll's.
func WaitAny(p *simtime.Process, reqs ...*Request) int { return wait(p, reqs, 1) }

// WaitRelease is WaitAll followed by MPI_Waitall's handle rule: every request
// is handed back to its endpoint (Free) and its entry set to nil, and the
// first error in list order is returned. A request listed twice is handed
// back once. It is the tail of every blocking call and of mpi's Wait.
func WaitRelease(p *simtime.Process, reqs ...*Request) error {
	WaitAll(p, reqs...)
	var err error
	for i, r := range reqs {
		// After WaitAll a request that is not done was listed earlier and
		// handed back there: Free clears done.
		if r != nil && r.done {
			if err == nil {
				err = r.Err
			}
			r.Free()
		}
		reqs[i] = nil
	}
	return err
}

// isDone is Done for a wait's list, where nil is a null request.
func isDone(r *Request) bool { return r != nil && r.Done() }

// wait parks p on its endpoint's waiter until want of reqs have completed
// (want len(reqs): all of them) and returns the lowest completed index.
func wait(p *simtime.Process, reqs []*Request, want int) int {
	var ep *Endpoint
	for _, r := range reqs {
		if r == nil {
			continue
		}
		guardRequest(r)
		if ep == nil {
			ep = r.ep
		} else if r.ep != ep {
			panic("core: wait across endpoints")
		}
	}
	if ep == nil {
		return -1
	}
	w := &ep.w
	if w.parked {
		panic(fmt.Sprintf("core: rank %d: a second process waits on the endpoint (one rank is one process)", ep.rank))
	}
	if i := slices.IndexFunc(reqs, isDone); want == 1 && i >= 0 {
		return i
	}
	for _, r := range reqs {
		if r != nil && !r.done && r.w == nil {
			r.w = w
			w.need++
		}
	}
	w.need = min(w.need, want)
	w.parked = true
	for w.need > 0 {
		p.Wait(&w.sig)
	}
	w.parked, w.need = false, 0
	for _, r := range reqs {
		if r != nil {
			r.w = nil // what WaitAny leaves pending
		}
	}
	return slices.IndexFunc(reqs, isDone)
}

// inboundMsg is the per-message state of an arrival record.
type inboundMsg struct {
	kind    uint8 // kindEager or kindRTS
	ctx     int   // communicator context
	src     int
	tag     int
	opID    uint32
	size    int64
	sAvg    int64 // sender's average run length (RTS, for Auto)
	sContig bool  // sender layout contiguous (RTS)
	failed  bool  // sender aborted this RTS before it was matched

	// data is the packed eager payload. A message that finds its receive
	// posted is unpacked straight out of the completion entry (data aliases
	// CQE.Data for the length of the handler); one that has to wait — an
	// unexpected arrival, a self send — owns a pooled copy.
	data     []byte
	ownsData bool

	// Queue links: the exact-match bucket FIFO and the arrival order.
	next             *inbound
	prevArr, nextArr *inbound

	// Delivery state, set by eagerDeliver for the unpack completion.
	req *Request
	n   int64
	err error
	t0  simtime.Time

	sreq *Request // self send: the send request, completed when the pack ends
}

// inbound is one arrived message on its way to a receive — an eager payload
// or a rendezvous start — from the completion handler (or the self send)
// that made it to the end of its delivery: matched at once, or parked in the
// unexpected queue first. Records recycle through the endpoint
// (freelist.go); the two events a record can wait for are methods bound once.
type inbound struct {
	inboundMsg
	ep    *Endpoint
	gen   uint32
	stamp recordStamp

	deliveredFn, selfArrivedFn func()
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
	w          waiter         // the rank's process, while it waits on requests

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
	sendOps       mem.FreeList[sendOp]
	recvOps       mem.FreeList[recvOp]
	inbs          mem.FreeList[inbound]
	reqs          mem.FreeList[Request]
	bufs          mem.BufPool      // eager frames and parked payloads
	ctrlw         ctrlWriter       // synchronous build→send control frames
	batchScratch  [][]verbs.SendWR // postWRs doorbell-split scratch
	ctsRefs       []segRef         // staged-CTS build scratch
	ctsSegScratch []segRef         // dead-CTS parse scratch
	ctsRegScratch []regRef         // dead-CTS parse scratch
	mc            metricCache      // lazily bound metric handles (observe.go)

	// Synchronous pack state: an eager message is packed, and a matched one
	// unpacked, inside one call, so the endpoint's own engines serve them all.
	// grouper and blockScratch are the same for user-buffer registration
	// (program.go).
	pk           pack.Packer
	upk          pack.Unpacker
	grouper      mem.Grouper
	blockScratch []mem.Block
	plans        planStore // OGR groupings and Multi-W windows kept for warm messages (plan.go)

	// Service mode (cfg.QoS != nil): gate parks whole bulk transfers under
	// staging-pool pressure. Nil when QoS is disabled.
	gate   *qos.Gate
	qosPol qos.Policy

	// chunkLimit is the longest doorbell batch: the adapter's limit, capped
	// at what a WRID can index (wr.go).
	chunkLimit int

	// Completion records of posted descriptors (wr.go): wrTab is indexed by
	// the low half of the work-request ID, wrs holds the recycled ones.
	wrTab []*wrRec
	wrs   mem.FreeList[wrRec]

	types   *typeRegistry
	layouts *layoutCache
	progs   *programCache
}

type opKey struct {
	src int
	op  uint32
}

// regCacheCapacity is each pin-down cache's idle-pinned-bytes limit.
const regCacheCapacity = 64 << 20

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
	ep.sendCQ = hca.NewCQ()
	ep.recvCQ = hca.NewCQ()
	ep.sendCQ.SetHandler(ep.handleSendCQE)
	ep.recvCQ.SetHandler(ep.handleRecvCQE)

	var err error
	ep.packPool, err = newSegPool(ep.memory, cfg.PoolSize, cfg.SegmentSize, cfg.UsePools)
	if err != nil {
		return nil, err
	}
	ep.unpackPool, err = newSegPool(ep.memory, cfg.PoolSize, cfg.SegmentSize, cfg.UsePools)
	if err != nil {
		return nil, err
	}
	// The largest staged CTS names every slot of the unpack pool: its
	// scratch and the control writer are sized for it now, not by a message.
	ep.ctsRefs = make([]segRef, 0, ep.unpackPool.totalSlots())
	ep.ctrlw.buf = make([]byte, 0, stagedCTSMax(ep.unpackPool.totalSlots()))
	// Observability: pool park counting and occupancy/registration gauges.
	// A nil Metrics registry hands out nil gauges, which are no-op sinks.
	ep.packPool.ctr = ep.ctr
	ep.unpackPool.ctr = ep.ctr
	ep.packPool.gauge = cfg.Metrics.Gauge("pool_used/pack")
	ep.unpackPool.gauge = cfg.Metrics.Gauge("pool_used/unpack")
	ep.regGauge = cfg.Metrics.Gauge("registered_pages")
	ep.userReg = mem.NewRegCache(ep.memory.Reg(), regCacheCapacity, cfg.RegCache)
	ep.stagingReg = mem.NewRegCache(ep.memory.Reg(), regCacheCapacity, cfg.RegCache)
	if inj := hca.Injector(); inj != nil {
		ep.userReg.SetFaultFn(inj.RegFault)
		ep.stagingReg.SetFaultFn(inj.RegFault)
	}
	ep.chunkLimit = ep.model.MaxPostBatch
	if ep.chunkLimit <= 0 || ep.chunkLimit > maxBatchWRs {
		ep.chunkLimit = maxBatchWRs
	}
	if cfg.QoS != nil {
		ep.qosPol = *cfg.QoS
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

// afterNamed charges the endpoint CPU for d, under an activity label for the
// tracer, and runs fn when the work finishes.
func (ep *Endpoint) afterNamed(d simtime.Duration, name string, fn func()) {
	end := ep.hca.ChargeCPUNamed(d, name)
	ep.eng.At(end, fn)
}

// reserveAnnounce claims the next announce position for op's destination.
// Must be called synchronously at Isend time, before any virtual-time
// deferral, so the queue order equals the MPI posting order. The op is
// pinned until its announce has gone out: it may sit queued behind an
// earlier message's delayed RTS, and an op aborted in that window must not
// be recycled out from under the queue.
func (ep *Endpoint) reserveAnnounce(op *sendOp) {
	ep.pinSend(op)
	q := &ep.peer(op.dst).ann
	if q.tail == nil {
		q.head = op
	} else {
		q.tail.annNext = op
	}
	q.tail = op
}

// announceReady marks op ready to announce — it may have died before getting
// there, and then announces nothing — and drains the queue head while it is
// ready. An announce delayed by registration backoff thus blocks every later
// announce to the same peer instead of being overtaken by one. Announcing
// only builds and sends a control frame; it never reenters the announce
// machinery.
func (ep *Endpoint) announceReady(op *sendOp) {
	op.annReady = true
	q := &ep.peer(op.dst).ann
	for q.head != nil && q.head.annReady {
		h := q.head
		if q.head, h.annNext = h.annNext, nil; q.head == nil {
			q.tail = nil
		}
		switch {
		case h.annDead:
		case h.kind == sendEager:
			// PostSend copies the frame inline, so its buffer is free again
			// as soon as sendCtrl returns.
			ep.sendCtrl(h.dst, h.frame)
			ep.bufs.Put(h.frame)
			h.frame = nil
		default:
			ep.sendRTS(h)
		}
		ep.unpinSend(h)
	}
}

// sendCtrl posts a control message to a peer. Its completion would carry
// nothing to do, so it is posted unsignaled and without a completion record
// (WRID 0).
func (ep *Endpoint) sendCtrl(dst int, payload []byte) {
	atomic.AddInt64(&ep.ctr.CtrlMessages, 1)
	if err := ep.qps[dst].PostSend(verbs.SendWR{Op: verbs.OpSend, Inline: payload, Unsignaled: true}); err != nil {
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
	req := ep.newRequest()
	req.Source, req.Tag = ep.rank, tag
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
	req := ep.newRequest()
	req.Source, req.Tag = ep.rank, tag
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
	return WaitRelease(p, ep.IssendCtx(0, buf, count, dt, dst, tag))
}

// Irecv posts a nonblocking receive into (buf, count, dt) from rank src
// (or AnySource) with tag (or AnyTag) in the default (world) context.
func (ep *Endpoint) Irecv(buf mem.Addr, count int, dt *datatype.Type, src, tag int) *Request {
	return ep.IrecvCtx(0, buf, count, dt, src, tag)
}

// IrecvCtx is Irecv within an explicit communicator context.
func (ep *Endpoint) IrecvCtx(ctx int, buf mem.Addr, count int, dt *datatype.Type, src, tag int) *Request {
	req := ep.newRequest()
	req.isRecv = true
	req.buf, req.count, req.dt = buf, count, dt
	req.ctxWant, req.srcWant, req.tagWant = ctx, src, tag
	if inb := ep.unexp.take(ctx, src, tag); inb != nil {
		ep.deliver(inb, req)
		return req
	}
	ep.recvQ.post(req)
	return req
}

// Send is the blocking form of Isend.
func (ep *Endpoint) Send(p *simtime.Process, buf mem.Addr, count int, dt *datatype.Type, dst, tag int) error {
	return ep.SendCtx(p, 0, buf, count, dt, dst, tag)
}

// SendCtx is the blocking form of IsendCtx. Its request never leaves the
// call: it is handed back to the endpoint once complete.
func (ep *Endpoint) SendCtx(p *simtime.Process, ctx int, buf mem.Addr, count int, dt *datatype.Type, dst, tag int) error {
	return WaitRelease(p, ep.IsendCtx(ctx, buf, count, dt, dst, tag))
}

// Recv is the blocking form of Irecv; it returns the matched message's
// envelope.
func (ep *Endpoint) Recv(p *simtime.Process, buf mem.Addr, count int, dt *datatype.Type, src, tag int) (Status, error) {
	return ep.RecvCtx(p, 0, buf, count, dt, src, tag)
}

// RecvCtx is the blocking form of IrecvCtx. Like SendCtx it hands its
// request back to the endpoint; what the caller gets is the envelope.
func (ep *Endpoint) RecvCtx(p *simtime.Process, ctx int, buf mem.Addr, count int, dt *datatype.Type, src, tag int) (Status, error) {
	r := ep.IrecvCtx(ctx, buf, count, dt, src, tag)
	r.Wait(p)
	st, err := Status{Source: r.Source, Tag: r.Tag, Bytes: r.Bytes}, r.Err
	r.Free()
	return st, err
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
			ep.putInbound(inb)
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
// directly into the internal buffer (the improved path of Figure 7). That
// difference is modelled cost: the bytes are packed once either way, straight
// behind the frame header.
func (ep *Endpoint) eagerSend(req *Request, ctx int, buf mem.Addr, count int, dt *datatype.Type, dst, tag int) {
	op := ep.getSendOp()
	op.kind, op.req, op.dst = sendEager, req, dst
	ep.reserveAnnounce(op)
	size := dt.Size() * int64(count)
	op.size = size

	// The frame is a pooled buffer, not the endpoint's synchronous ctrl
	// scratch: the announce may be queued behind an earlier message's
	// delayed RTS and posted later, so it needs its own storage. It returns
	// to the pool once the fabric has copied it inline (announceReady).
	w := ctrlWriter{buf: ep.bufs.Get(eagerHeaderMax + size)[:0]}
	w.u8(kindEager)
	w.u32(uint32(ctx))
	w.u32(uint32(tag))
	w.i64(size)
	w.u64(uint64(size)) // the payload's length prefix (ctrlReader.bytes)
	hdr := len(w.buf)
	w.buf = w.buf[:hdr+int(size)]
	ep.pk.Bind(ep.memory, buf, ep.Program(dt, count))
	n, runs := ep.pk.PackTo(w.buf[hdr:])
	if n != size {
		panic("core: short pack")
	}
	op.frame = w.buf

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

	// Charge the pack, then post through the announce queue: the CPU
	// resource already orders the wire message after the pack work, and the
	// queue keeps wire order equal to Isend call order — MPI's
	// non-overtaking guarantee — even when an earlier rendezvous send's RTS
	// is sitting in a registration-retry backoff.
	op.tStart = ep.tnow()
	end := ep.hca.ChargeCPUNamed(cost, "pack")
	ep.announceReady(op)
	// The eager send completes once the data has left the user buffer. The
	// op is in no table: its two pins — the announce and this event — are
	// all that keep it.
	ep.pinSend(op)
	ep.eng.At(end, op.eagerDoneFn)
	ep.retireSend(op)
}

// eagerHeaderMax bounds an eager frame's header: the kind byte and four
// varints.
const eagerHeaderMax = 1 + 4*binary.MaxVarintLen64

// eagerDone completes an eager send when its pack charge ends.
func (op *sendOp) eagerDone() {
	ep := op.ep
	guardSend(op)
	ep.span("eager send", "data", 0, op.size, op.tStart)
	op.req.complete(nil)
	ep.unpinSend(op)
}

// handleCtrl dispatches an arrived control message. data is the fabric's and
// only good until the handler returns (verbs.CQE.Data): everything that
// outlives the call is copied out of it here.
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
		inb := ep.getInbound()
		inb.kind, inb.ctx, inb.src, inb.tag, inb.size = kindEager, ctx, src, tag, size
		if req := ep.matchPosted(ctx, src, tag); req != nil {
			inb.data = payload
			ep.eagerDeliver(inb, req)
			return
		}
		// Unexpected: MPICH copies the payload aside into an unexpected-
		// message buffer; make that staging copy, and charge it.
		inb.data, inb.ownsData = ep.bufs.Get(int64(len(payload))), true
		copy(inb.data, payload)
		atomic.AddInt64(&ep.ctr.BytesStaged, size)
		ep.hca.ChargeCPU(ep.model.CopyTime(size, 1))
		ep.unexp.add(inb)
		ep.arrivalSig.Broadcast()
	case kindRTS:
		inb := ep.getInbound()
		inb.kind, inb.src = kindRTS, src
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

// eagerDeliver unpacks a matched eager payload into the receive buffer. The
// payload is consumed before it returns; the arrival record lives on to the
// unpack completion.
func (ep *Endpoint) eagerDeliver(inb *inbound, req *Request) {
	capacity := req.dt.Size() * int64(req.count)
	n := inb.size
	var err error
	if n > capacity {
		n = capacity
		err = ErrTruncate
	}
	ep.upk.Bind(ep.memory, req.buf, ep.Program(req.dt, req.count))
	got, runs := ep.upk.UnpackFrom(inb.data[:n])
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
	if !inb.ownsData {
		inb.data = nil // the completion entry's; gone when the handler returns
	}
	inb.req, inb.n, inb.err, inb.t0 = req, n, err, ep.tnow()
	ep.afterNamed(cost, "unpack", inb.deliveredFn)
}

// delivered completes an eager receive when its unpack charge ends.
func (inb *inbound) delivered() {
	ep := inb.ep
	guardInbound(inb)
	ep.span("eager recv", "data", 0, inb.n, inb.t0)
	inb.req.complete(inb.err)
	ep.putInbound(inb)
}

// --- Self sends -------------------------------------------------------------

// selfSend handles rank-to-rank-self transfers with a local pack/unpack: the
// message is its own arrival record from the start.
func (ep *Endpoint) selfSend(req *Request, ctx int, buf mem.Addr, count int, dt *datatype.Type, tag int) {
	size := dt.Size() * int64(count)
	inb := ep.getInbound()
	inb.kind, inb.ctx, inb.src, inb.tag, inb.size = kindEager, ctx, ep.rank, tag, size
	inb.data, inb.ownsData = ep.bufs.Get(size), true
	inb.sreq = req
	ep.pk.Bind(ep.memory, buf, ep.Program(dt, count))
	_, runs := ep.pk.PackTo(inb.data)
	atomic.AddInt64(&ep.ctr.BytesPacked, size)
	cost := ep.cfg.packCost(ep.model, size, runs)
	ep.afterNamed(cost, "pack", inb.selfArrivedFn)
}

// selfArrived runs when a self send's pack charge ends: the send completes
// and the message arrives.
func (inb *inbound) selfArrived() {
	ep := inb.ep
	guardInbound(inb)
	inb.sreq.complete(nil)
	inb.sreq = nil
	if r := ep.matchPosted(inb.ctx, ep.rank, inb.tag); r != nil {
		ep.eagerDeliver(inb, r)
		return
	}
	ep.unexp.add(inb)
	ep.arrivalSig.Broadcast()
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
