package core

import (
	"sync/atomic"

	"fmt"
	"math"

	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/pack"
	"repro/internal/simtime"
)

// sendKind says which protocol a send op record carries.
type sendKind uint8

const (
	sendRndv  sendKind = iota // rendezvous transfer
	sendEager                 // eager message: one framed control send
)

// sendStep names the continuation a send op resumes with when the wait it is
// parked in — user-buffer registration, a staging buffer, pool slots —
// resolves. An op waits for one thing at a time, so one field carries it;
// the bound methods regDone, stageDone and poolReady dispatch on it.
type sendStep uint8

const (
	stepNone        sendStep = iota
	stepAnnounce             // registered ahead of the handshake: announce the RTS
	stepGather               // registered: RWG-UP gather writes
	stepMultiW               // registered: Multi-W descriptor build
	stepPRRSContig           // registered: P-RRS straight from the user buffer
	stepGenericData          // staging buffer ready: Generic pack + one write
	stepBCStaged             // staging buffer ready: BC-SPUP without a pool
	stepPRRSStaged           // staging buffer ready: P-RRS larger than the pool
	stepBCPool               // one pool slot ready: the next step of the BC-SPUP pipeline
	stepPRRSPool             // the whole message's slots ready: P-RRS
)

// sendMsg is the per-message state of a send op: everything recycle zeroes.
type sendMsg struct {
	kind  sendKind
	id    uint32
	req   *Request
	dst   int
	ctx   int
	tag   int
	buf   mem.Addr
	count int
	dt    *datatype.Type
	size  int64 // full message size
	eff   int64 // effective (possibly truncated) size, set by the CTS
	sAvg  int64 // average run length, shipped in the RTS

	sContig bool

	// Observability: when the RTS went out (or the eager pack started), and
	// the scheme the receiver's CTS selected (authoritative even under
	// SchemeAuto).
	tStart simtime.Time
	scheme Scheme

	// Announce order (endpoint.go): the op is a link of its peer's announce
	// queue from Isend until its announce has gone out.
	annNext  *sendOp
	annReady bool
	annDead  bool   // died before announcing: the slot drains as a no-op
	frame    []byte // eager: the framed message, a pooled buffer

	// The data phase's operands, parsed from the CTS, and its progress.
	next    sendStep
	segSize int64
	nSegs   int
	k       int           // next segment to pack
	rBase   mem.Addr      // Multi-W: the receiver's buffer,
	rLayout *cachedLayout // layout (its cache entry, which holds the type)
	rCount  int           // and count
	plan    *wrPlan       // Multi-W: the plan whose window the op posted, busy until recycle

	staging segRes // Generic whole-message pack buffer
	wrsLeft int    // descriptors not yet finally resolved

	// unitTail is the last of the op's post units that release (wr.go) has
	// out or holds back while a fault injector is attached; nil otherwise.
	unitTail *wrRec

	// allPosted guards completion: wrsLeft may transiently hit zero between
	// segment posts, so the op only drains once every descriptor has been
	// posted. drainArmed is set by postWRs and consumed by the one drain.
	allPosted  bool
	drainArmed bool

	// Failure state (see failure.go).
	failed     bool
	failErr    error
	notifyPeer bool

	// Free-list state (freelist.go): outstanding continuation pins and the
	// retired flag that arms recycle-on-last-unpin.
	pins    int
	retired bool
}

// sendOp is the sender-side record of one message: the whole state of a
// rendezvous transfer, or the frame and completion of an eager send. Records
// recycle through the endpoint (freelist.go); everything outside sendMsg is
// kept across messages — arenas and scratch keep their capacity, the
// sub-records and method values are bound once, when the record is made, so
// no step of a warm message builds a closure.
type sendOp struct {
	sendMsg
	ep    *Endpoint
	gen   uint32      // messages carried: bumped at every recycle
	stamp recordStamp // use-after-recycle guard (debug_on.go)

	reg   regWalk    // user-buffer registration: regions, refs, retry state
	stage stagingAcq // dynamic staging buffer acquisition
	adm   admission  // service-mode admission (qos.go)

	packer pack.ParallelPacker
	cur    datatype.ProgCursor // local layout walk (gather, Multi-W)
	rcur   datatype.ProgCursor // Multi-W: the receiver's layout

	segs []segRes // P-RRS pack segments, held until Done

	// Op-owned arenas and scratch, reused across the op's whole life and
	// reset only at recycle: the descriptor arena chunkWRs fills and the
	// parsed CTS segment / region refs (op-owned because admission may park
	// the data phase while another CTS arrives and parses).
	wrs     wrSet
	ctsSegs []segRef
	ctsRegs []regRef

	eagerDoneFn, poolReadyFn func()
}

func (ep *Endpoint) newSendOp(op *sendOp) {
	op.ep = ep
	op.reg.init(ep, op.regDone)
	op.stage.init(ep, op.stageDone)
	op.adm.init(ep, op)
	op.packer.SetPar(ep.cfg.par())
	op.eagerDoneFn, op.poolReadyFn = op.eagerDone, op.poolReady
}

// segRes couples a staging segment with the byte count it carries. held
// records whether this op still owns the segment (rather than inferring
// ownership from a sentinel address), so abort teardown releases exactly the
// resources the op holds. t0 is when the segment's unpack was charged.
type segRes struct {
	seg   seg
	bytes int64
	held  bool
	t0    simtime.Time
}

// recvStep is sendStep for receive ops.
type recvStep uint8

const (
	rstepNone    recvStep = iota
	rstepDirect           // registered: staged scheme into a contiguous user buffer
	rstepMultiW           // registered: ship layout and region keys
	rstepPRRS             // registered: tell the sender to produce segments
	rstepGeneric          // staging buffer ready: Generic's whole-message unpack buffer
	rstepWhole            // staging buffer ready: segments carved from one on-the-fly buffer
	rstepPool             // unpack-pool slots ready
)

// recvMsg is the per-message state of a receive op.
type recvMsg struct {
	key       opKey
	req       *Request
	eff       int64
	truncated bool
	scheme    Scheme
	hasSel    bool         // an adaptive selector made the choice; sel is its input
	tStart    simtime.Time // when the RTS met the posted receive

	next recvStep

	// Staged path (Generic / BC-SPUP / RWG-UP).
	direct   bool // receiver side contiguous: data lands in the user buffer
	segSize  int64
	nSegs    int
	arrived  int
	unpacked int // unpack completions fired, in segment order
	finished int

	// wholeSeg backs all segments when staging was allocated as one
	// on-the-fly buffer (pool disabled or message larger than the pool);
	// it is released once, at completion.
	wholeSeg  seg
	haveWhole bool

	// P-RRS read state.
	bytesRead int64
	wrsLeft   int // outstanding receiver-initiated descriptors (scatter reads)

	// Failure state (see failure.go).
	failed     bool
	failErr    error
	notifyPeer bool

	// Free-list state (freelist.go), mirroring sendOp.
	pins    int
	retired bool
}

// recvOp is the receiver-side record of one rendezvous transfer, recycled
// like sendOp.
type recvOp struct {
	recvMsg
	ep    *Endpoint
	gen   uint32
	stamp recordStamp

	sel SelectorInput // valid when hasSel

	reg   regWalk // user-buffer registrations (direct, Multi-W, P-RRS)
	stage stagingAcq
	adm   admission

	unpacker pack.ParallelUnpacker
	cur      datatype.ProgCursor // P-RRS scatter-read walk

	segs []segRes // sized for the whole unpack pool when the op is made

	wrs wrSet // op-owned scatter-read descriptor arena (P-RRS)

	poolReadyFn, unpackDoneFn func()
}

func (ep *Endpoint) newRecvOp(op *recvOp) {
	op.ep, op.segs = ep, make([]segRes, 0, ep.unpackPool.totalSlots())
	op.reg.init(ep, op.regDone)
	op.stage.init(ep, op.stageDone)
	op.adm.init(ep, op)
	op.unpacker.SetPar(ep.cfg.par())
	op.poolReadyFn, op.unpackDoneFn = op.poolReady, op.unpackDone
}

func (ep *Endpoint) newOpID() uint32 {
	ep.nextOp++
	return ep.nextOp
}

// chargeTypeProc charges datatype-processing CPU for handling runs runs.
func (ep *Endpoint) chargeTypeProc(runs int) {
	ep.hca.ChargeCPUNamed(TypeProcBase+simtime.Duration(runs)*TypeProcPerRun, "typeproc")
}

// regWalk registers the contiguous blocks of one message buffer using
// Optimistic Group Registration through the user pin-down cache, charging
// the real registration work, and reports to done. Transient registration
// faults are retried with backoff (so done may run after a virtual-time
// delay); without faults done runs synchronously inside start. On error any
// partially acquired groups are released first.
//
// The walk lives by value inside the op that owns the buffer: the grouped
// blocks, the regions and their refs append into its retained slices, so a
// warm registration allocates nothing, and because the appends happen across
// retry backoffs the owner pins itself until done runs. The regions are the
// owner's from the moment it sets held; release gives them back.
type regWalk struct {
	ep      *Endpoint
	groups  []mem.Block
	regions []*mem.Region
	refs    []regRef // the regions with their lkeys, sorted by address
	held    bool     // the owner accepted the regions and must release them

	i, attempt int
	total      mem.RegOps
	stepFn     func()
	done       func(error)
}

func (w *regWalk) init(ep *Endpoint, done func(error)) {
	w.ep, w.done = ep, done
	w.stepFn = w.step
}

// start groups the message's blocks and begins acquiring the groups.
func (w *regWalk) start(buf mem.Addr, dt *datatype.Type, count int) {
	e := w.ep.groupMessage(buf, dt, count)
	w.groups = append(w.groups[:0], e.groups...)
	w.ep.chargeTypeProc(e.blocks)
	w.drop()
	w.i, w.attempt, w.total = 0, 0, mem.RegOps{}
	w.step()
}

func (w *regWalk) step() {
	ep := w.ep
	for w.i < len(w.groups) {
		g := w.groups[w.i]
		r, ops, err := ep.userReg.Acquire(g.Addr, g.Len)
		w.total.Add(ops)
		if err != nil {
			if fault.IsTransient(err) && w.attempt < faultRetryLimit {
				w.attempt++
				atomic.AddInt64(&ep.ctr.FaultRetries, 1)
				ep.eng.Schedule(retryBackoff(w.attempt), w.stepFn)
				return
			}
			ep.releaseUserRegions(w.regions)
			w.drop()
			w.done(err)
			return
		}
		w.attempt = 0
		w.regions = append(w.regions, r)
		w.refs = append(w.refs, regRef{addr: g.Addr, len: g.Len, key: r.LKey})
		w.i++
	}
	ep.accountReg(w.total)
	ep.hca.ChargeCPUNamed(ep.model.RegOpsTime(w.total), "reg")
	w.done(nil)
}

// drop forgets the regions without releasing them.
func (w *regWalk) drop() {
	clear(w.regions)
	w.regions, w.refs, w.held = w.regions[:0], w.refs[:0], false
}

// discard releases the regions of a finished walk whose owner died while it
// ran and never accepted them.
func (w *regWalk) discard() {
	w.ep.releaseUserRegions(w.regions)
	w.drop()
}

// release gives back the regions the owner holds, if any.
func (w *regWalk) release() {
	if w.held && len(w.regions) > 0 {
		w.discard()
	}
}

// releaseUserRegions drops user-buffer registrations, charging any real
// deregistration work (cache off or eviction).
func (ep *Endpoint) releaseUserRegions(regions []*mem.Region) {
	var total mem.RegOps
	for _, r := range regions {
		ops, err := ep.userReg.Release(r)
		if err != nil {
			panic(err)
		}
		total.Add(ops)
	}
	ep.accountReg(total)
	if d := ep.model.RegOpsTime(total); d > 0 {
		ep.hca.ChargeCPUNamed(d, "reg")
	}
}

// stagingAcq allocates and registers a dynamic staging buffer (the Generic
// scheme's pack/unpack buffers, and every scheme's fallback when the pools
// cannot serve a message), charging malloc and registration work, and hands
// the segment to done. Transient registration faults are retried with
// backoff; the allocation is freed if registration ultimately fails. Without
// faults done runs synchronously inside start. Like regWalk it lives inside
// the op that wants the buffer, which pins itself until done runs.
type stagingAcq struct {
	ep      *Endpoint
	addr    mem.Addr
	n       int64
	attempt int
	tryFn   func()
	done    func(seg, error)
}

func (a *stagingAcq) init(ep *Endpoint, done func(seg, error)) {
	a.ep, a.done = ep, done
	a.tryFn = a.try
}

// start acquires a buffer of exactly n bytes.
func (a *stagingAcq) start(n int64) {
	ep := a.ep
	atomic.AddInt64(&ep.ctr.DynamicAllocs, 1)
	addr, err := ep.memory.AllocPage(n)
	if err != nil {
		a.done(seg{}, err)
		return
	}
	a.addr, a.n, a.attempt = addr, n, 0
	a.try()
}

func (a *stagingAcq) try() {
	ep := a.ep
	region, ops, err := ep.stagingReg.Acquire(a.addr, a.n)
	if err != nil {
		if fault.IsTransient(err) && a.attempt < faultRetryLimit {
			a.attempt++
			atomic.AddInt64(&ep.ctr.FaultRetries, 1)
			ep.eng.Schedule(retryBackoff(a.attempt), a.tryFn)
			return
		}
		if ferr := ep.memory.Free(a.addr); ferr != nil {
			panic(ferr)
		}
		a.done(seg{}, err)
		return
	}
	ep.accountReg(ops)
	ep.hca.ChargeCPUNamed(ep.model.MallocTime(a.n)+ep.model.RegOpsTime(ops), "malloc+reg")
	a.done(seg{addr: a.addr, key: region.LKey, region: region}, nil)
}

// --- Sender: initiation ------------------------------------------------------

// rndvSend starts the rendezvous protocol for a large message.
func (ep *Endpoint) rndvSend(req *Request, ctx int, buf mem.Addr, count int, dt *datatype.Type, dst, tag int) {
	op := ep.getSendOp()
	op.kind = sendRndv
	op.id, op.req, op.dst, op.ctx, op.tag = ep.newOpID(), req, dst, ctx, tag
	op.buf, op.count, op.dt = buf, count, dt
	op.size = dt.Size() * int64(count)
	op.sContig = dt.Contig()
	op.notifyPeer = true
	op.tStart = ep.tnow()
	ep.addSendOp(op)
	atomic.AddInt64(&ep.ctr.RendezvousSends, 1)

	_, op.sAvg = ep.layoutSummary(dt, count)
	ep.reserveAnnounce(op)

	// Copy-reduced fixed schemes register the user buffer now, overlapping
	// registration with the handshake (Section 7.4). Under Auto the choice
	// is the receiver's, so registration waits for the CTS.
	if ep.cfg.Scheme == SchemeRWGUP || ep.cfg.Scheme == SchemeMultiW ||
		(ep.cfg.Scheme == SchemePRRS && op.sContig) || op.sContig {
		op.next = stepAnnounce
		ep.pinSend(op)
		op.reg.start(buf, dt, count)
		return
	}
	ep.announceReady(op)
}

// sendRTS is a rendezvous op's announce: the RTS goes out when the announce
// queue reaches the op.
func (ep *Endpoint) sendRTS(op *sendOp) {
	ep.mark("rts", "rts", op.id)
	w := ep.ctrlW()
	w.u8(kindRTS)
	w.u32(op.id)
	w.u32(uint32(op.ctx))
	w.u32(uint32(op.tag))
	w.i64(op.size)
	w.i64(op.sAvg)
	if op.sContig {
		w.u8(1)
	} else {
		w.u8(0)
	}
	ep.sendCtrl(op.dst, w.buf)
}

// regDone resumes the op when its user-buffer registration resolves. The op
// was pinned across the walk, so an abort in a retry gap could not recycle it
// while the walk still appended to its slices.
func (op *sendOp) regDone(err error) {
	ep := op.ep
	guardSend(op)
	defer ep.unpinSend(op)
	if op.next == stepAnnounce {
		switch {
		case err != nil:
			// Still announce the op so the receiver has something to match;
			// the abort's failure notice then unblocks it.
			ep.announceReady(op)
			ep.abortSend(op, err)
		case op.failed:
			// The op died before announcing; its slot drains as a no-op so
			// later announces to this peer are not stuck.
			op.annDead = true
			ep.announceReady(op)
			op.reg.discard()
		default:
			op.reg.held = true
			ep.announceReady(op)
		}
		return
	}
	// Registration for the data phase. A failure aborts the op; an op failed
	// during registration backoff (a peer abort notice can arrive in the gap)
	// releases the fresh registrations instead of leaking them.
	if err != nil {
		ep.abortSend(op, err)
		return
	}
	if op.failed {
		op.reg.discard()
		return
	}
	op.reg.held = true
	ep.sendRegistered(op)
}

// --- Receiver: match and scheme choice ---------------------------------------

// rndvMatched runs when an RTS meets its posted receive; it allocates
// receiver resources for the chosen scheme and sends the CTS. The scheme
// decision itself (static Section 6 heuristic, or an adaptive selector) lives
// in select.go. The arrival record is consumed.
func (ep *Endpoint) rndvMatched(inb *inbound, req *Request) {
	capacity := req.dt.Size() * int64(req.count)
	eff := inb.size
	if eff > capacity {
		eff = capacity
	}
	op := ep.getRecvOp()
	op.scheme, op.hasSel = ep.decideScheme(inb, req, eff, &op.sel)
	op.key = opKey{src: inb.src, op: inb.opID}
	op.req, op.eff = req, eff
	op.truncated = inb.size > capacity
	op.direct = req.dt.Contig()
	op.tStart = ep.tnow()
	req.Source = inb.src
	req.Tag = inb.tag
	req.Bytes = eff
	ep.putInbound(inb)
	ep.addRecvOp(op)
	ep.mark(schemeName(&matchMarkName, op.scheme), "rts", op.key.op)

	// Service mode gates the whole data phase here: parking before the
	// scheme setup delays only the CTS (the sanctioned Section 4.3.3 stall),
	// never the already-sent announce.
	ep.admitRecv(op)
}

// admitted starts the receiver's scheme setup once admission lets it.
func (op *recvOp) admitted() {
	ep := op.ep
	switch op.scheme {
	case SchemeGeneric:
		ep.recvStagedSetup(op, op.eff) // one whole-message segment
	case SchemeBCSPUP, SchemeRWGUP:
		ep.recvStagedSetup(op, ep.cfg.segSizeFor(op.eff))
	case SchemeMultiW:
		op.next = rstepMultiW
		ep.pinRecv(op)
		op.reg.start(op.req.buf, op.req.dt, op.req.count)
	case SchemePRRS:
		op.next = rstepPRRS
		ep.pinRecv(op)
		op.reg.start(op.req.buf, op.req.dt, op.req.count)
	default:
		panic("core: bad scheme at match")
	}
}

// segBytes is the length of segment k of a message of eff bytes cut into
// segSize pieces.
func segBytes(eff, segSize int64, k int) int64 {
	n := segSize
	if rest := eff - int64(k)*segSize; n > rest {
		n = rest
	}
	return n
}

// recvStagedSetup assigns unpack destinations — the receiver's user buffer
// directly when it is contiguous, staging segments otherwise — and replies
// with the CTS carrying their addresses and keys. When the unpack pool is
// dry, the reply is delayed until segments free up, stalling the sender
// exactly as Section 4.3.3 prescribes; only a message too large for the
// whole pool falls back to dynamic allocation.
func (ep *Endpoint) recvStagedSetup(op *recvOp, segSize int64) {
	if segSize <= 0 || segSize > op.eff {
		segSize = op.eff
	}
	op.segSize = segSize
	op.nSegs = int((op.eff + segSize - 1) / segSize)

	if op.direct {
		// Contiguous receiver: segments map straight onto the user buffer.
		op.next = rstepDirect
		ep.pinRecv(op)
		op.reg.start(op.req.buf, op.req.dt, op.req.count)
		return
	}

	op.unpacker.Bind(ep.memory, op.req.buf, op.req.dt, op.req.count)

	if op.scheme == SchemeGeneric {
		// The basic scheme's dynamically allocated whole-message unpack
		// buffer (Figure 1).
		op.next = rstepGeneric
		ep.pinRecv(op)
		op.stage.start(op.eff)
		return
	}

	pool := ep.unpackPool
	if !pool.enabled || op.nSegs > pool.totalSlots() {
		// No pool (the worst case of Figure 14) or message larger than the
		// whole pool: allocate one on-the-fly unpack buffer of the real data
		// size — the same registration cost the Generic scheme pays — and
		// carve the segments out of it.
		if !pool.enabled {
			atomic.AddInt64(&ep.ctr.PoolDisabled, 1)
		} else {
			atomic.AddInt64(&ep.ctr.PoolOverflow, 1)
		}
		op.next = rstepWhole
		ep.pinRecv(op)
		op.stage.start(op.eff)
		return
	}
	op.next = rstepPool
	ep.pinRecv(op)
	pool.whenAvailable(op.nSegs, op.poolReadyFn)
}

// sendStagedCTS replies to a staged-scheme RTS with the segment refs
// assembled in ep.ctsRefs.
func (ep *Endpoint) sendStagedCTS(op *recvOp) {
	w := ep.ctrlW()
	w.u8(kindCTS)
	w.u32(op.key.op)
	w.u8(uint8(op.scheme))
	w.i64(op.eff)
	w.i64(op.segSize)
	w.segRefs(ep.ctsRefs)
	ep.sendCtrl(op.key.src, w.buf)
	ep.span(schemeName(&ctsSpanName, op.scheme), "handshake", op.key.op, op.eff, op.tStart)
}

// poolReady runs when the unpack pool can serve the whole message.
func (op *recvOp) poolReady() {
	ep := op.ep
	guardRecv(op)
	defer ep.unpinRecv(op)
	if op.failed {
		return // aborted while parked; slots stay with the pool
	}
	pool := ep.unpackPool
	refs := ep.ctsRefs[:0]
	for k := 0; k < op.nSegs; k++ {
		s, ok := pool.tryAcquire()
		if !ok {
			panic("core: unpack pool promised slots it does not have")
		}
		op.segs = append(op.segs, segRes{seg: s, bytes: segBytes(op.eff, op.segSize, k), held: true})
		refs = append(refs, segRef{addr: s.addr, key: s.key})
	}
	ep.ctsRefs = refs
	ep.sendStagedCTS(op)
}

// stageDone runs when the dynamic unpack buffer is ready (or could not be
// had).
func (op *recvOp) stageDone(s seg, err error) {
	ep := op.ep
	guardRecv(op)
	defer ep.unpinRecv(op)
	if err != nil {
		ep.abortRecv(op, err, true)
		return
	}
	if op.failed {
		ep.releaseSeg(ep.unpackPool, s)
		return
	}
	if op.next == rstepGeneric {
		op.segs = append(op.segs[:0], segRes{seg: s, bytes: op.eff, held: true})
		ep.ctsRefs = append(ep.ctsRefs[:0], segRef{addr: s.addr, key: s.key})
		ep.sendStagedCTS(op)
		return
	}
	op.wholeSeg, op.haveWhole = s, true
	refs := ep.ctsRefs[:0]
	for k := 0; k < op.nSegs; k++ {
		addr := s.addr + mem.Addr(int64(k)*op.segSize)
		// Views onto wholeSeg: not individually held, the backing buffer is
		// released once.
		op.segs = append(op.segs, segRes{
			seg:   seg{addr: addr, key: s.key},
			bytes: segBytes(op.eff, op.segSize, k),
		})
		refs = append(refs, segRef{addr: addr, key: s.key})
	}
	ep.ctsRefs = refs
	ep.sendStagedCTS(op)
}

// regDone runs when the receiver's user-buffer registration resolves, and
// sends the scheme's CTS.
func (op *recvOp) regDone(err error) {
	ep := op.ep
	guardRecv(op)
	defer ep.unpinRecv(op)
	if err != nil {
		ep.abortRecv(op, err, true)
		return
	}
	if op.failed {
		op.reg.discard()
		return
	}
	op.reg.held = true
	switch op.next {
	case rstepDirect:
		base := mem.Addr(int64(op.req.buf) + op.req.dt.TrueLB())
		refs := ep.ctsRefs[:0]
		for k := 0; k < op.nSegs; k++ {
			refs = append(refs, segRef{addr: base + mem.Addr(int64(k)*op.segSize), key: op.reg.refs[0].key})
		}
		ep.ctsRefs = refs
		ep.sendStagedCTS(op)

	case rstepMultiW:
		// Ship the layout (or its cached identity) plus the region keys.
		idx := ep.types.commit(op.req.dt)
		version := ep.types.version(idx)
		w := ep.ctrlW()
		w.u8(kindCTS)
		w.u32(op.key.op)
		w.u8(uint8(SchemeMultiW))
		w.i64(op.eff)
		w.u64(uint64(op.req.buf))
		w.u64(uint64(op.req.count))
		w.u32(uint32(idx))
		w.u32(version)
		if ep.layouts.needSend(op.key.src, idx, version) {
			w.u8(1)
			w.layout(op.req.dt)
			atomic.AddInt64(&ep.ctr.TypeLayoutsSent, 1)
		} else {
			w.u8(0)
		}
		w.regRefs(op.reg.refs)
		ep.sendCtrl(op.key.src, w.buf)
		ep.span("cts Multi-W", "handshake", op.key.op, op.eff, op.tStart)

	case rstepPRRS:
		// Tell the sender to start producing segments for scatter reads.
		op.segSize = ep.cfg.segSizeFor(op.eff)
		op.nSegs = int((op.eff + op.segSize - 1) / op.segSize)
		op.cur.ResetTo(op.req.dt, op.req.count)

		w := ep.ctrlW()
		w.u8(kindCTS)
		w.u32(op.key.op)
		w.u8(uint8(SchemePRRS))
		w.i64(op.eff)
		w.i64(op.segSize)
		ep.sendCtrl(op.key.src, w.buf)
		ep.span("cts P-RRS", "handshake", op.key.op, op.eff, op.tStart)

	default:
		panic("core: receive op registered with nothing to do next")
	}
}

// finishRecv completes the receive request and releases receiver resources;
// the op retires to the free-list once the last pinned continuation drops.
func (ep *Endpoint) finishRecv(op *recvOp) {
	if op.failed {
		return // abort teardown owns the resources now
	}
	if !ep.removeRecvOp(op) {
		return // already finalized
	}
	ep.span(schemeName(&recvSpanName, op.scheme), "data", op.key.op, op.eff, op.tStart)
	ep.observeTransfer(op.scheme, op.eff, op.tStart)
	if op.hasSel && ep.cfg.Selector != nil {
		// Close the adaptive loop: feed the measured receive latency back to
		// the selector that chose this scheme, and account its regret proxy.
		lat := int64(ep.tnow().Sub(op.tStart))
		if regret := ep.cfg.Selector.Observe(op.sel, op.scheme, lat); regret > 0 {
			atomic.AddInt64(&ep.ctr.TunerRegretNs, regret)
		}
	}
	if op.haveWhole {
		ep.releaseSeg(ep.unpackPool, op.wholeSeg)
		op.haveWhole = false
	}
	op.reg.release()
	var err error
	if op.truncated {
		err = ErrTruncate
	}
	op.req.complete(err)
	ep.qosDrain() // one fewer active op; parked transfers may now be admissible
	ep.retireRecv(op)
}

// --- Sender: CTS dispatch ----------------------------------------------------

func (ep *Endpoint) handleCTS(src int, r *ctrlReader) {
	id := r.u32()
	scheme := Scheme(r.u8())
	eff := r.i64()
	op := ep.lookupSendOp(src, id)
	if op == nil {
		ep.strayFrame("CTS", src, id)
	}
	// A CTS can still arrive for an op this side already aborted (the
	// receiver replied before our failure notice reached it). The data
	// movement is skipped, but per-peer cache state carried by the CTS —
	// the Multi-W layout below — must still be absorbed: the receiver has
	// marked it delivered and will never ship it again. Refs for a dead op
	// parse into endpoint scratch just to advance the reader; a live op
	// parses into its own retained buffers, which must be op-owned because
	// admission may park the data phase while another CTS arrives.
	dead := op == nil || op.failed
	if !dead {
		op.eff = eff
		op.scheme = scheme
		ep.span(schemeName(&handshakeSpanName, scheme), "handshake", op.id, eff, op.tStart)
	}
	switch scheme {
	case SchemeGeneric, SchemeBCSPUP, SchemeRWGUP:
		segSize := r.i64()
		if dead {
			ep.ctsSegScratch = r.segRefsInto(ep.ctsSegScratch[:0])
		} else {
			op.ctsSegs = r.segRefsInto(op.ctsSegs[:0])
		}
		if r.err != nil {
			panic(r.err)
		}
		if dead {
			return
		}
		op.segSize = segSize
	case SchemeMultiW:
		rBase := mem.Addr(r.u64())
		rCount := r.u64()
		idx := int(r.u32())
		version := r.u32()
		hasLayout := r.u8() != 0
		var layout *cachedLayout
		if hasLayout {
			enc := r.bytes()
			if r.err != nil {
				panic(r.err)
			}
			if _, had := ep.layouts.got[layoutKey{src, idx}]; had {
				atomic.AddInt64(&ep.ctr.TypeCacheReplaced, 1)
			}
			layout = ep.layouts.store(src, idx, version)
			if err := datatype.DecodeInto(&layout.t, enc); err != nil {
				panic(err)
			}
		}
		if dead {
			ep.ctsRegScratch = r.regRefsInto(ep.ctsRegScratch[:0])
		} else {
			op.ctsRegs = r.regRefsInto(op.ctsRegs[:0])
		}
		if r.err != nil {
			panic(r.err)
		}
		if dead {
			return
		}
		if layout == nil {
			if layout = ep.layouts.lookup(src, idx, version); layout == nil {
				panic(fmt.Sprintf("core rank %d: missing cached layout (%d,%d,v%d)",
					ep.rank, src, idx, version))
			}
			atomic.AddInt64(&ep.ctr.TypeCacheHits, 1)
		}
		// The count is the peer's claim. One that no buffer could hold is
		// refused here, before a program is compiled or a run walked from
		// it; the layout above is already absorbed either way.
		if !countFits(&layout.t, rCount) {
			ep.abortSend(op, fmt.Errorf("core rank %d: receiver count %d out of range for its layout (size %d, extent %d)",
				ep.rank, int64(rCount), layout.t.Size(), layout.t.Extent()))
			return
		}
		op.rBase, op.rLayout, op.rCount = rBase, layout, int(rCount)
	case SchemePRRS:
		segSize := r.i64()
		if r.err != nil {
			panic(r.err)
		}
		if dead {
			return
		}
		op.segSize = segSize
	default:
		panic(fmt.Sprintf("core: CTS with bad scheme %d", scheme))
	}
	ep.admitSend(op)
}

// countFits reports whether count instances of t are a message this rank can
// lay out: at least one, and neither count × Size() nor count × |Extent()| —
// the products the layout walk forms — leaves int64.
func countFits(t *datatype.Type, count uint64) bool {
	per := max(t.Size(), t.Extent(), -t.Extent(), 1)
	return count >= 1 && count <= math.MaxInt && count <= uint64(math.MaxInt64/per)
}

// admitted starts the sender's data movement, on the operands handleCTS
// parsed into the op, once admission lets it.
func (op *sendOp) admitted() {
	ep := op.ep
	switch op.scheme {
	case SchemeGeneric, SchemeBCSPUP, SchemeRWGUP:
		ep.sendStagedData(op)
	case SchemeMultiW:
		op.next = stepMultiW
		ep.withUserRegistration(op)
	default:
		ep.sendPRRSData(op)
	}
}

// finishSend completes the send request and releases sender resources; the
// op retires to the free-list once the last pinned continuation drops.
func (ep *Endpoint) finishSend(op *sendOp) {
	if op.failed {
		return // abort teardown owns the resources now
	}
	if !ep.removeSendOp(op) {
		return // already finalized
	}
	ep.span(schemeName(&sendSpanName, op.scheme), "data", op.id, op.eff, op.tStart)
	op.reg.release()
	op.req.complete(nil)
	ep.qosDrain() // one fewer active op; parked transfers may now be admissible
	ep.retireSend(op)
}

// --- Receiver: segment arrival (RDMA write with immediate) -------------------

func (ep *Endpoint) handleImm(src int, imm uint32, bytes int64) {
	op := ep.lookupRecvOp(src, imm)
	if op == nil {
		ep.strayFrame("immediate", src, imm) // data landed for an op we already aborted
		return
	}
	if op.failed {
		return
	}
	op.arrived++
	ep.mark("seg-arrive", "segment", imm)
	switch op.scheme {
	case SchemeMultiW:
		// Single immediate marks the whole zero-copy message landed.
		ep.finishRecv(op)
	case SchemeGeneric, SchemeBCSPUP, SchemeRWGUP:
		ep.stagedArrival(op)
	default:
		panic("core: immediate on unexpected scheme")
	}
}

// stagedArrival advances the staged receive path by one segment.
func (ep *Endpoint) stagedArrival(op *recvOp) {
	if op.direct {
		// Data landed straight in the user buffer; just count.
		if op.arrived == op.nSegs {
			ep.finishRecv(op)
		}
		return
	}
	segmentUnpack := ep.cfg.SegmentUnpack || op.nSegs == 1
	if segmentUnpack {
		k := op.arrived - 1
		ep.unpackSegment(op, k)
		return
	}
	// Segment unpack disabled (Figure 12's comparison case): wait for the
	// whole message, then unpack everything.
	if op.arrived == op.nSegs {
		for k := 0; k < op.nSegs; k++ {
			ep.unpackSegment(op, k)
		}
	}
}

// unpackSegment copies staging segment k into the user buffer and charges
// the copy cost; unpackDone releases the segment when the charge ends.
// Segments are unpacked in order (k counts up from zero on both paths of
// stagedArrival) and the host CPU serializes the charges, so the completions
// fire in segment order too: unpackDone needs no argument but a counter.
func (ep *Endpoint) unpackSegment(op *recvOp, k int) {
	sr := &op.segs[k]
	src := ep.memory.Bytes(sr.seg.addr, sr.bytes)
	st := op.unpacker.Unpack(src)
	n := st.Bytes
	if n != sr.bytes {
		panic("core: segment unpack shortfall")
	}
	atomic.AddInt64(&ep.ctr.BytesUnpacked, n)
	atomic.AddInt64(&ep.ctr.SegmentsPipelined, 1)
	if len(st.Shards) > 1 {
		atomic.AddInt64(&ep.ctr.ParallelUnpacks, 1)
	}
	ep.observeShards(st)
	cost := ep.cfg.parPackCost(ep.model, st)
	sr.t0 = ep.tnow()
	// Pin across the deferred completion: the op can abort (and finalize,
	// with no descriptors outstanding) while this unpack charge is in
	// flight, and the completion must still read this op's state, not a
	// recycled successor's.
	ep.pinRecv(op)
	ep.afterNamed(cost, "unpack", op.unpackDoneFn)
}

// unpackDone runs when the next segment's unpack charge ends; the last
// segment completes the receive.
func (op *recvOp) unpackDone() {
	ep := op.ep
	guardRecv(op)
	defer ep.unpinRecv(op)
	k := op.unpacked
	op.unpacked++
	ep.span("unpack", "segment", op.key.op, op.segs[k].bytes, op.segs[k].t0)
	if op.failed {
		return // abort teardown released (or will release) the segments
	}
	// Pool slots return to the pool; Generic's dynamic staging buffer is
	// deregistered and freed (releaseSeg dispatches on the segment
	// kind). Segments carved from a whole on-the-fly buffer are views:
	// the backing buffer is released once, at completion.
	if !op.haveWhole {
		ep.releaseSeg(ep.unpackPool, op.segs[k].seg)
		op.segs[k].held = false
	}
	op.finished++
	if op.finished == op.nSegs {
		ep.finishRecv(op)
	}
}
