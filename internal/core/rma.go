package core

import (
	"sync/atomic"

	"fmt"

	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/verbs"
)

// One-sided (RMA) operations. The paper's datatype-layout machinery came out
// of MPI-2 one-sided communication (Träff et al.'s cache, Section 5.4.2);
// this is the natural extension: Put and Get move derived-datatype data
// directly between an origin buffer and a remote window with the same
// zero-copy dual-cursor walk the Multi-W scheme uses — no rendezvous, since
// in MPI RMA the *origin* holds both layouts.

// ErrWindowBounds reports an RMA access outside the target window.
var ErrWindowBounds = fmt.Errorf("core: RMA access outside window")

// ExposeWindow registers a contiguous window of local memory for remote
// access and returns the key peers need to address it. The registration
// goes through the user pin-down cache and its cost is charged.
func (ep *Endpoint) ExposeWindow(base mem.Addr, size int64) (uint32, *mem.Region, error) {
	region, ops, err := ep.userReg.Acquire(base, size)
	if err != nil {
		return 0, nil, err
	}
	ep.accountReg(ops)
	ep.hca.ChargeCPUNamed(ep.model.RegOpsTime(ops), "reg")
	return region.RKey, region, nil
}

// CloseWindow releases a window registration.
func (ep *Endpoint) CloseWindow(region *mem.Region) {
	ep.releaseUserRegions([]*mem.Region{region})
}

// rmaArgs bundles one Put/Get request.
type rmaArgs struct {
	dst    int
	oBuf   mem.Addr
	oCount int
	oType  *datatype.Type
	tBase  mem.Addr // absolute address of the target layout's origin
	tKey   uint32
	tWinLo mem.Addr // window bounds for validation
	tWinHi mem.Addr
	tCount int
	tType  *datatype.Type
}

func (a *rmaArgs) validate() error {
	oBytes := a.oType.Size() * int64(a.oCount)
	tBytes := a.tType.Size() * int64(a.tCount)
	if oBytes != tBytes {
		return fmt.Errorf("core: RMA size mismatch: origin %d bytes, target %d", oBytes, tBytes)
	}
	lo := int64(a.tBase) + a.tType.TrueLB()
	hi := int64(a.tBase) + a.tType.TrueLB() + a.tType.TrueExtent() + int64(a.tCount-1)*a.tType.Extent()
	if lo < int64(a.tWinLo) || hi > int64(a.tWinHi) {
		return ErrWindowBounds
	}
	return nil
}

// Put writes (oBuf, oCount, oType) into the target window at dst, laid out
// as (tCount, tType) at tBase. done runs when every write has completed
// remotely. Zero-copy: data moves by RDMA writes straight from the origin's
// registered user blocks into the target layout's runs.
func (ep *Endpoint) Put(dst int, oBuf mem.Addr, oCount int, oType *datatype.Type,
	tBase mem.Addr, tKey uint32, tWinLo, tWinHi mem.Addr, tCount int, tType *datatype.Type,
	done func(error)) {
	ep.rma(verbs.OpRDMAWrite, &rmaArgs{dst: dst, oBuf: oBuf, oCount: oCount, oType: oType,
		tBase: tBase, tKey: tKey, tWinLo: tWinLo, tWinHi: tWinHi, tCount: tCount, tType: tType}, done)
}

// Get reads the target layout (tCount, tType at tBase) in dst's window into
// (oBuf, oCount, oType). done runs when every read has landed locally: each
// remote contiguous run becomes one (or more) scatter reads.
func (ep *Endpoint) Get(dst int, oBuf mem.Addr, oCount int, oType *datatype.Type,
	tBase mem.Addr, tKey uint32, tWinLo, tWinHi mem.Addr, tCount int, tType *datatype.Type,
	done func(error)) {
	ep.rma(verbs.OpRDMARead, &rmaArgs{dst: dst, oBuf: oBuf, oCount: oCount, oType: oType,
		tBase: tBase, tKey: tKey, tWinLo: tWinLo, tWinHi: tWinHi, tCount: tCount, tType: tType}, done)
}

// rma is Put (opc a write) and Get (a read): validate, register the origin,
// build the descriptors of the dual-layout walk against the window — its one
// region, which validate has checked the target layout lies inside — and post
// them.
func (ep *Endpoint) rma(opc verbs.Opcode, a *rmaArgs, done func(error)) {
	if err := a.validate(); err != nil {
		done(err)
		return
	}
	if a.dst == ep.rank {
		ep.rmaLocal(a, opc == verbs.OpRDMAWrite, done)
		return
	}
	ep.registerOrigin(a.oBuf, a.oType, a.oCount, func(regions []*mem.Region, refs []regRef, err error) {
		if err != nil {
			done(err)
			return
		}
		var set wrSet // one-shot: RMA ops have no pooled op to own an arena
		window := []regRef{{addr: a.tWinLo, len: int64(a.tWinHi - a.tWinLo), key: a.tKey}}
		wrs, err := ep.dualWRs(&set, opc, ep.Program(a.oType, a.oCount).Cursor(), a.oBuf, refs,
			ep.Program(a.tType, a.tCount).Cursor(), a.tBase, window, a.oType.Size()*int64(a.oCount))
		if err != nil {
			ep.releaseUserRegions(regions)
			done(err)
			return
		}
		ep.chargeTypeProc(len(wrs))
		ep.postRMAWRs(a.dst, wrs, regions, done)
	})
}

// registerOrigin registers an RMA origin buffer with a one-shot regWalk (RMA
// operations are not pooled) and hands the regions to done.
func (ep *Endpoint) registerOrigin(buf mem.Addr, dt *datatype.Type, count int,
	done func([]*mem.Region, []regRef, error)) {
	w := &regWalk{}
	w.init(ep, func(err error) { done(w.regions, w.refs, err) })
	w.start(buf, dt, count)
}

// postRMAWRs posts the descriptors and runs done when every one of them has
// finally resolved, releasing the origin registrations. The first error
// wins but the drain still waits for the rest, so regions are never released
// while a descriptor might still read or write through them. The posts are
// the records of wr.go — one per doorbell batch, or one per descriptor —
// which retry transient faults themselves; every descriptor lands in a range
// of its own and nothing is announced to the target, so the units go out
// together.
func (ep *Endpoint) postRMAWRs(dst int, wrs []verbs.SendWR, regions []*mem.Region, done func(error)) {
	if len(wrs) == 0 {
		ep.releaseUserRegions(regions)
		done(nil)
		return
	}
	var left int // posts not yet resolved
	var failed error
	resolve := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
		left--
		if left == 0 {
			ep.releaseUserRegions(regions)
			done(failed)
		}
	}
	if ep.cfg.ListPost && len(wrs) > 1 {
		batches := chunkBatches(wrs, ep.chunkLimit, nil)
		left = len(batches)
		for _, batch := range batches {
			rec := ep.getBatchWR(wrCall, dst, batch)
			rec.done = resolve
			ep.release(rec)
		}
		return
	}
	left = len(wrs)
	for i := range wrs {
		rec := ep.getWR(wrCall, dst)
		rec.done = resolve
		ep.postSingle(rec, &wrs[i])
	}
}

// rmaLocal implements Put/Get where origin and target are the same rank:
// a straight local repack between the two layouts.
func (ep *Endpoint) rmaLocal(a *rmaArgs, put bool, done func(error)) {
	bytes := a.oType.Size() * int64(a.oCount)
	tmp := make([]byte, bytes)
	// A put packs the origin layout and unpacks into the target's; a get the
	// other way round.
	pBuf, pCount, pType := a.oBuf, a.oCount, a.oType
	uBuf, uCount, uType := a.tBase, a.tCount, a.tType
	if !put {
		pBuf, pCount, pType, uBuf, uCount, uType = uBuf, uCount, uType, pBuf, pCount, pType
	}
	ep.pk.Bind(ep.memory, pBuf, ep.Program(pType, pCount))
	_, r1 := ep.pk.PackTo(tmp)
	ep.upk.Bind(ep.memory, uBuf, ep.Program(uType, uCount))
	_, r2 := ep.upk.UnpackFrom(tmp)
	runs := r1 + r2
	atomic.AddInt64(&ep.ctr.BytesPacked, bytes)
	atomic.AddInt64(&ep.ctr.BytesUnpacked, bytes)
	ep.afterNamed(ep.cfg.packCost(ep.model, 2*bytes, runs), "pack", func() { done(nil) })
}
