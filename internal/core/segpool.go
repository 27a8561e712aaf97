package core

import (
	"sync/atomic"

	"fmt"

	"repro/internal/mem"
	"repro/internal/stats"
)

// minShardSlot is the smallest slot size a pool shard is carved into.
const minShardSlot = 4 << 10

// seg is one staging segment: either a slot of a pre-registered pool or a
// dynamically allocated, on-the-fly registered buffer (the fallback of
// Section 4.3.3).
type seg struct {
	addr   mem.Addr
	key    uint32
	pooled bool
	shard  int         // pooled only: the size-class shard the slot came from
	region *mem.Region // dynamic segments only
}

// poolShard is one size class of a segPool: a run of equally sized slots
// with its own free list and FIFO waiter queue. Each message draws every
// slot it needs from a single shard (the class its segment size maps to),
// so two messages with different segment sizes never contend — and never
// hold-and-wait across classes, which keeps the pool deadlock-free.
type poolShard struct {
	slot  int64
	slots int // total slots carved at construction
	free  []mem.Addr

	// waiters are continuations parked until slots of this class free up
	// (the paper's "stall the communication until buffers are available"
	// policy, Section 4.3.3). Each waiter names the slot count it needs;
	// waiters are served FIFO so no transfer starves. The queue is
	// head-indexed (whead) with lazy compaction so a warm stall/resume
	// cycle reuses retained capacity instead of reallocating per pop.
	waiters []poolWaiter
	whead   int
}

// pending reports the shard's parked waiter count.
func (sh *poolShard) pending() int { return len(sh.waiters) - sh.whead }

// segPool is a pre-registered, page-aligned staging pool carved into
// fixed-size slots, allocated once at endpoint construction (the paper's
// 20 MB pack and unpack buffers of Section 7.2). With PoolShards > 1 the
// pool is split into size-class shards: shard 0 holds full SegmentSize
// slots and each further shard halves the slot size, so small-segment
// messages draw from their own class instead of wasting large slots.
type segPool struct {
	memory  *mem.Memory
	base    mem.Addr
	region  *mem.Region
	slot    int64 // class-0 (largest) slot size
	shards  []poolShard
	enabled bool

	// Observability, wired by NewEndpoint: ctr.PoolExhausted counts waiters
	// that actually park (the pool genuinely ran dry); gauge tracks slot
	// occupancy across all shards. Both may be nil (gauge methods are
	// nil-safe).
	ctr   *stats.Counters
	gauge *stats.Gauge
}

type poolWaiter struct {
	need int
	fn   func()
}

// newSegPool carves a pool of total bytes into nShards size classes of
// slot-sized (halving per class) pieces. With enabled false the pool
// allocates nothing and every acquire falls back. nShards <= 1 yields the
// single-class pool of the original design.
func newSegPool(m *mem.Memory, total, slot int64, nShards int, enabled bool) (*segPool, error) {
	if nShards < 1 {
		nShards = 1
	}
	p := &segPool{memory: m, slot: slot, enabled: enabled}
	if !enabled {
		p.shards = []poolShard{{slot: slot}}
		return p, nil
	}
	base, err := m.AllocPage(total)
	if err != nil {
		return nil, fmt.Errorf("segpool: %w", err)
	}
	region, err := m.Reg().Register(base, total)
	if err != nil {
		return nil, fmt.Errorf("segpool: %w", err)
	}
	p.base = base
	p.region = region
	span := total / int64(nShards)
	off := int64(0)
	sz := slot
	for i := 0; i < nShards; i++ {
		sh := poolShard{slot: sz}
		end := off + span
		if i == nShards-1 {
			end = total // the last shard absorbs the rounding remainder
		}
		for ; off+sz <= end; off += sz {
			sh.free = append(sh.free, base+mem.Addr(off))
		}
		sh.slots = len(sh.free)
		p.shards = append(p.shards, sh)
		if sz/2 >= minShardSlot {
			sz /= 2
		}
	}
	return p, nil
}

// classFor maps a segment size to the shard it draws from: the smallest
// slot class that still fits the segment (falling back to class 0 for
// oversize requests, which the segment-size rule never produces).
func (p *segPool) classFor(size int64) int {
	for i := len(p.shards) - 1; i > 0; i-- {
		if p.shards[i].slots > 0 && p.shards[i].slot >= size {
			return i
		}
	}
	return 0
}

// tryAcquire returns a pooled segment of class c, or ok=false when that
// shard is dry (or the pool is disabled).
func (p *segPool) tryAcquire(c int) (seg, bool) {
	if !p.enabled {
		return seg{}, false
	}
	sh := &p.shards[c]
	if len(sh.free) == 0 {
		return seg{}, false
	}
	a := sh.free[len(sh.free)-1]
	sh.free = sh.free[:len(sh.free)-1]
	p.gauge.Add(1)
	return seg{addr: a, key: p.region.LKey, pooled: true, shard: c}, true
}

// release returns a pooled segment to its shard and resumes that shard's
// waiters whose demands can now be met, in FIFO order.
func (p *segPool) release(s seg) {
	if !s.pooled {
		panic("segpool: release of non-pooled segment")
	}
	sh := &p.shards[s.shard]
	sh.free = append(sh.free, s.addr)
	p.gauge.Add(-1)
	for sh.pending() > 0 && len(sh.free) >= sh.waiters[sh.whead].need {
		w := sh.waiters[sh.whead]
		sh.waiters[sh.whead] = poolWaiter{}
		sh.whead++
		if sh.whead == len(sh.waiters) {
			sh.waiters = sh.waiters[:0]
			sh.whead = 0
		} else if sh.whead > 32 && sh.whead*2 >= len(sh.waiters) {
			n := copy(sh.waiters, sh.waiters[sh.whead:])
			sh.waiters = sh.waiters[:n]
			sh.whead = 0
		}
		w.fn()
	}
}

// whenAvailable runs fn as soon as need slots of class c are free
// (immediately if they already are). fn must take its slots synchronously
// via tryAcquire.
func (p *segPool) whenAvailable(need, c int, fn func()) {
	sh := &p.shards[c]
	if sh.pending() == 0 && len(sh.free) >= need {
		fn()
		return
	}
	// The shard genuinely ran dry: this transfer parks until slots free up.
	if p.ctr != nil {
		atomic.AddInt64(&p.ctr.PoolExhausted, 1)
	}
	sh.waiters = append(sh.waiters, poolWaiter{need: need, fn: fn})
}

// availableFor reports free slots of class c.
func (p *segPool) availableFor(c int) int { return len(p.shards[c].free) }

// available reports free slots across all shards.
func (p *segPool) available() int {
	n := 0
	for i := range p.shards {
		n += len(p.shards[i].free)
	}
	return n
}

// slotsFor reports the total slot count of class c.
func (p *segPool) slotsFor(c int) int { return p.shards[c].slots }

// totalSlots reports the slot count across all shards.
func (p *segPool) totalSlots() int {
	n := 0
	for i := range p.shards {
		n += p.shards[i].slots
	}
	return n
}

// slotFor reports the slot size of class c.
func (p *segPool) slotFor(c int) int64 { return p.shards[c].slot }

// pendingWaiters reports parked waiters across all shards.
func (p *segPool) pendingWaiters() int {
	n := 0
	for i := range p.shards {
		n += p.shards[i].pending()
	}
	return n
}

// releaseSeg returns a segment to its pool or releases its dynamic
// resources, charging deregistration/free time when real work happens.
func (ep *Endpoint) releaseSeg(pool *segPool, s seg) {
	if s.pooled {
		pool.release(s)
		ep.qosDrain() // pool pressure just dropped
		return
	}
	ops, err := ep.stagingReg.Release(s.region)
	if err != nil {
		panic(err)
	}
	ep.accountReg(ops)
	atomic.AddInt64(&ep.ctr.DynamicFrees, 1)
	if err := ep.memory.Free(s.addr); err != nil {
		panic(err)
	}
	ep.hca.ChargeCPUNamed(ep.model.RegOpsTime(ops)+ep.model.FreeCost, "reg")
	ep.qosDrain() // registration pressure just dropped
}
