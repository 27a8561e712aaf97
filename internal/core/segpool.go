package core

import (
	"sync/atomic"

	"fmt"

	"repro/internal/mem"
	"repro/internal/stats"
)

// seg is one staging segment: either a slot of a pre-registered pool or a
// dynamically allocated, on-the-fly registered buffer (the fallback of
// Section 4.3.3).
type seg struct {
	addr   mem.Addr
	key    uint32
	pooled bool
	region *mem.Region // dynamic segments only
}

// segPool is a pre-registered, page-aligned staging pool carved into
// fixed-size slots, allocated once at endpoint construction (the paper's
// 20 MB pack and unpack buffers of Section 7.2).
type segPool struct {
	memory  *mem.Memory
	base    mem.Addr
	region  *mem.Region
	slots   int // total slots carved at construction
	free    []mem.Addr
	enabled bool

	// waiters are continuations parked until slots free up (the paper's
	// "stall the communication until buffers are available" policy, Section
	// 4.3.3). Each waiter names the slot count it needs; waiters are served
	// FIFO so no transfer starves. The queue is head-indexed (whead) with
	// lazy compaction so a warm stall/resume cycle reuses retained capacity
	// instead of reallocating per pop.
	waiters []poolWaiter
	whead   int

	// Observability, wired by NewEndpoint: ctr.PoolExhausted counts waiters
	// that actually park (the pool genuinely ran dry); gauge tracks slot
	// occupancy. Both may be nil (gauge methods are nil-safe).
	ctr   *stats.Counters
	gauge *stats.Gauge
}

type poolWaiter struct {
	need int
	fn   func()
}

// newSegPool carves a pool of total bytes into slot-sized pieces. With
// enabled false the pool allocates nothing and every acquire falls back.
func newSegPool(m *mem.Memory, total, slot int64, enabled bool) (*segPool, error) {
	p := &segPool{memory: m, enabled: enabled}
	if !enabled {
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
	for off := int64(0); off+slot <= total; off += slot {
		p.free = append(p.free, base+mem.Addr(off))
	}
	p.slots = len(p.free)
	return p, nil
}

// tryAcquire returns a pooled segment, or ok=false when the pool is dry (or
// disabled).
func (p *segPool) tryAcquire() (seg, bool) {
	if !p.enabled || len(p.free) == 0 {
		return seg{}, false
	}
	a := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.gauge.Add(1)
	return seg{addr: a, key: p.region.LKey, pooled: true}, true
}

// release returns a pooled segment and resumes the waiters whose demands can
// now be met, in FIFO order.
func (p *segPool) release(s seg) {
	if !s.pooled {
		panic("segpool: release of non-pooled segment")
	}
	p.free = append(p.free, s.addr)
	p.gauge.Add(-1)
	for p.pendingWaiters() > 0 && len(p.free) >= p.waiters[p.whead].need {
		w := p.waiters[p.whead]
		p.waiters[p.whead] = poolWaiter{}
		p.whead++
		if p.whead == len(p.waiters) {
			p.waiters = p.waiters[:0]
			p.whead = 0
		} else if p.whead > 32 && p.whead*2 >= len(p.waiters) {
			n := copy(p.waiters, p.waiters[p.whead:])
			p.waiters = p.waiters[:n]
			p.whead = 0
		}
		w.fn()
	}
}

// whenAvailable runs fn as soon as need slots are free (immediately if they
// already are). fn must take its slots synchronously via tryAcquire.
func (p *segPool) whenAvailable(need int, fn func()) {
	if p.pendingWaiters() == 0 && len(p.free) >= need {
		fn()
		return
	}
	// The pool genuinely ran dry: this transfer parks until slots free up.
	if p.ctr != nil {
		atomic.AddInt64(&p.ctr.PoolExhausted, 1)
	}
	p.waiters = append(p.waiters, poolWaiter{need: need, fn: fn})
}

// available reports the free slot count.
func (p *segPool) available() int { return len(p.free) }

// totalSlots reports the pool's slot count.
func (p *segPool) totalSlots() int { return p.slots }

// pendingWaiters reports the parked waiter count.
func (p *segPool) pendingWaiters() int { return len(p.waiters) - p.whead }

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
}
