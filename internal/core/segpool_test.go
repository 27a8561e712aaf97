package core

import (
	"testing"

	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// TestSegPoolWaiterFIFO pins the pool's waiter contract directly: waiters are
// served strictly FIFO (a later small demand never jumps an earlier larger
// one), PoolExhausted counts only waiters that actually park, and an aborted
// waiter — which takes its slot and immediately gives it back, exactly what
// the schemes' op.failed paths do — still unblocks everyone behind it.
func TestSegPoolWaiterFIFO(t *testing.T) {
	m := mem.NewMemory("t", 8<<20)
	p, err := newSegPool(m, 256<<10, 128<<10, true) // two slots
	if err != nil {
		t.Fatal(err)
	}
	ctr := &stats.Counters{}
	p.ctr = ctr
	if p.totalSlots() != 2 || p.available() != 2 {
		t.Fatalf("pool carved %d slots (%d free), want 2", p.totalSlots(), p.available())
	}

	s1, ok1 := p.tryAcquire()
	s2, ok2 := p.tryAcquire()
	if !ok1 || !ok2 || p.available() != 0 {
		t.Fatal("could not drain the pool")
	}

	var order []string
	take := func(n int) []seg {
		out := make([]seg, n)
		for i := range out {
			s, ok := p.tryAcquire()
			if !ok {
				t.Fatalf("waiter served with %d free slots, needed %d", p.available(), n)
			}
			out[i] = s
		}
		return out
	}
	// A needs both slots; B simulates an aborted transfer (take one slot,
	// release it untouched); C is an ordinary one-slot waiter.
	p.whenAvailable(2, func() {
		order = append(order, "A")
		for _, s := range take(2) {
			p.release(s)
		}
	})
	p.whenAvailable(1, func() {
		order = append(order, "B")
		p.release(take(1)[0])
	})
	p.whenAvailable(1, func() {
		order = append(order, "C")
		p.release(take(1)[0])
	})
	if ctr.PoolExhausted != 3 {
		t.Fatalf("PoolExhausted = %d, want 3 (every waiter parked)", ctr.PoolExhausted)
	}

	// One free slot could serve B or C, but A is first in line: FIFO means
	// nobody runs yet.
	p.release(s1)
	if len(order) != 0 {
		t.Fatalf("waiters ran out of order with one slot free: %v", order)
	}
	// The second slot satisfies A, whose releases cascade through B and C.
	p.release(s2)
	if got := len(order); got != 3 || order[0] != "A" || order[1] != "B" || order[2] != "C" {
		t.Fatalf("waiter order = %v, want [A B C]", order)
	}
	if p.available() != p.totalSlots() {
		t.Fatalf("pool leaked: %d/%d free after drain", p.available(), p.totalSlots())
	}
	if p.pendingWaiters() != 0 {
		t.Fatalf("%d waiters stuck after drain", p.pendingWaiters())
	}
	// A fresh waiter with slots free runs immediately and does not count as
	// an exhaustion.
	ran := false
	p.whenAvailable(1, func() {
		ran = true
		p.release(take(1)[0])
	})
	if !ran || ctr.PoolExhausted != 3 {
		t.Fatalf("immediate waiter: ran=%v PoolExhausted=%d, want true/3", ran, ctr.PoolExhausted)
	}
}

// TestAbortWithParkedPoolWaiters is the end-to-end regression for an op that
// aborts while segment-pipeline waiters are parked on a dry pool: every
// parked continuation must still be served (taking and immediately releasing
// its slot), surviving transfers must complete, and the pool must return to
// full capacity with no stuck waiters. Three concurrent 1 MB sends (8
// segments each) against a two-slot pack pool guarantee parked waiters
// whatever the completion ordering; permanent CQE errors then abort some of
// the in-flight ops across seeds.
func TestAbortWithParkedPoolWaiters(t *testing.T) {
	vec := datatype.Must(datatype.TypeVector(512, 512, 1024, datatype.Int32)) // 1 MB
	sawParkedAbort := false
	for seed := int64(1); seed <= 10; seed++ {
		fc := fault.Config{
			Seed:          seed,
			CQEErrorRate:  0.05,
			PermanentRate: 1.0,
		}
		cfg := DefaultConfig()
		cfg.Scheme = SchemeBCSPUP
		cfg.PoolSize = 256 << 10 // two 128 KB slots
		w, _ := newFaultWorld(t, 2, cfg, 64<<20, fc)
		const msgs = 3
		w.run(t, func(p *simtime.Process, ep *Endpoint) {
			reqs := make([]*Request, msgs)
			for m := 0; m < msgs; m++ {
				buf := allocFor(ep, vec, 1)
				if ep.Rank() == 0 {
					fillMsg(ep, buf, vec, 1, byte(m+1))
					reqs[m] = ep.Isend(buf, 1, vec, 1, m)
				} else {
					reqs[m] = ep.Irecv(buf, 1, vec, 0, m)
				}
			}
			WaitAll(p, reqs...) // per-request errors expected under faults
		})
		checkNoLeaks(t, w)
		c0, c1 := w.eps[0].Counters(), w.eps[1].Counters()
		// An early abort (e.g. a failed RTS) can thin the pipelines before
		// they ever contend, so parking is asserted across the seed sweep,
		// not per seed — what must hold every time is checkNoLeaks above.
		if c0.PoolExhausted > 0 && c0.RequestsFailed+c1.RequestsFailed > 0 {
			sawParkedAbort = true
		}
	}
	if !sawParkedAbort {
		t.Fatal("no seed produced an abort in a world with parked pool waiters; regression not exercised")
	}
}
