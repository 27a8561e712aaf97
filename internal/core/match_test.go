package core

import (
	"math/rand"
	"testing"

	"repro/internal/datatype"
	"repro/internal/simtime"
)

// --- Differential test: indexed matching vs the original linear scans -------

// refRecvQ is the pre-index posted-receive store: a flat slice scanned
// front-to-back, exactly the code the recvIndex replaced. The differential
// test drives both with identical operation streams and demands identical
// match choices.
type refRecvQ struct {
	s []*Request
}

func (rq *refRecvQ) post(r *Request) { rq.s = append(rq.s, r) }

func (rq *refRecvQ) match(ctx, src, tag int) *Request {
	for i, r := range rq.s {
		if matchWanted(r.ctxWant, r.srcWant, r.tagWant, ctx, src, tag) {
			rq.s = append(rq.s[:i], rq.s[i+1:]...)
			return r
		}
	}
	return nil
}

// refUnexpQ is the pre-index unexpected-arrival store.
type refUnexpQ struct {
	s []*inbound
}

func (uq *refUnexpQ) add(inb *inbound) { uq.s = append(uq.s, inb) }

func (uq *refUnexpQ) take(ctx, src, tag int) *inbound {
	for i, inb := range uq.s {
		if matchWanted(ctx, src, tag, inb.ctx, inb.src, inb.tag) {
			uq.s = append(uq.s[:i], uq.s[i+1:]...)
			return inb
		}
	}
	return nil
}

func (uq *refUnexpQ) peek(ctx, src, tag int) *inbound {
	for _, inb := range uq.s {
		if matchWanted(ctx, src, tag, inb.ctx, inb.src, inb.tag) {
			return inb
		}
	}
	return nil
}

// randWant draws a (src, tag) pattern, wildcards included.
func randWant(rng *rand.Rand, peers, tags int) (src, tag int) {
	src = rng.Intn(peers + 1)
	if src == peers {
		src = AnySource
	}
	tag = rng.Intn(tags + 1)
	if tag == tags {
		tag = AnyTag
	}
	return src, tag
}

func TestRecvIndexMatchesLinearReference(t *testing.T) {
	const peers, tags, ctxs, ops = 5, 4, 2, 20000
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ref refRecvQ
		var idx recvIndex
		nextID := 0
		for op := 0; op < ops; op++ {
			if rng.Intn(2) == 0 {
				src, tag := randWant(rng, peers, tags)
				r := &Request{ctxWant: rng.Intn(ctxs), srcWant: src, tagWant: tag, count: nextID}
				nextID++
				ref.post(r)
				idx.post(r)
			} else {
				ctx, src, tag := rng.Intn(ctxs), rng.Intn(peers), rng.Intn(tags)
				want := ref.match(ctx, src, tag)
				got := idx.match(ctx, src, tag)
				if want != got {
					t.Fatalf("seed %d op %d: match(%d,%d,%d) diverged: ref=%v idx=%v",
						seed, op, ctx, src, tag, reqID(want), reqID(got))
				}
			}
			if idx.len() != len(ref.s) {
				t.Fatalf("seed %d op %d: posted count diverged: ref=%d idx=%d",
					seed, op, len(ref.s), idx.len())
			}
		}
	}
}

func reqID(r *Request) interface{} {
	if r == nil {
		return nil
	}
	return r.count
}

func TestUnexpIndexMatchesLinearReference(t *testing.T) {
	const peers, tags, ctxs, ops = 5, 4, 2, 20000
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ref refUnexpQ
		var idx unexpIndex
		nextOp := uint32(0)
		for op := 0; op < ops; op++ {
			switch rng.Intn(3) {
			case 0:
				inb := &inbound{inboundMsg: inboundMsg{
					kind: kindEager,
					ctx:  rng.Intn(ctxs), src: rng.Intn(peers), tag: rng.Intn(tags),
					opID: nextOp,
				}}
				nextOp++
				// The reference shares pointers with the index, whose queue
				// links run through the records themselves: a claim that left
				// a stale link behind would corrupt a later answer.
				ref.add(inb)
				idx.add(inb)
			case 1:
				src, tag := randWant(rng, peers, tags)
				ctx := rng.Intn(ctxs)
				want := ref.take(ctx, src, tag)
				got := idx.take(ctx, src, tag)
				if want != got {
					t.Fatalf("seed %d op %d: take(%d,%d,%d) diverged: ref=%v idx=%v",
						seed, op, ctx, src, tag, inbID(want), inbID(got))
				}
			case 2:
				src, tag := randWant(rng, peers, tags)
				ctx := rng.Intn(ctxs)
				want := ref.peek(ctx, src, tag)
				got, ok := idx.peek(ctx, src, tag)
				if !ok {
					got = nil
				}
				if want != got {
					t.Fatalf("seed %d op %d: peek(%d,%d,%d) diverged: ref=%v idx=%v",
						seed, op, ctx, src, tag, inbID(want), inbID(got))
				}
			}
			if idx.len() != len(ref.s) {
				t.Fatalf("seed %d op %d: arrival count diverged: ref=%d idx=%d",
					seed, op, len(ref.s), idx.len())
			}
		}
	}
}

func inbID(inb *inbound) interface{} {
	if inb == nil {
		return nil
	}
	return inb.opID
}

// --- annQ prune --------------------------------------------------------------

// TestAnnounceQueuePrune drives many messages through one endpoint and
// asserts the per-destination announce queues retain nothing afterwards: the
// queue is a list through the send ops themselves, so a drained queue must be
// empty and every op (with the eager frame it held) back on the free list.
func TestAnnounceQueuePrune(t *testing.T) {
	const msgs = 2000
	cfg := DefaultConfig()
	w := newTestWorld(t, 2, cfg, 64<<20)
	eager := datatype.Must(datatype.TypeContiguous(64, datatype.Int32))    // 256 B: eager
	rndv := datatype.Must(datatype.TypeVector(64, 64, 128, datatype.Byte)) // 4 KB sparse: used ×4 → rendezvous
	w.run(t, func(p *simtime.Process, ep *Endpoint) {
		peer := 1 - ep.Rank()
		ebuf := allocFor(ep, eager, 1)
		rbuf := allocFor(ep, rndv, 4)
		if ep.Rank() == 0 {
			// Bursts of nonblocking sends so announce slots pile up before
			// the queue drains, mixing eager and rendezvous traffic.
			for base := 0; base < msgs; base += 100 {
				reqs := make([]*Request, 0, 100)
				for i := 0; i < 100; i++ {
					if i%10 == 9 {
						reqs = append(reqs, ep.Isend(rbuf, 4, rndv, peer, base+i))
					} else {
						reqs = append(reqs, ep.Isend(ebuf, 1, eager, peer, base+i))
					}
				}
				WaitAll(p, reqs...)
			}
		} else {
			for i := 0; i < msgs; i++ {
				var err error
				if i%10 == 9 {
					_, err = ep.Recv(p, rbuf, 4, rndv, peer, i)
				} else {
					_, err = ep.Recv(p, ebuf, 1, eager, peer, i)
				}
				if err != nil {
					t.Errorf("recv %d: %v", i, err)
					return
				}
			}
		}
	})
	for _, ep := range w.eps {
		for dst, p := range ep.peers {
			if p == nil {
				continue
			}
			if p.ann.head != nil || p.ann.tail != nil {
				t.Errorf("rank %d -> %d: undrained announce queue", ep.Rank(), dst)
			}
		}
		for _, op := range ep.sendOps.Parked() {
			if op.annNext != nil || op.frame != nil {
				t.Errorf("rank %d: a recycled send op still holds its queue link or frame", ep.Rank())
			}
		}
		if ps := ep.PoolStats(); ps.LiveSendOps != 0 || ps.LiveBufs != 0 {
			t.Errorf("rank %d: announces left records out: %+v", ep.Rank(), ps)
		}
	}
}

// --- Credit scaling -----------------------------------------------------------

func TestCreditsForScale(t *testing.T) {
	cases := []struct{ n, want int }{
		{2, initialCredits}, {16, initialCredits}, {32, initialCredits},
		{64, 128}, {256, 32}, {1024, 8}, {4096, 8},
	}
	for _, c := range cases {
		if got := creditsFor(c.n); got != c.want {
			t.Errorf("creditsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// Per-endpoint posted WRs must stay O(1) per peer as worlds grow: a
	// shared 8K budget, plus the 8-credit floor per peer.
	for _, n := range []int{64, 256, 1024, 4096} {
		total := creditsFor(n) * (n - 1)
		if limit := 8192 + 8*n; total > limit {
			t.Errorf("n=%d: %d credits posted per endpoint, want <= %d", n, total, limit)
		}
	}
}
