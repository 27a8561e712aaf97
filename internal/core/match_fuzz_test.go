package core

import (
	"math/rand"
	"testing"

	"repro/internal/allocsite"
)

// fuzzKeys spans the exact keys the matching fuzz draws from: 2 contexts x
// 8 sources x 4 tags = 64, well past the 8 a Go map holds in its small form.
const fuzzCtxs, fuzzSrcs, fuzzTags = 2, 8, 4

// fuzzWant decodes a byte into a (ctx, src, tag) pattern; with wild set, one
// value in five of the source and of the tag is a wildcard.
func fuzzWant(b byte, wild bool) (ctx, src, tag int) {
	ctx, src, tag = int(b&1), int(b>>1)%fuzzSrcs, int(b>>4)%fuzzTags
	if wild && b%5 == 0 {
		src = AnySource
	}
	if wild && b%5 == 1 || wild && b%7 == 0 {
		tag = AnyTag
	}
	return ctx, src, tag
}

// FuzzMatchIndex runs random post / match / add / take / probe sequences,
// wildcards included, through recvIndex and unexpIndex and through the
// linear scans they replaced, and requires the same answer at every step.
// Each op is two bytes: the op, then the key or pattern.
func FuzzMatchIndex(f *testing.F) {
	f.Add([]byte{0, 2, 0, 4, 1, 2, 2, 9, 3, 9, 4, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 255, 1, 17, 2, 17, 2, 17, 3, 0, 3, 17, 4, 17})
	churn := make([]byte, 0, 512)
	for i := 0; i < 64; i++ {
		churn = append(churn, 0, byte(i*7), 2, byte(i*7))
	}
	for i := 0; i < 64; i++ {
		churn = append(churn, 1, byte(i*7), 3, byte(i*7))
	}
	f.Add(churn)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var (
			rq  refRecvQ
			ri  recvIndex
			uq  refUnexpQ
			ui  unexpIndex
			ids int
		)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%5, ops[i+1]
			switch op {
			case 0: // post a receive
				ctx, src, tag := fuzzWant(arg, true)
				r := &Request{ctxWant: ctx, srcWant: src, tagWant: tag, count: ids}
				ids++
				rq.post(r)
				ri.post(r)
			case 1: // an arrival meets the posted receives
				ctx, src, tag := fuzzWant(arg, false)
				if want, got := rq.match(ctx, src, tag), ri.match(ctx, src, tag); want != got {
					t.Fatalf("op %d: match(%d,%d,%d) = %v, linear scan %v", i/2, ctx, src, tag, reqID(got), reqID(want))
				}
			case 2: // an arrival queues unexpected
				ctx, src, tag := fuzzWant(arg, false)
				inb := &inbound{inboundMsg: inboundMsg{kind: kindEager, ctx: ctx, src: src, tag: tag, opID: uint32(ids)}}
				ids++
				uq.add(inb)
				ui.add(inb)
			case 3: // a receive claims an unexpected arrival
				ctx, src, tag := fuzzWant(arg, true)
				if want, got := uq.take(ctx, src, tag), ui.take(ctx, src, tag); want != got {
					t.Fatalf("op %d: take(%d,%d,%d) = %v, linear scan %v", i/2, ctx, src, tag, inbID(got), inbID(want))
				}
			case 4: // a probe
				ctx, src, tag := fuzzWant(arg, true)
				want := uq.peek(ctx, src, tag)
				got, ok := ui.peek(ctx, src, tag)
				if ok != (want != nil) || got != want {
					t.Fatalf("op %d: peek(%d,%d,%d) = %v %v, linear scan %v", i/2, ctx, src, tag, inbID(got), ok, inbID(want))
				}
			}
			if ri.len() != len(rq.s) || ui.len() != len(uq.s) {
				t.Fatalf("op %d: %d posted / %d unexpected, linear scans hold %d / %d", i/2, ri.len(), ui.len(), len(rq.s), len(uq.s))
			}
			if ri.exact.n > len(rq.s) || ui.exact.n > len(uq.s) {
				t.Fatalf("op %d: %d / %d buckets for %d / %d entries: an emptied bucket stayed", i/2, ri.exact.n, ui.exact.n, len(rq.s), len(uq.s))
			}
		}
	})
}

// Matching churns its buckets — a random set of keys posted, then emptied in
// another random order, round after round — without allocating once each
// key has been seen: an emptied bucket leaves no tombstone that a later
// insert could rehash over.
func TestMatchIndexChurnAllocatesNothing(t *testing.T) {
	const keys = fuzzCtxs * fuzzSrcs * fuzzTags
	var (
		ri   recvIndex
		ui   unexpIndex
		reqs [keys]Request
		inbs [keys]inbound
		live [keys]int
	)
	key := func(i int) (ctx, src, tag int) {
		return i % fuzzCtxs, i / fuzzCtxs % fuzzSrcs, i / (fuzzCtxs * fuzzSrcs)
	}
	rng := rand.New(rand.NewSource(1))
	// round posts the keys in set, then empties them in another order.
	round := func(set []int) {
		for _, i := range set {
			r, inb := &reqs[i], &inbs[i]
			r.ctxWant, r.srcWant, r.tagWant = key(i)
			inb.ctx, inb.src, inb.tag = key(i)
			ri.post(r)
			ui.add(inb)
		}
		rng.Shuffle(len(set), func(a, b int) { set[a], set[b] = set[b], set[a] })
		for _, i := range set {
			ctx, src, tag := key(i)
			if ri.match(ctx, src, tag) != &reqs[i] || ui.take(ctx, src, tag) != &inbs[i] {
				t.Fatalf("key %d: churn matched the wrong entry", i)
			}
		}
	}
	// churn is a round over a random set of keys in a random order.
	churn := func() {
		rng.Shuffle(keys, func(a, b int) { live[a], live[b] = live[b], live[a] })
		round(live[:1+rng.Intn(keys)])
	}
	// Warm: every key posted and emptied once. A Go map here went on
	// rehashing over its tombstones for a thousand rounds or so (4 objects
	// in the first 2000), so the window opens at once.
	for i := range live {
		live[i] = i
	}
	round(live[:])
	win := allocsite.Open()
	for k := 0; k < 2000; k++ {
		churn()
	}
	if n, sites := win.Close(5); n != 0 {
		t.Errorf("2000 rounds of warm matching churn allocate %d objects, want 0; at\n%s", n, sites)
	}
	if n := testing.AllocsPerRun(20, func() {
		for k := 0; k < 100; k++ {
			churn()
		}
	}); n != 0 {
		t.Errorf("warm matching churn allocates %v objects per 100 rounds, want 0", n)
	}
	if ri.len() != 0 || ui.len() != 0 || ri.exact.n != 0 || ui.exact.n != 0 {
		t.Errorf("churn left %d posted, %d unexpected, %d + %d buckets", ri.len(), ui.len(), ri.exact.n, ui.exact.n)
	}
}
