package core

import "math/bits"

// Indexed message matching.
//
// The original engine kept posted receives and unexpected arrivals in flat
// slices and matched them with linear scans. That is O(messages × peers)
// during an Alltoall: every arrival walks past every other peer's posted
// receive before finding its own. The structures here index both sides per
// (ctx, src, tag) so the common exact-match path is O(1), while wildcard
// receives (AnySource / AnyTag) keep their original first-posted /
// first-arrived semantics through an ordered side list.
//
// Ordering invariant exploited throughout: every entry sharing one exact
// (ctx, src, tag) key also matches exactly the same set of wildcard
// patterns. So the globally earliest entry that matches any pattern is
// always the HEAD of its exact FIFO queue — removal is pop-front only,
// never mid-queue surgery. Code below panics if that invariant is ever
// violated rather than silently reordering.

// matchKey identifies one exact matching bucket.
type matchKey struct {
	ctx, src, tag int
}

// --- Bucket table ------------------------------------------------------------

// bucketTable maps exact keys to their FIFOs by open addressing: linear
// probing, and backward-shift deletion, so an emptied bucket leaves no
// tombstone and a table whose live keys churn at a steady count never
// rehashes (a Go map's deletes leave tombstones, and churn over them
// rebuilds its table: warm-path allocations that the hash seed counted). At
// most half full, its size follows the peak of live keys, not the number of
// distinct keys ever seen. The zero value is empty.
type bucketTable[L any] struct {
	slots []bucket[L] // a power of two of them
	shift uint        // 64 − log₂(len(slots)): a hash's top bits pick the home slot
	n     int
}

type bucket[L any] struct {
	key  matchKey
	used bool
	list L
}

func (t *bucketTable[L]) home(k matchKey) int {
	h := (uint64(k.ctx)*0x9E3779B97F4A7C15 + uint64(k.src)*0xC2B2AE3D27D4EB4F + uint64(k.tag)) * 0x165667B19E3779F9
	return int(h >> t.shift)
}

// slot returns where k's bucket is, or would go.
func (t *bucketTable[L]) slot(k matchKey) int {
	i := t.home(k)
	for t.slots[i].used && t.slots[i].key != k {
		i = (i + 1) & (len(t.slots) - 1)
	}
	return i
}

// find returns k's list, or nil when k has no bucket.
func (t *bucketTable[L]) find(k matchKey) *L {
	if t.n > 0 {
		if b := &t.slots[t.slot(k)]; b.used {
			return &b.list
		}
	}
	return nil
}

// insert returns k's list, making an empty bucket for it when it has none.
// The pointer is good until the table's next insert or remove.
func (t *bucketTable[L]) insert(k matchKey) *L {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		size := max(16, 2*len(old))
		t.slots, t.shift = make([]bucket[L], size), uint(64-bits.TrailingZeros(uint(size)))
		for _, b := range old {
			if b.used {
				t.slots[t.slot(b.key)] = b
			}
		}
	}
	b := &t.slots[t.slot(k)]
	if !b.used {
		*b = bucket[L]{key: k, used: true}
		t.n++
	}
	return &b.list
}

// remove deletes k's bucket, which must exist, moving back into the hole
// each later entry of its probe run whose path passes it.
func (t *bucketTable[L]) remove(k matchKey) {
	mask := len(t.slots) - 1
	i := t.slot(k)
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i], i = t.slots[j], j
		}
	}
	t.slots[i] = bucket[L]{}
	t.n--
}

// --- Posted-receive index ---------------------------------------------------

// reqList is the FIFO of posted receives sharing one exact key: an intrusive
// list through Request.next, held by value in the index's table, so posting
// a receive links one pointer and builds no queue object.
type reqList struct{ head, tail *Request }

// recvIndex holds posted receives: exact receives bucketed per
// (ctx, src, tag), wildcard receives (AnySource and/or AnyTag) in a small
// ordered side list. seq stamps give a total post order across both.
type recvIndex struct {
	exact bucketTable[reqList]
	wild  []*Request
	seq   uint64
	n     int
}

func (ri *recvIndex) len() int { return ri.n }

// post adds a receive in posting order.
func (ri *recvIndex) post(r *Request) {
	ri.seq++
	r.seq = ri.seq
	ri.n++
	if r.srcWant == AnySource || r.tagWant == AnyTag {
		ri.wild = append(ri.wild, r)
		return
	}
	l := ri.exact.insert(matchKey{ctx: r.ctxWant, src: r.srcWant, tag: r.tagWant})
	if l.tail == nil {
		l.head = r
	} else {
		l.tail.next = r
	}
	l.tail = r
}

// match finds and removes the earliest-posted receive matching the arrival
// (ctx, src, tag). The exact bucket gives its candidate in O(1); the
// wildcard list is scanned in post order (wildcard receives are rare on the
// collective hot path, and a flat scan there preserves exact MPI
// first-posted semantics).
func (ri *recvIndex) match(ctx, src, tag int) *Request {
	k := matchKey{ctx: ctx, src: src, tag: tag}
	l := ri.exact.find(k)
	var exact *Request
	if l != nil {
		exact = l.head
	}
	wildIdx := -1
	for i, r := range ri.wild {
		if matchWanted(r.ctxWant, r.srcWant, r.tagWant, ctx, src, tag) {
			wildIdx = i
			break
		}
	}
	switch {
	case exact == nil && wildIdx < 0:
		return nil
	case exact != nil && (wildIdx < 0 || exact.seq < ri.wild[wildIdx].seq):
		if l.head = exact.next; l.head == nil {
			ri.exact.remove(k) // an emptied bucket leaves the table, so it tracks live keys only
		}
		exact.next = nil
		ri.n--
		return exact
	default:
		r := ri.wild[wildIdx]
		copy(ri.wild[wildIdx:], ri.wild[wildIdx+1:])
		ri.wild[len(ri.wild)-1] = nil
		ri.wild = ri.wild[:len(ri.wild)-1]
		ri.n--
		return r
	}
}

// --- Unexpected-arrival index -----------------------------------------------

// inbList is the FIFO of unexpected arrivals sharing one exact key, an
// intrusive list through inbound.next.
type inbList struct{ head, tail *inbound }

// unexpIndex holds unexpected arrivals: exact buckets per (ctx, src, tag)
// for O(1) claiming by exact receives, plus the global arrival order — a
// doubly linked intrusive list, so a claimed arrival unlinks in O(1) — for
// wildcard receives and probes.
type unexpIndex struct {
	exact       bucketTable[inbList]
	first, last *inbound // arrival order
	n           int
}

func (ui *unexpIndex) len() int { return ui.n }

// add records a new arrival in arrival order.
func (ui *unexpIndex) add(inb *inbound) {
	ui.n++
	if inb.prevArr = ui.last; ui.last == nil {
		ui.first = inb
	} else {
		ui.last.nextArr = inb
	}
	ui.last = inb
	l := ui.exact.insert(matchKey{ctx: inb.ctx, src: inb.src, tag: inb.tag})
	if l.tail == nil {
		l.head = inb
	} else {
		l.tail.next = inb
	}
	l.tail = inb
}

// take finds and removes the earliest arrival matching a receive's wants
// (wildcards allowed).
func (ui *unexpIndex) take(ctx, src, tag int) *inbound {
	inb, ok := ui.peek(ctx, src, tag)
	if !ok {
		return nil
	}
	// Whichever way it was found, the arrival heads its exact bucket: every
	// entry sharing one exact key matches the same patterns, so an earlier
	// same-key arrival would have been found first.
	k := matchKey{ctx: inb.ctx, src: inb.src, tag: inb.tag}
	l := ui.exact.find(k)
	if l == nil || l.head != inb {
		panic("core: matching invariant violated: claimed arrival is not its bucket head")
	}
	if l.head = inb.next; l.head == nil {
		ui.exact.remove(k)
	}
	if inb.prevArr == nil {
		ui.first = inb.nextArr
	} else {
		inb.prevArr.nextArr = inb.nextArr
	}
	if inb.nextArr == nil {
		ui.last = inb.prevArr
	} else {
		inb.nextArr.prevArr = inb.prevArr
	}
	inb.next, inb.prevArr, inb.nextArr = nil, nil, nil
	ui.n--
	return inb
}

// peek reports the earliest matching arrival without removing it (probe).
// Exact wants read the bucket head in O(1); wildcard wants scan arrival
// order.
func (ui *unexpIndex) peek(ctx, src, tag int) (*inbound, bool) {
	if src != AnySource && tag != AnyTag {
		if l := ui.exact.find(matchKey{ctx: ctx, src: src, tag: tag}); l != nil {
			return l.head, true
		}
		return nil, false
	}
	for inb := ui.first; inb != nil; inb = inb.nextArr {
		if matchWanted(ctx, src, tag, inb.ctx, inb.src, inb.tag) {
			return inb, true
		}
	}
	return nil, false
}

// findRTS returns the queued rendezvous start of (src, opID), or nil
// (failure-notice path; not performance sensitive).
func (ui *unexpIndex) findRTS(src int, opID uint32) *inbound {
	for inb := ui.first; inb != nil; inb = inb.nextArr {
		if inb.kind == kindRTS && inb.src == src && inb.opID == opID {
			return inb
		}
	}
	return nil
}

// --- Announce queue ----------------------------------------------------------

// annQueue is the per-destination announce order: an intrusive FIFO of the
// send ops themselves. A position is reserved at Isend time and the queue
// drains strictly from the head, so it retains nothing for announces that
// have gone out.
type annQueue struct{ head, tail *sendOp }

// creditsFor returns the receive credits pre-posted per QP for an n-rank
// world. Small worlds keep the historical deep credit pool (preserving
// sim-time goldens); large worlds get a per-peer budget so an endpoint's
// total posted receive WRs stay O(n), not O(n · 1024). Exhausted credits
// are safe: arrivals stall in the QP and drain as credits replenish.
func creditsFor(n int) int {
	if n <= 32 {
		return initialCredits
	}
	c := 8192 / n
	if c < 8 {
		c = 8
	}
	return c
}
