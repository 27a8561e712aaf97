package core

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

// --- Posted-receive index ---------------------------------------------------

// reqList is the FIFO of posted receives sharing one exact key: an intrusive
// list through Request.next, held by value in the index's map, so posting a
// receive links one pointer and builds no queue object.
type reqList struct{ head, tail *Request }

// recvIndex holds posted receives: exact receives bucketed per
// (ctx, src, tag), wildcard receives (AnySource and/or AnyTag) in a small
// ordered side list. seq stamps give a total post order across both.
type recvIndex struct {
	exact map[matchKey]reqList
	wild  []*Request
	seq   uint64
	n     int
}

func (ri *recvIndex) init() { ri.exact = make(map[matchKey]reqList) }

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
	k := matchKey{ctx: r.ctxWant, src: r.srcWant, tag: r.tagWant}
	l := ri.exact[k]
	if l.tail == nil {
		l.head = r
	} else {
		l.tail.next = r
	}
	l.tail = r
	ri.exact[k] = l
}

// match finds and removes the earliest-posted receive matching the arrival
// (ctx, src, tag). The exact bucket gives its candidate in O(1); the
// wildcard list is scanned in post order (wildcard receives are rare on the
// collective hot path, and a flat scan there preserves exact MPI
// first-posted semantics).
func (ri *recvIndex) match(ctx, src, tag int) *Request {
	k := matchKey{ctx: ctx, src: src, tag: tag}
	l := ri.exact[k]
	exact := l.head
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
			delete(ri.exact, k) // an emptied bucket leaves the map, so it tracks live keys only
		} else {
			ri.exact[k] = l
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
	exact       map[matchKey]inbList
	first, last *inbound // arrival order
	n           int
}

func (ui *unexpIndex) init() { ui.exact = make(map[matchKey]inbList) }

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
	k := matchKey{ctx: inb.ctx, src: inb.src, tag: inb.tag}
	l := ui.exact[k]
	if l.tail == nil {
		l.head = inb
	} else {
		l.tail.next = inb
	}
	l.tail = inb
	ui.exact[k] = l
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
	l := ui.exact[k]
	if l.head != inb {
		panic("core: matching invariant violated: claimed arrival is not its bucket head")
	}
	if l.head = inb.next; l.head == nil {
		delete(ui.exact, k)
	} else {
		ui.exact[k] = l
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
		inb := ui.exact[matchKey{ctx: ctx, src: src, tag: tag}].head
		return inb, inb != nil
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
