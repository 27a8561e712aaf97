package core

import (
	"repro/internal/datatype"
)

// typeRegistry assigns rank-local indices to committed datatypes. Indices
// are reused after FreeType, with a version bump so remote layout caches can
// detect staleness (Section 5.4.2).
type typeRegistry struct {
	idxOf   map[*datatype.Type]int
	types   []*datatype.Type // by index; nil when freed
	vers    []uint32         // by index
	freeIdx []int
}

func newTypeRegistry() *typeRegistry {
	return &typeRegistry{idxOf: make(map[*datatype.Type]int)}
}

// commit returns the type's index, assigning one on first use.
func (tr *typeRegistry) commit(t *datatype.Type) int {
	if idx, ok := tr.idxOf[t]; ok {
		return idx
	}
	var idx int
	if n := len(tr.freeIdx); n > 0 {
		idx = tr.freeIdx[n-1]
		tr.freeIdx = tr.freeIdx[:n-1]
		tr.vers[idx]++ // index reuse: bump version
		tr.types[idx] = t
	} else {
		idx = len(tr.types)
		tr.types = append(tr.types, t)
		tr.vers = append(tr.vers, 0)
	}
	tr.idxOf[t] = idx
	return idx
}

// version returns the current version of an index.
func (tr *typeRegistry) version(idx int) uint32 { return tr.vers[idx] }

// free releases a type's index for reuse and returns it; ok is false for an
// uncommitted type, which is a no-op, matching MPI_Type_free's tolerance of
// any committed handle.
func (tr *typeRegistry) free(t *datatype.Type) (idx int, ok bool) {
	idx, ok = tr.idxOf[t]
	if !ok {
		return 0, false
	}
	delete(tr.idxOf, t)
	tr.types[idx] = nil
	tr.freeIdx = append(tr.freeIdx, idx)
	return idx, true
}

// TypeStats sizes the endpoint's datatype tables: type indices ever assigned,
// types holding one now, and programs cached for them at counts above 1 (a
// type holds its count-1 program). Only this rank's own types enter them (a
// peer's layout and its programs live in the layout cache), so all three are
// bounded by the types committed and not freed.
type TypeStats struct{ Slots, Committed, Programs int }

// TypeStats returns the current sizes of the type registry and program cache.
func (ep *Endpoint) TypeStats() TypeStats {
	return TypeStats{len(ep.types.types), len(ep.types.idxOf), ep.progs.n}
}

// progCacheCap bounds the per-endpoint program cache; on overflow the whole
// epoch is dropped (programs recompile on demand, off the per-pack hot
// path).
const progCacheCap = 1024

// cachedProg is one compiled layout program of a type at a count above 1.
// Counts are cached exactly — an application's steady-state counts are few,
// and an exact key keeps programs byte-exact replays.
type cachedProg struct {
	count int
	p     *datatype.Program
}

// progSlot holds the compiled programs of one layout above count 1: a local
// type index's, or a peer layout's in its cache entry. The first sits inline
// and costs the slot no allocation; further counts go to the list.
type progSlot struct {
	one  cachedProg
	more []cachedProg
}

// get returns the slot's program for count, or nil.
func (sl *progSlot) get(count int) *datatype.Program {
	if sl.one.count == count {
		return sl.one.p // nil when the slot is empty
	}
	for _, e := range sl.more {
		if e.count == count {
			return e.p
		}
	}
	return nil
}

// put adds a program the slot does not hold yet.
func (sl *progSlot) put(count int, p *datatype.Program) {
	if sl.one.p == nil {
		sl.one = cachedProg{count, p}
	} else {
		sl.more = append(sl.more, cachedProg{count, p})
	}
}

// programCache memoizes datatype.Compile per endpoint so recompilation
// never sits on the pack hot path. Programs are held by type index and
// dropped when FreeType releases the index, so index reuse can never
// resurrect a stale program and a stream of short-lived types holds no
// dead programs.
type programCache struct {
	byIdx []progSlot
	n     int // programs held across all indices
}

// get returns the cached program for (idx, count), or nil.
func (pc *programCache) get(idx, count int) *datatype.Program {
	if idx >= len(pc.byIdx) {
		return nil
	}
	return pc.byIdx[idx].get(count)
}

// put caches a program, clearing the epoch first when at capacity.
func (pc *programCache) put(idx, count int, p *datatype.Program) {
	if pc.n >= progCacheCap {
		for i := range pc.byIdx {
			pc.free(i)
		}
	}
	for len(pc.byIdx) <= idx {
		pc.byIdx = append(pc.byIdx, progSlot{})
	}
	pc.byIdx[idx].put(count, p)
	pc.n++
}

// free drops every program of idx, keeping the slot's storage for the next
// type committed to the index.
func (pc *programCache) free(idx int) {
	if idx >= len(pc.byIdx) {
		return
	}
	sl := &pc.byIdx[idx]
	if sl.one.p != nil {
		pc.n -= 1 + len(sl.more)
	}
	clear(sl.more)
	*sl = progSlot{more: sl.more[:0]}
}

// layoutKey identifies a peer's datatype in the layout caches.
type layoutKey struct {
	peer int
	idx  int
}

// peerProgCap bounds the programs one peer-layout entry holds beyond its
// first: a peer that sends one type at ever-new counts restarts the entry's
// epoch instead of growing it.
const peerProgCap = 16

// cachedLayout is a sender-side cache entry: a peer's datatype layout as
// received in a rendezvous reply, decoded into the entry itself, and the
// programs compiled from it. The entry owns both — a peer's layout never
// takes a local type index — so replacing a stale entry drops its programs
// with it; an op that bound the old entry keeps it alive until it is done.
type cachedLayout struct {
	version uint32
	t       datatype.Type
	progs   progSlot // counts above 1; count 1 is t.Unit()
}

// program returns the entry's compiled program for count instances.
func (l *cachedLayout) program(count int) *datatype.Program {
	if count == 1 {
		return l.t.Unit()
	}
	p := l.progs.get(count)
	if p == nil {
		if len(l.progs.more) >= peerProgCap {
			l.progs = progSlot{}
		}
		p = datatype.Compile(&l.t, count)
		l.progs.put(count, p)
	}
	return p
}

// layoutCache holds both directions of the Multi-W datatype exchange:
//
//   - sent: receiver side — the version of each (peer, index) layout this
//     rank has already shipped, so each layout travels once (Träff's cache),
//   - got: sender side — decoded layouts received from peers, replaced when
//     a version bump reveals index reuse.
type layoutCache struct {
	sent map[layoutKey]uint32
	got  map[layoutKey]*cachedLayout
}

func newLayoutCache() *layoutCache {
	return &layoutCache{
		sent: make(map[layoutKey]uint32),
		got:  make(map[layoutKey]*cachedLayout),
	}
}

// needSend reports whether this rank must include the full layout when
// replying to peer with (idx, version), and records it as sent.
func (lc *layoutCache) needSend(peer, idx int, version uint32) bool {
	k := layoutKey{peer, idx}
	v, ok := lc.sent[k]
	if ok && v == version {
		return false
	}
	lc.sent[k] = version
	return true
}

// lookup returns the cached layout for (peer, idx) if its version matches.
func (lc *layoutCache) lookup(peer, idx int, version uint32) *cachedLayout {
	if e := lc.got[layoutKey{peer, idx}]; e != nil && e.version == version {
		return e
	}
	return nil
}

// store records (replacing any stale version) the entry of a layout received
// from peer, for the caller to decode into.
func (lc *layoutCache) store(peer, idx int, version uint32) *cachedLayout {
	l := &cachedLayout{version: version}
	lc.got[layoutKey{peer, idx}] = l
	return l
}
