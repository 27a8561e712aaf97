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

// free releases a type's index for reuse; an uncommitted type is a no-op,
// matching MPI_Type_free's tolerance of any committed handle.
func (tr *typeRegistry) free(t *datatype.Type) {
	idx, ok := tr.idxOf[t]
	if !ok {
		return
	}
	delete(tr.idxOf, t)
	tr.types[idx] = nil
	tr.freeIdx = append(tr.freeIdx, idx)
}

// TypeStats sizes the endpoint's type registry: type indices ever assigned
// and types holding one now. Only this rank's own types enter it (a peer's
// layout lives in the layout cache), so both are bounded by the types
// committed and not freed.
type TypeStats struct{ Slots, Committed int }

// TypeStats returns the current sizes of the type registry.
func (ep *Endpoint) TypeStats() TypeStats {
	return TypeStats{len(ep.types.types), len(ep.types.idxOf)}
}

// layoutKey identifies a peer's datatype in the layout caches.
type layoutKey struct {
	peer int
	idx  int
}

// cachedLayout is a sender-side cache entry: a peer's datatype layout as
// received in a rendezvous reply, decoded into the entry itself. The entry
// owns it — a peer's layout never takes a local type index — and every
// count's program is built from the unit the decoded type holds; an op that
// bound the entry keeps it alive until it is done.
type cachedLayout struct {
	version uint32
	t       datatype.Type
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
