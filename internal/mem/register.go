package mem

import (
	"fmt"
)

// Region is a registered memory region, the simulation's equivalent of an
// InfiniBand memory region (MR). RDMA operations must name a region key whose
// range covers the accessed bytes.
type Region struct {
	Addr  Addr
	Len   int64
	LKey  uint32
	RKey  uint32
	Pages int64

	valid bool
}

// Valid reports whether the region is still registered.
func (r *Region) Valid() bool { return r.valid }

// Covers reports whether the region covers the byte range [a, a+n).
func (r *Region) Covers(a Addr, n int64) bool {
	return r.valid && a >= r.Addr && int64(a)+n <= int64(r.Addr)+r.Len
}

// A key is a slot of the table's array in its low keySlotBits and the slot's
// generation above them, as an adapter's MR keys are an index and a tag: a
// lookup is an index and a compare, and a key kept past its deregistration
// names nothing even after the slot is registered again. A slot whose
// generations are used up is retired, so no key is ever issued twice.
const (
	keySlotBits = 20
	keySlotMask = 1<<keySlotBits - 1
	keyLastGen  = 1<<(32-keySlotBits) - 1
)

// regSlot is one entry of the key-indexed table. The free slots are chained
// through the array itself, so reusing one allocates nothing.
type regSlot struct {
	r    *Region // the live registration; nil while the slot is free
	gen  uint32  // generation of the last key the slot issued
	next uint32  // free chain: the next free slot, 0 at its end
}

// Grants reports whether the region, which may be nil, is the live one key
// names and covers [a, a+n): what CheckAccess would find, without the table.
// A caller checking a run of accesses asks the region its last check
// returned first, and the table only when that one does not grant.
func (r *Region) Grants(key uint32, a Addr, n int64) bool {
	return r != nil && r.LKey == key && r.Covers(a, n)
}

// RegTable tracks the registered regions of one node's memory.
type RegTable struct {
	mem   *Memory
	slots []regSlot // by key index; slot 0 is never issued, so key 0 is no key
	free  uint32    // head of the free chain
	live  int

	// Totals for accounting and tests.
	TotalRegistrations   int64
	TotalDeregistrations int64
	PinnedBytes          int64
	PinnedPages          int64
}

func newRegTable(m *Memory) *RegTable {
	return &RegTable{mem: m, slots: make([]regSlot, 1)}
}

// Register pins the byte range [a, a+n) and returns the new region.
// Overlapping registrations are permitted, as on hardware.
func (t *RegTable) Register(a Addr, n int64) (*Region, error) {
	if err := t.mem.CheckRange(a, n); err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	if n <= 0 {
		return nil, fmt.Errorf("register: empty range at %#x", a)
	}
	i := t.free
	if i != 0 {
		t.free = t.slots[i].next
		t.slots[i].gen++
	} else {
		if len(t.slots) > keySlotMask {
			return nil, fmt.Errorf("register: mem %s: all %d keys in use", t.mem.Name(), keySlotMask)
		}
		i = uint32(len(t.slots))
		t.slots = append(t.slots, regSlot{})
	}
	key := t.slots[i].gen<<keySlotBits | i
	r := &Region{
		Addr:  a,
		Len:   n,
		LKey:  key,
		RKey:  key,
		Pages: PageSpan(a, n),
		valid: true,
	}
	t.slots[i].r = r
	t.live++
	t.TotalRegistrations++
	t.PinnedBytes += n
	t.PinnedPages += r.Pages
	return r, nil
}

// Deregister unpins a region. Deregistering twice is an error.
func (t *RegTable) Deregister(r *Region) error {
	if r == nil || !r.valid {
		return fmt.Errorf("deregister: region not registered")
	}
	if t.lookup(r.LKey) != r {
		return fmt.Errorf("deregister: unknown key %d", r.LKey)
	}
	i := r.LKey & keySlotMask
	s := &t.slots[i]
	s.r = nil
	if s.gen < keyLastGen {
		s.next, t.free = t.free, i
	}
	r.valid = false
	t.live--
	t.TotalDeregistrations++
	t.PinnedBytes -= r.Len
	t.PinnedPages -= r.Pages
	return nil
}

// lookup returns the live region key names, or nil.
func (t *RegTable) lookup(key uint32) *Region {
	if i := key & keySlotMask; int(i) < len(t.slots) {
		if r := t.slots[i].r; r != nil && r.LKey == key {
			return r
		}
	}
	return nil
}

// CheckAccess validates that key authorizes access to [a, a+n), returning
// the region it names, or a descriptive error: an index and a compare. The
// fabric kernel validates both local (lkey) and remote (rkey) accesses with
// it (a region's two keys are one value), after Region.Grants.
func (t *RegTable) CheckAccess(key uint32, a Addr, n int64) (*Region, error) {
	r := t.lookup(key)
	if r == nil {
		return nil, fmt.Errorf("mem %s: access with invalid key %d", t.mem.Name(), key)
	}
	if !r.Covers(a, n) {
		return nil, fmt.Errorf("mem %s: key %d region [%#x,+%d) does not cover access [%#x,+%d)",
			t.mem.Name(), key, r.Addr, r.Len, a, n)
	}
	return r, nil
}

// Find returns a registered region that covers [a, a+n) — the oldest slot's,
// when several do — or nil.
func (t *RegTable) Find(a Addr, n int64) *Region {
	for i := range t.slots {
		if r := t.slots[i].r; r != nil && r.Covers(a, n) {
			return r
		}
	}
	return nil
}

// Covered reports whether some registered region covers [a, a+n).
func (t *RegTable) Covered(a Addr, n int64) bool { return t.Find(a, n) != nil }

// RegionCount reports the number of live regions.
func (t *RegTable) RegionCount() int { return t.live }
