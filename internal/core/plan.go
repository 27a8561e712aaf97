package core

import (
	"slices"

	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/verbs"
)

// Transfer plans (DESIGN.md §16): a message's OGR groups and Multi-W window,
// kept in fixed-size stores for the next message with the same key. A hit
// skips host work; its charges stay.
const planSlots = 8

// groupEntry is a message's OGR grouping: a pure function of its type and
// count (the type held, so FreeType and index reuse cannot resurrect it),
// buffer base and RegCost.
type groupEntry struct {
	t      *datatype.Type
	count  int
	buf    mem.Addr
	blocks int
	groups []mem.Block
}

// planKey is what a Multi-W window is built from, beside the registrations:
// the local layout, the receiver's (its cache entry's type, so a replaced
// entry cannot match), the buffers and the bytes.
type planKey struct {
	peer           int
	lt, rt         *datatype.Type
	lcount, rcount int
	buf, rBase     mem.Addr
	eff            int64
}

// wrPlan is a Multi-W window (all of set) kept with its key and the
// registrations it was built against (slot + generation: a re-registration or
// eviction changes them). Posted, it is busy until its op recycles (bumps gen).
type wrPlan struct {
	key          planKey
	sRefs, rRefs []regRef
	set          wrSet
	op           *sendOp
	gen          uint32
	used         uint64
}

// planStore is an endpoint's two stores, and the walks their misses cost.
type planStore struct {
	groups          [planSlots]groupEntry
	plans           [planSlots]wrPlan
	next, clock     uint64
	ogrWalks, duals int
}

// group returns the entry holding (t, count, buf)'s grouping, or else the
// next one round the store to walk it into (hit false).
func (s *planStore) group(t *datatype.Type, count int, buf mem.Addr) (e *groupEntry, hit bool) {
	for i := range s.groups {
		if e = &s.groups[i]; e.t == t && e.count == count && e.buf == buf {
			return e, true
		}
	}
	s.next++
	return &s.groups[s.next%planSlots], false
}

// plan returns the plan op posts from: k's, with its window if that was built
// against op's registrations, or else the idle one used least lately. It is
// nil when k's window is in flight or every plan is.
func (s *planStore) plan(k planKey, op *sendOp) (pl *wrPlan, win []verbs.SendWR) {
	s.clock++
	for i := range s.plans {
		e := &s.plans[i]
		busy := e.op != nil && e.op.gen == e.gen
		if e.key == k {
			if busy {
				return nil, nil
			}
			if pl = e; slices.Equal(e.sRefs, op.reg.refs) && slices.Equal(e.rRefs, op.ctsRegs) {
				win = e.set.wrs
			}
			break
		}
		if !busy && (pl == nil || e.used < pl.used) {
			pl = e
		}
	}
	if pl != nil {
		pl.used, pl.op, pl.gen = s.clock, op, op.gen
	}
	return pl, win
}
