package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// refPinDown is the pin-down cache's twin, said the obvious way: entries in
// registration order with their references and last use, and a full scan
// for every figure the real cache keeps running (idle bytes, the LRU entry).
type refPinDown struct {
	capBytes, clock int64 // a region's id is the clock of its registration
	enabled         bool
	ents            []refEntry
	dead            []int64 // deregistered ids, in order
}

type refEntry struct{ id, refs, use, a, n int64 }

func (m *refPinDown) idle() (t int64) {
	for _, e := range m.ents {
		if e.refs == 0 {
			t += e.n
		}
	}
	return t
}

// acquire returns the id of the region that serves [a, a+n): the first
// entry in registration order that covers it, or a new one.
func (m *refPinDown) acquire(a Addr, n int64) (int64, RegOps) {
	m.clock++
	for i := range m.ents {
		if e := &m.ents[i]; m.enabled && e.a <= int64(a) && int64(a)+n <= e.a+e.n {
			e.refs, e.use = e.refs+1, m.clock
			return e.id, RegOps{Hits: 1}
		}
	}
	m.ents = append(m.ents, refEntry{m.clock, 1, m.clock, int64(a), n})
	ops := RegOps{Registrations: 1, RegisteredPages: PageSpan(a, n), RegisteredBytes: n}
	if m.enabled {
		ops.Misses = 1
	}
	return m.clock, ops
}

// release drops one reference to id; ok is false for a region the cache
// does not hold or holds unreferenced.
func (m *refPinDown) release(id int64) (RegOps, bool) {
	i := slices.IndexFunc(m.ents, func(e refEntry) bool { return e.id == id })
	if i < 0 || m.ents[i].refs == 0 {
		return RegOps{}, false
	}
	if m.ents[i].refs--; m.ents[i].refs > 0 {
		return RegOps{}, true
	} else if !m.enabled {
		return m.drop(i), true
	}
	return m.evict(m.capBytes), true
}

// evict deregisters the least recently used unreferenced entry until the
// idle bytes are within limit.
func (m *refPinDown) evict(limit int64) (ops RegOps) {
	for m.idle() > limit {
		best := -1
		for i, e := range m.ents {
			if e.refs == 0 && (best < 0 || e.use < m.ents[best].use) {
				best = i
			}
		}
		ops.Add(m.drop(best))
		ops.Evictions++
	}
	return ops
}

func (m *refPinDown) drop(i int) RegOps {
	e := m.ents[i]
	m.ents, m.dead = slices.Delete(m.ents, i, i+1), append(m.dead, e.id)
	return RegOps{Dereg: 1, DeregPages: PageSpan(Addr(e.a), e.n)}
}

// pinPhase is one stretch of a differential run: steps operations drawn
// with the given weights.
type pinPhase struct {
	name                                string
	steps                               int
	acquire, release, stale, flush, set int
}

// pinDiff drives a RegCache and its twin through the same operations.
type pinDiff struct {
	t     *testing.T
	rng   *rand.Rand
	tab   *RegTable
	base  Addr // of the 28 pages acquires fall in
	c     *RegCache
	m     *refPinDown
	ids   map[*Region]int64
	byID  map[int64]*Region
	all   []int64 // every region id, in registration order
	held  []int64 // one id per reference the test holds
	dead  int     // deregistrations seen so far
	phase string

	seen    RegOps // summed over the run, so a run that never hits,
	refused int    // evicts or refuses a release fails as vacuous
}

// step draws and runs one operation of ph on both caches, then compares them.
func (d *pinDiff) step(ph pinPhase, i int) {
	what := ""
	var got, want RegOps
	switch r := d.rng.Intn(ph.acquire + ph.release + ph.stale + ph.flush + ph.set); {
	case r < ph.acquire:
		a := d.base + Addr(d.rng.Intn(24)*PageSize+d.rng.Intn(3)*512)
		n := int64(1+d.rng.Intn(3*PageSize/512)) * 512
		reg, ops, err := d.c.Acquire(a, n)
		if err != nil {
			d.t.Fatalf("%s step %d: acquire [%#x,+%d): %v", d.phase, i, a, n, err)
		}
		id, mops := d.m.acquire(a, n)
		if known, ok := d.ids[reg]; ok != (mops.Hits == 1) || ok && known != id {
			d.t.Fatalf("%s step %d: acquire [%#x,+%d) served by region %d (known %v), twin says %d", d.phase, i, a, n, known, ok, id)
		} else if !ok {
			d.all = append(d.all, id)
		}
		d.ids[reg], d.byID[id] = id, reg
		d.held = append(d.held, id)
		what, got, want = "acquire", ops, mops
	case r < ph.acquire+ph.release+ph.stale:
		if len(d.all) == 0 {
			return
		}
		// A release of a held reference, or of any region ever seen:
		// evicted, idle or (then it is one of the held references) held.
		id := d.all[d.rng.Intn(len(d.all))]
		if r < ph.acquire+ph.release && len(d.held) > 0 {
			id = d.held[d.rng.Intn(len(d.held))]
		}
		k := slices.Index(d.held, id)
		if k >= 0 {
			d.held = slices.Delete(d.held, k, k+1)
		}
		ops, err := d.c.Release(d.byID[id])
		mops, ok := d.m.release(id)
		if (err == nil) != ok {
			d.t.Fatalf("%s step %d: release of region %d: error %v, twin accepts it: %v", d.phase, i, id, err, ok)
		}
		if !ok && k >= 0 {
			d.t.Fatalf("%s step %d: a held region %d is gone", d.phase, i, id)
		}
		if !ok {
			d.refused++
		}
		what, got, want = "release", ops, mops
	case r < ph.acquire+ph.release+ph.stale+ph.flush:
		ops, err := d.c.Flush()
		if err != nil {
			d.t.Fatal(err)
		}
		what, got, want = "flush", ops, d.m.evict(0)
	default:
		on := d.rng.Intn(2) == 0
		d.c.SetEnabled(on)
		d.m.enabled = on
		what = "set enabled"
	}
	if got != want {
		d.t.Fatalf("%s step %d: %s ops %+v, twin %+v", d.phase, i, what, got, want)
	}
	d.seen.Add(got)
	d.compare(what, i)
}

// compare checks idle bytes, the entries in order with their references,
// and the regions deregistered since the last step, in order: the table's
// free chain lists the slots freed last first.
func (d *pinDiff) compare(what string, i int) {
	if got, want := d.c.idle, d.m.idle(); got != want {
		d.t.Fatalf("%s step %d (%s): idle bytes %d, twin %d", d.phase, i, what, got, want)
	}
	if len(d.c.entries) != len(d.m.ents) {
		d.t.Fatalf("%s step %d (%s): %d entries, twin %d", d.phase, i, what, len(d.c.entries), len(d.m.ents))
	}
	for k, e := range d.c.entries {
		if me := d.m.ents[k]; d.ids[e.region] != me.id || int64(e.refs) != me.refs || !e.region.Valid() {
			d.t.Fatalf("%s step %d (%s): entry %d is region %d with %d refs, twin region %d with %d",
				d.phase, i, what, k, d.ids[e.region], e.refs, me.id, me.refs)
		}
	}
	fresh := d.m.dead[d.dead:]
	slot := d.tab.free
	for k := len(fresh) - 1; k >= 0; k-- {
		r := d.byID[fresh[k]]
		if r.Valid() || r.LKey&keySlotMask != slot {
			d.t.Fatalf("%s step %d (%s): twin deregistered %v in that order; region %d is valid %v, slot %d, freed slot %d",
				d.phase, i, what, fresh, fresh[k], r.Valid(), r.LKey&keySlotMask, slot)
		}
		slot = d.tab.slots[slot].next
	}
	d.dead = len(d.m.dead)
	if live := d.tab.RegionCount(); live != len(d.m.ents) {
		d.t.Fatalf("%s step %d (%s): %d live registrations, twin holds %d", d.phase, i, what, live, len(d.m.ents))
	}
}

// TestRegCacheMatchesTwin runs random Acquire / Release / Flush / SetEnabled
// sequences through RegCache and refPinDown and requires them to agree after
// every operation: which region serves each acquire, the RegOps of every
// call, the idle bytes, the entries and their references, and which regions
// are deregistered, in what order. A pinned region is never evicted (the
// test's held references must all stay valid), and Flush leaves only held
// entries.
func TestRegCacheMatchesTwin(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capBytes int64
		phases   []pinPhase
	}{
		{"lru", 8 * PageSize, []pinPhase{
			{"fill", 60, 6, 1, 0, 0, 0},
			{"churn", 400, 4, 4, 1, 0, 0},
			{"drain", 80, 0, 6, 1, 0, 0},
			{"flush", 1, 0, 0, 0, 1, 0},
		}},
		{"every release evicts", 0, []pinPhase{
			{"fill", 40, 5, 1, 0, 0, 0},
			{"churn", 300, 4, 4, 1, 1, 0},
		}},
		{"toggled", 12 * PageSize, []pinPhase{
			{"warm", 60, 5, 2, 0, 0, 0},
			{"on and off", 500, 4, 4, 1, 1, 1},
			{"drain", 100, 0, 6, 1, 0, 0},
			{"flush", 1, 0, 0, 0, 1, 0},
		}},
		{"large", 1 << 20, []pinPhase{
			{"fill", 200, 8, 1, 0, 0, 0},
			{"churn", 600, 3, 3, 1, 1, 0},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				mem := NewMemory("n0", 1<<20)
				base, err := mem.AllocPage(28 * PageSize)
				if err != nil {
					t.Fatal(err)
				}
				d := &pinDiff{
					t:    t,
					rng:  rand.New(rand.NewSource(seed)),
					tab:  mem.Reg(),
					base: base,
					c:    NewRegCache(mem.Reg(), tc.capBytes, true),
					m:    &refPinDown{capBytes: tc.capBytes, enabled: true},
					ids:  make(map[*Region]int64),
					byID: make(map[int64]*Region),
				}
				for _, ph := range tc.phases {
					d.phase = ph.name
					for i := 0; i < ph.steps; i++ {
						d.step(ph, i)
					}
				}
				for _, id := range d.held {
					if !d.byID[id].Valid() {
						t.Fatalf("seed %d: held region %d was deregistered", seed, id)
					}
				}
				if d.seen.Hits == 0 || d.seen.Evictions == 0 || d.refused == 0 {
					t.Fatalf("seed %d: a vacuous run: %d hits, %d evictions, %d refused releases",
						seed, d.seen.Hits, d.seen.Evictions, d.refused)
				}
			}
		})
	}
}
