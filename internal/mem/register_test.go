package mem

import "testing"

func TestRegisterAndCheckAccess(t *testing.T) {
	m := NewMemory("n0", 1<<20)
	a, _ := m.Alloc(10000)
	r, err := m.Reg().Register(a, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Valid() {
		t.Fatal("fresh region invalid")
	}
	if r.Pages != PageSpan(a, 10000) {
		t.Fatalf("Pages = %d, want %d", r.Pages, PageSpan(a, 10000))
	}
	if _, err := m.Reg().CheckAccess(r.RKey, a, 10000); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Reg().CheckAccess(r.RKey, a+100, 500); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Reg().CheckAccess(r.RKey, a, 10001); err == nil {
		t.Fatal("access past region accepted")
	}
	if _, err := m.Reg().CheckAccess(r.RKey+99, a, 8); err == nil {
		t.Fatal("bogus key accepted")
	}
}

func TestDeregister(t *testing.T) {
	m := NewMemory("n0", 1<<20)
	a, _ := m.Alloc(4096)
	r, _ := m.Reg().Register(a, 4096)
	if m.Reg().PinnedBytes != 4096 {
		t.Fatalf("PinnedBytes = %d", m.Reg().PinnedBytes)
	}
	if err := m.Reg().Deregister(r); err != nil {
		t.Fatal(err)
	}
	if m.Reg().PinnedBytes != 0 {
		t.Fatalf("PinnedBytes after dereg = %d", m.Reg().PinnedBytes)
	}
	if _, err := m.Reg().CheckAccess(r.RKey, a, 8); err == nil {
		t.Fatal("access through deregistered key accepted")
	}
	if err := m.Reg().Deregister(r); err == nil {
		t.Fatal("double deregister accepted")
	}
}

func TestRegisterOutOfRange(t *testing.T) {
	m := NewMemory("n0", 1<<20)
	if _, err := m.Reg().Register(Addr(m.Size()-8), 64); err == nil {
		t.Fatal("out-of-range registration accepted")
	}
	if _, err := m.Reg().Register(0, 64); err == nil {
		t.Fatal("nil-address registration accepted")
	}
	a, _ := m.Alloc(64)
	if _, err := m.Reg().Register(a, 0); err == nil {
		t.Fatal("empty registration accepted")
	}
}

func TestCovered(t *testing.T) {
	m := NewMemory("n0", 1<<20)
	a, _ := m.Alloc(8192)
	if m.Reg().Covered(a, 100) {
		t.Fatal("unregistered range reported covered")
	}
	r, _ := m.Reg().Register(a, 8192)
	if !m.Reg().Covered(a+10, 100) {
		t.Fatal("registered range not covered")
	}
	m.Reg().Deregister(r)
	if m.Reg().Covered(a+10, 100) {
		t.Fatal("coverage survived deregistration")
	}
}

// Keys are a slot and a generation: a freed slot is reused by the next
// registration, under a key the old one never equals, so a key kept past its
// deregistration authorizes nothing; reuse allocates only the Region; and a
// slot whose generations are used up is retired rather than wrapped.
func TestKeysAreDenseAndNeverReissued(t *testing.T) {
	m := NewMemory("n0", 1<<20)
	tab := m.Reg()
	a, _ := m.Alloc(4 * 4096)
	var regs [4]*Region
	for i := range regs {
		regs[i], _ = tab.Register(a+Addr(i*4096), 4096)
		if regs[i].LKey != uint32(i+1) || regs[i].RKey != regs[i].LKey {
			t.Fatalf("registration %d got key %d/%d, want the next slot", i, regs[i].LKey, regs[i].RKey)
		}
	}
	stale := regs[1].RKey
	if err := tab.Deregister(regs[1]); err != nil {
		t.Fatal(err)
	}
	again, _ := tab.Register(a+4096, 4096)
	if again.LKey&keySlotMask != stale&keySlotMask || again.LKey == stale {
		t.Fatalf("re-registration got key %#x, want slot %d under a new generation", again.LKey, stale&keySlotMask)
	}
	if _, err := tab.CheckAccess(stale, a+4096, 8); err == nil {
		t.Fatal("a stale key authorizes access to its reused slot")
	}
	if r, err := tab.CheckAccess(again.RKey, a+4096, 8); err != nil || r != again {
		t.Fatalf("CheckAccess under the live key = %v, %v", r, err)
	}
	if _, err := tab.CheckAccess(0, a, 8); err == nil {
		t.Fatal("key 0 accepted")
	}
	var none *Region
	if none.Grants(again.RKey, a+4096, 8) || regs[1].Grants(stale, a+4096, 8) || again.Grants(stale, a+4096, 8) ||
		again.Grants(again.RKey, a, 8) || !again.Grants(again.RKey, a+4096, 8) {
		t.Fatal("Grants disagrees with CheckAccess on a nil, a stale or a live region")
	}
	if err := tab.Deregister(regs[1]); err == nil {
		t.Fatal("deregistering through a stale region accepted")
	}
	if got := tab.Find(a+2*4096+8, 100); got != regs[2] {
		t.Fatalf("Find = %+v, want the third region", got)
	}
	if tab.Find(a+4000, 200) != nil {
		t.Fatal("Find returned a region for a range no single one covers")
	}
	if tab.RegionCount() != 4 {
		t.Fatalf("RegionCount = %d, want 4", tab.RegionCount())
	}

	// Churn through one slot: no table growth, one object (the Region) per
	// registration.
	slots := len(tab.slots)
	churn := func() {
		r, err := tab.Register(a, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Deregister(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Deregister(again); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, churn); avg != 1 {
		t.Fatalf("%.1f allocations per register/deregister cycle, want 1 (the Region)", avg)
	}
	seen := map[uint32]bool{}
	for i := 0; i < 2*(keyLastGen+1); i++ {
		r, err := tab.Register(a, 64)
		if err != nil {
			t.Fatal(err)
		}
		if seen[r.LKey] || r.LKey == 0 {
			t.Fatalf("key %#x issued twice", r.LKey)
		}
		seen[r.LKey] = true
		if err := tab.Deregister(r); err != nil {
			t.Fatal(err)
		}
	}
	if grew := len(tab.slots) - slots; grew < 1 || grew > 3 {
		t.Fatalf("table grew by %d slots over %d cycles, want the retired slots' replacements only", grew, 2*(keyLastGen+1))
	}
}

func TestRegCacheHitAndMiss(t *testing.T) {
	m := NewMemory("n0", 1<<20)
	c := NewRegCache(m.Reg(), 1<<19, true)
	a, _ := m.Alloc(10000)

	r1, ops, err := c.Acquire(a, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if ops.Misses != 1 || ops.Registrations != 1 {
		t.Fatalf("first acquire ops = %+v", ops)
	}
	// Sub-range hit while referenced.
	r2, ops, err := c.Acquire(a+1000, 500)
	if err != nil {
		t.Fatal(err)
	}
	if ops.Hits != 1 || ops.Registrations != 0 {
		t.Fatalf("hit acquire ops = %+v", ops)
	}
	if r2 != r1 {
		t.Fatal("hit returned a different region")
	}
	if ops, err := c.Release(r2); err != nil || ops.Dereg != 0 {
		t.Fatalf("release: %v ops=%+v", err, ops)
	}
	if ops, err := c.Release(r1); err != nil || ops.Dereg != 0 {
		t.Fatalf("release kept entry should not dereg: %v ops=%+v", err, ops)
	}
	// Released entry still usable: hit again.
	_, ops, err = c.Acquire(a, 10000)
	if err != nil || ops.Hits != 1 {
		t.Fatalf("post-release acquire: %v ops=%+v", err, ops)
	}
}

func TestRegCacheDisabled(t *testing.T) {
	m := NewMemory("n0", 1<<20)
	c := NewRegCache(m.Reg(), 1<<19, false)
	a, _ := m.Alloc(10000)
	r, ops, err := c.Acquire(a, 10000)
	if err != nil || ops.Registrations != 1 {
		t.Fatalf("acquire: %v ops=%+v", err, ops)
	}
	ops, err = c.Release(r)
	if err != nil {
		t.Fatal(err)
	}
	if ops.Dereg != 1 {
		t.Fatalf("disabled cache must dereg on release, ops=%+v", ops)
	}
	if m.Reg().RegionCount() != 0 {
		t.Fatal("region leaked")
	}
}

func TestRegCacheEviction(t *testing.T) {
	m := NewMemory("n0", 1<<22)
	c := NewRegCache(m.Reg(), 3*PageSize, true) // tiny capacity
	var regions []*Region
	var addrs []Addr
	for i := 0; i < 4; i++ {
		a, _ := m.AllocPage(2 * PageSize)
		addrs = append(addrs, a)
		r, _, err := c.Acquire(a, 2*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	// While referenced, nothing can be evicted.
	if m.Reg().RegionCount() != 4 {
		t.Fatalf("RegionCount = %d, want 4", m.Reg().RegionCount())
	}
	var totalEvict int64
	for _, r := range regions {
		ops, err := c.Release(r)
		if err != nil {
			t.Fatal(err)
		}
		totalEvict += ops.Evictions
	}
	// Idle pinned bytes must now be within capacity (<= 3 pages => at most
	// one 2-page entry cached).
	if got := c.idle; got > 3*PageSize {
		t.Fatalf("idle pinned bytes %d exceed capacity", got)
	}
	if totalEvict == 0 {
		t.Fatal("expected at least one eviction")
	}
	// The survivor should be the most recently used (the last released).
	_, ops, err := c.Acquire(addrs[3], PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if ops.Hits != 1 {
		t.Fatalf("expected MRU survivor hit, ops = %+v", ops)
	}
}

func TestRegCacheFlush(t *testing.T) {
	m := NewMemory("n0", 1<<20)
	c := NewRegCache(m.Reg(), 1<<19, true)
	a, _ := m.Alloc(4096)
	r, _, _ := c.Acquire(a, 4096)
	c.Release(r)
	ops, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if ops.Dereg != 1 || c.Entries() != 0 || m.Reg().RegionCount() != 0 {
		t.Fatalf("flush incomplete: ops=%+v entries=%d regions=%d",
			ops, c.Entries(), m.Reg().RegionCount())
	}
}

func TestRegCacheOverRelease(t *testing.T) {
	m := NewMemory("n0", 1<<20)
	c := NewRegCache(m.Reg(), 1<<19, true)
	a, _ := m.Alloc(4096)
	r, _, _ := c.Acquire(a, 4096)
	if _, err := c.Release(r); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Release(r); err == nil {
		t.Fatal("over-release accepted")
	}
}
