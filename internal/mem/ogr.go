package mem

import (
	"cmp"
	"slices"
)

// Block is one contiguous piece of a datatype message buffer.
type Block struct {
	Addr Addr
	Len  int64
}

// End returns the first address past the block.
func (b Block) End() Addr { return b.Addr + Addr(b.Len) }

// RegCost parameterizes the cost model for Optimistic Group Registration:
// registering a region costs Base + Pages*PerPage (in virtual nanoseconds).
// The absolute unit does not matter to the grouping decision, only the
// Base/PerPage ratio.
type RegCost struct {
	Base    int64
	PerPage int64
}

// RegionCost returns the modeled cost of registering [a, a+n).
func (c RegCost) RegionCost(a Addr, n int64) int64 {
	return c.Base + PageSpan(a, n)*c.PerPage
}

// Grouper is Optimistic Group Registration (Wu, Wyckoff, Panda) as a stream:
// fed the contiguous blocks of a datatype message buffer in non-decreasing
// address order, it emits a set of covering regions to register, merging
// neighbouring blocks across their gaps whenever pinning the gap pages is
// cheaper than paying another registration operation. Large gaps that would
// null the benefit are left as region boundaries.
//
// It holds one open region and appends closed ones to a caller-supplied
// slice, so a layout walk feeds it run by run and no block list is ever
// built. The zero value is not ready; call Reset.
type Grouper struct {
	cost RegCost
	cur  Block // the open region; Len 0 while nothing has been added
	out  []Block
}

// Reset starts a new grouping under cost, appending regions to out.
func (g *Grouper) Reset(cost RegCost, out []Block) {
	*g = Grouper{cost: cost, out: out}
}

// Add feeds the next block. Blocks must arrive in non-decreasing address
// order (the result would under-merge otherwise); zero-length blocks are
// dropped, overlapping or adjacent ones coalesced.
func (g *Grouper) Add(addr Addr, n int64) {
	if n <= 0 {
		return
	}
	cur := &g.cur
	end := addr + Addr(n)
	switch {
	case cur.Len == 0:
		*cur = Block{Addr: addr, Len: n}
	case addr <= cur.End():
		// Overlapping or adjacent: coalesce unconditionally.
		if end > cur.End() {
			cur.Len = int64(end - cur.Addr)
		}
	default:
		// Candidate merge across the gap. Compare the extra pages the
		// merged region pins against the cost of a separate region.
		mergedLen := int64(end - cur.Addr)
		extraPages := PageSpan(cur.Addr, mergedLen) - PageSpan(cur.Addr, cur.Len)
		if extraPages*g.cost.PerPage < g.cost.RegionCost(addr, n) {
			cur.Len = mergedLen
			return
		}
		g.out = append(g.out, *cur)
		*cur = Block{Addr: addr, Len: n}
	}
}

// Finish closes the open region and returns every region of the grouping:
// sorted by address, non-overlapping, covering every block added.
func (g *Grouper) Finish() []Block {
	if g.cur.Len > 0 {
		g.out = append(g.out, g.cur)
		g.cur = Block{}
	}
	return g.out
}

// SortBlocks orders blocks by address, the order Grouper.Add wants, without
// allocating.
func SortBlocks(blocks []Block) {
	slices.SortFunc(blocks, func(a, b Block) int { return cmp.Compare(a.Addr, b.Addr) })
}

// GroupRegions runs a Grouper over a block list: the regions to register for
// the contiguous blocks of a message buffer. Input blocks may be unsorted
// (they are sorted in a copy); the returned regions are sorted by address,
// non-overlapping, and cover every input block.
func GroupRegions(blocks []Block, cost RegCost) []Block {
	sorted := make([]Block, 0, len(blocks))
	for _, b := range blocks {
		if b.Len > 0 {
			sorted = append(sorted, b)
		}
	}
	SortBlocks(sorted)
	return GroupRegionsSorted(sorted, cost)
}

// GroupRegionsSorted is GroupRegions for blocks already in non-decreasing
// address order, skipping the sort. Compiled layout programs know their
// emission order (Program.Ascending), which makes this the grouping entry
// for program-fed block lists.
func GroupRegionsSorted(blocks []Block, cost RegCost) []Block {
	var g Grouper
	g.Reset(cost, nil)
	for _, b := range blocks {
		g.Add(b.Addr, b.Len)
	}
	return g.Finish()
}

// TotalCost returns the modeled registration cost of a region set.
func TotalCost(regions []Block, cost RegCost) int64 {
	var t int64
	for _, r := range regions {
		t += cost.RegionCost(r.Addr, r.Len)
	}
	return t
}

// CoverAll returns the single region spanning from the first block to the
// last — the paper's "register the whole buffer including gaps" strategy,
// used as a comparison point in ablation benchmarks.
func CoverAll(blocks []Block) []Block {
	if len(blocks) == 0 {
		return nil
	}
	lo, hi := blocks[0].Addr, blocks[0].End()
	for _, b := range blocks[1:] {
		if b.Addr < lo {
			lo = b.Addr
		}
		if b.End() > hi {
			hi = b.End()
		}
	}
	return []Block{{Addr: lo, Len: int64(hi - lo)}}
}
