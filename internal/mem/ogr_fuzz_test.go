package mem

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// groupOracle is Optimistic Group Registration as it was written before the
// streaming Grouper: filter, sort a copy with sort.Slice, merge over the
// list. The fuzz target holds the stream to it block for block.
func groupOracle(blocks []Block, cost RegCost) []Block {
	var sorted []Block
	for _, b := range blocks {
		if b.Len > 0 {
			sorted = append(sorted, b)
		}
	}
	if len(sorted) == 0 {
		return nil
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Addr < sorted[j].Addr })
	var regions []Block
	cur := sorted[0]
	for _, b := range sorted[1:] {
		if b.Addr <= cur.End() {
			if b.End() > cur.End() {
				cur.Len = int64(b.End() - cur.Addr)
			}
			continue
		}
		mergedLen := int64(b.End() - cur.Addr)
		extraPages := PageSpan(cur.Addr, mergedLen) - PageSpan(cur.Addr, cur.Len)
		if extraPages*cost.PerPage < cost.RegionCost(b.Addr, b.Len) {
			cur.Len = mergedLen
			continue
		}
		regions = append(regions, cur)
		cur = b
	}
	return append(regions, cur)
}

// FuzzGroupStream proves the streaming Grouper emits exactly the regions
// the list-based grouping did, for arbitrary block lists: sorted and
// unsorted, overlapping, adjacent, zero-length. Every 6 input bytes are one
// block (a 4-byte address, a 2-byte length of which a few values are forced
// to zero); the first two bytes pick the cost model and whether the list is
// pre-sorted and fed to the stream directly.
func FuzzGroupStream(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 0, 0, 16, 0, 0, 100, 0, 0, 16, 0, 0, 50, 0}) // same address, different lengths
	f.Add([]byte{0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		cost := RegCost{Base: int64(in[0]) * 997, PerPage: int64(in[1]>>1) * 13}
		presorted := in[1]&1 == 1
		var blocks []Block
		for in = in[2:]; len(in) >= 6; in = in[6:] {
			n := int64(binary.LittleEndian.Uint16(in[4:]))
			if n%7 == 0 {
				n = 0
			}
			blocks = append(blocks, Block{Addr: Addr(binary.LittleEndian.Uint32(in)), Len: n << (in[0] % 9)})
		}
		var got []Block
		if presorted {
			// Equal addresses keep their input order, as a layout walk's would.
			sort.SliceStable(blocks, func(i, j int) bool { return blocks[i].Addr < blocks[j].Addr })
			var g Grouper
			g.Reset(cost, nil)
			for _, b := range blocks {
				g.Add(b.Addr, b.Len)
			}
			got = g.Finish()
			if !slices.Equal(got, GroupRegionsSorted(blocks, cost)) {
				t.Fatalf("GroupRegionsSorted differs from the stream it wraps")
			}
		} else {
			got = GroupRegions(blocks, cost)
		}
		want := groupOracle(blocks, cost)
		if !slices.Equal(got, want) {
			t.Fatalf("stream regions %v\n  list regions %v\n  blocks %v cost %+v", got, want, blocks, cost)
		}
	})
}

// TestGroupStreamLongLists covers what short fuzz inputs rarely reach: lists
// long enough for the sort to leave insertion sort, dense with equal
// addresses, where the grouping depends on the order the sort leaves them in.
func TestGroupStreamLongLists(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 400; iter++ {
		n := rng.Intn(700) + 1
		blocks := make([]Block, n)
		for i := range blocks {
			blocks[i] = Block{Addr: Addr(rng.Intn(40) * 50000), Len: int64(rng.Intn(5)) * int64(rng.Intn(200000))}
		}
		cost := RegCost{Base: int64(rng.Intn(60000)), PerPage: int64(rng.Intn(700))}
		if got, want := GroupRegions(blocks, cost), groupOracle(blocks, cost); !slices.Equal(got, want) {
			t.Fatalf("iter %d: stream regions %v, list regions %v", iter, got, want)
		}
	}
}
