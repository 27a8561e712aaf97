package datatype

import "fmt"

// The dataloop is the normalized traversal form of a datatype, after Ross,
// Miller & Gropp's reusable datatype-processing component for MPICH2. It has
// three node kinds — a contiguous run, a counted strided loop, and an
// offset-indexed list — and is built once at type construction, with
// contiguity folded away: a vector whose stride equals its block span
// becomes a single contiguous run, a block of contiguous children becomes
// one run, and adjacent indexed parts merge.

type loopKind int

const (
	loopContig loopKind = iota
	loopVector
	loopIndexed
)

// runTable is a sequence of contiguous runs held as a struct of arrays: run
// i is lens[i] bytes at offs[i]. It is the one flat form an indexed layout is
// held in — the dataloop's indexed node carries one, the compiler fills one,
// and a compiled program replays one (its own, or the type's when they would
// be equal). A finished table is immutable.
type runTable struct {
	offs   []int64
	lens   []int64 // nil while every run is runLen bytes long
	runLen int64   // the uniform run length; 0 once lens is set

	ascending bool  // run offsets never decrease
	lo, hi    int64 // every run lies in [lo, hi): min run offset, max run end
}

// lenAt returns run i's length.
func (rt *runTable) lenAt(i int) int64 {
	if rt.lens != nil {
		return rt.lens[i]
	}
	return rt.runLen
}

// push appends a run. The per-run length table is only materialized by the
// first run whose length differs from its predecessors'.
func (rt *runTable) push(off, n int64) {
	if len(rt.offs) == 0 {
		rt.runLen, rt.ascending, rt.lo, rt.hi = n, true, off, off+n
	} else {
		if off < rt.offs[len(rt.offs)-1] {
			rt.ascending = false
		}
		rt.lo, rt.hi = min(rt.lo, off), max(rt.hi, off+n)
		if rt.lens == nil && n != rt.runLen {
			rt.lens = make([]int64, len(rt.offs), cap(rt.offs))
			for i := range rt.lens {
				rt.lens[i] = rt.runLen
			}
			rt.runLen = 0
		}
	}
	rt.offs = append(rt.offs, off)
	if rt.lens != nil {
		rt.lens = append(rt.lens, n)
	}
}

// runBuilder feeds raw runs into a table under the Cursor's coalescing rule:
// an empty run is dropped and a run that starts where the previous one ends
// extends it, so the table holds maximal runs. The newest run is held back
// (it may still grow) until the next one arrives or flush is called.
type runBuilder struct {
	runTable
	pendOff, pendLen int64
}

func newRunBuilder(capacity int) runBuilder {
	return runBuilder{runTable: runTable{offs: make([]int64, 0, capacity)}}
}

func (b *runBuilder) add(off, n int64) {
	if n == 0 {
		return
	}
	if b.pendLen != 0 {
		if b.pendOff+b.pendLen == off {
			b.pendLen += n
			return
		}
		b.push(b.pendOff, b.pendLen)
	}
	b.pendOff, b.pendLen = off, n
}

func (b *runBuilder) flush() {
	if b.pendLen != 0 {
		b.push(b.pendOff, b.pendLen)
		b.pendLen = 0
	}
}

type loop struct {
	kind loopKind

	// loopContig
	bytes int64

	// loopVector
	count  int
	stride int64
	child  *loop

	// loopIndexed: the parts in traversal order, as one flat table. Part i is
	// displaced by offs[i]; it is a contiguous leaf of lenAt(i) bytes unless
	// kids[i] is set, in which case it is that child loop. kids is nil when
	// every part is a leaf — the common indexed type — and the table is then
	// exactly the maximal runs of one traversal (indexedBuilder drops empty
	// leaves and merges a leaf into the one it abuts), bounds and order
	// included, so a compiled program can share it. With kids present
	// ascending/lo/hi are not meaningful.
	runTable
	kids []*loop

	// Derived totals for one traversal.
	dataBytes int64
	blocks    int64 // contiguous runs emitted per traversal (upper bound:
	// cross-iteration adjacency is coalesced by the cursor, not here)
}

// kid returns part i's child loop, or nil when the part is a leaf.
func (lp *loop) kid(i int) *loop {
	if lp.kids == nil {
		return nil
	}
	return lp.kids[i]
}

func emptyLoop() *loop {
	return &loop{kind: loopContig, bytes: 0, dataBytes: 0, blocks: 0}
}

func contigLoop(bytes int64) *loop {
	if bytes <= 0 {
		return emptyLoop()
	}
	return &loop{kind: loopContig, bytes: bytes, dataBytes: bytes, blocks: 1}
}

// typeContigFull reports whether one instance of old is a single run whose
// size equals its extent starting at its origin, so consecutive instances
// at extent stride form one larger run.
func typeContigFull(old *Type) bool {
	return old.loop.kind == loopContig && old.loop.bytes == old.Extent() && old.lb == 0
}

// blockLoop returns the loop for blocklen consecutive instances of old
// (each at old.Extent() stride from the previous).
func blockLoop(blocklen int, old *Type) *loop {
	if blocklen <= 0 || old.size == 0 {
		return emptyLoop()
	}
	if typeContigFull(old) {
		return contigLoop(int64(blocklen) * old.size)
	}
	if blocklen == 1 {
		return old.loop
	}
	child := old.loop
	lp := &loop{
		kind: loopVector, count: blocklen, stride: old.Extent(), child: child,
		dataBytes: int64(blocklen) * child.dataBytes,
		blocks:    int64(blocklen) * child.blocks,
	}
	return lp
}

// vectorLoop returns the loop for count blocks of blocklen olds with the
// given byte stride between block starts.
func vectorLoop(count int, strideBytes int64, blocklen int, old *Type) *loop {
	inner := blockLoop(blocklen, old)
	if count <= 0 || inner.dataBytes == 0 {
		return emptyLoop()
	}
	if count == 1 {
		return inner
	}
	// Consecutive blocks that touch coalesce into one contiguous run.
	if inner.kind == loopContig && strideBytes == inner.bytes {
		return contigLoop(int64(count) * inner.bytes)
	}
	return &loop{
		kind: loopVector, count: count, stride: strideBytes, child: inner,
		dataBytes: int64(count) * inner.dataBytes,
		blocks:    int64(count) * inner.blocks,
	}
}

// indexedBuilder assembles an indexed loop from displaced parts in one pass,
// with no node per leaf: empty parts are skipped, adjacent contiguous leaves
// merge, and the trivial single-part case unwraps.
type indexedBuilder struct {
	runBuilder
	kids      []*loop
	nKids     int
	dataBytes int64 // of every part so far
	kidBlocks int64 // of the child parts so far
}

// newIndexedBuilder sizes the table for up to parts parts.
func newIndexedBuilder(parts int) indexedBuilder {
	return indexedBuilder{runBuilder: newRunBuilder(parts)}
}

// leaf adds a contiguous part of n bytes at off.
func (b *indexedBuilder) leaf(off, n int64) {
	b.add(off, n)
	b.dataBytes += n
}

// part adds the child loop lp displaced by off.
func (b *indexedBuilder) part(off int64, lp *loop) {
	switch {
	case lp.dataBytes == 0:
	case lp.kind == loopContig:
		b.leaf(off, lp.bytes)
	default:
		b.flush() // a leaf never merges across a child
		if b.kids == nil {
			// One slot per part the table was sized for; finish trims it.
			b.kids = make([]*loop, cap(b.offs))
		}
		b.kids[len(b.offs)] = lp
		b.push(off, 0)
		b.nKids++
		b.dataBytes += lp.dataBytes
		b.kidBlocks += lp.blocks
	}
}

func (b *indexedBuilder) finish() *loop {
	b.flush()
	switch {
	case len(b.offs) == 0:
		return emptyLoop()
	case len(b.offs) == 1 && b.offs[0] == 0 && b.kids != nil:
		return b.kids[0]
	case len(b.offs) == 1 && b.offs[0] == 0:
		return contigLoop(b.runLen)
	}
	if b.kids != nil {
		b.kids = b.kids[:len(b.offs)]
	}
	return &loop{
		kind: loopIndexed, runTable: b.runTable, kids: b.kids,
		dataBytes: b.dataBytes, blocks: int64(len(b.offs)-b.nKids) + b.kidBlocks,
	}
}

// messageLoop returns the loop for count instances of t, consecutive
// instances separated by t's extent — the layout of an MPI (buf, count,
// datatype) triple.
func messageLoop(t *Type, count int) *loop {
	if count <= 0 || t.size == 0 {
		return emptyLoop()
	}
	if count == 1 {
		return t.loop
	}
	if typeContigFull(t) {
		return contigLoop(int64(count) * t.size)
	}
	return &loop{
		kind: loopVector, count: count, stride: t.Extent(), child: t.loop,
		dataBytes: int64(count) * t.loop.dataBytes,
		blocks:    int64(count) * t.loop.blocks,
	}
}

// treeString renders the dataloop as an indented tree (dtinspect's view).
func (lp *loop) treeString(indent string, b *[]byte) {
	switch lp.kind {
	case loopContig:
		*b = append(*b, fmt.Sprintf("%scontig %d bytes\n", indent, lp.bytes)...)
	case loopVector:
		*b = append(*b, fmt.Sprintf("%svector count=%d stride=%d\n", indent, lp.count, lp.stride)...)
		lp.child.treeString(indent+"  ", b)
	case loopIndexed:
		*b = append(*b, fmt.Sprintf("%sindexed parts=%d\n", indent, len(lp.offs))...)
		for i, off := range lp.offs {
			*b = append(*b, fmt.Sprintf("%s  @%d:\n", indent, off)...)
			if k := lp.kid(i); k != nil {
				k.treeString(indent+"    ", b)
			} else {
				*b = append(*b, fmt.Sprintf("%s    contig %d bytes\n", indent, lp.lenAt(i))...)
			}
		}
	}
}
