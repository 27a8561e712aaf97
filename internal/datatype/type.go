// Package datatype implements MPI derived datatypes: constructors mirroring
// the MPI type-creation calls, size/extent semantics, a normalized dataloop
// representation (after Ross, Miller & Gropp), a stack-based cursor for
// partial pack/unpack processing (after Träff's flattening-on-the-fly), full
// flattening with adjacent-block coalescing, layout statistics used by the
// scheme-selection heuristics, and a compact wire codec for shipping a
// receiver's layout to a sender (the Multi-W scheme's datatype exchange).
package datatype

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Kind discriminates the datatype constructors.
type Kind int

// Datatype kinds.
const (
	KindBase Kind = iota
	KindContiguous
	KindVector   // element-stride vector (MPI_Type_vector)
	KindHvector  // byte-stride vector (MPI_Type_create_hvector)
	KindIndexed  // element displacements (MPI_Type_indexed)
	KindHindexed // byte displacements (MPI_Type_create_hindexed)
	KindStruct   // byte displacements + per-block types (MPI_Type_create_struct)
	KindResized  // MPI_Type_create_resized
)

func (k Kind) String() string {
	switch k {
	case KindBase:
		return "base"
	case KindContiguous:
		return "contiguous"
	case KindVector:
		return "vector"
	case KindHvector:
		return "hvector"
	case KindIndexed:
		return "indexed"
	case KindHindexed:
		return "hindexed"
	case KindStruct:
		return "struct"
	case KindResized:
		return "resized"
	}
	return "unknown"
}

// Type is an immutable MPI datatype. Construct one with the Type* functions;
// the zero value is not valid.
type Type struct {
	kind   Kind
	name   string
	size   int64 // bytes of actual data per instance
	lb, ub int64 // lower bound and upper bound; extent = ub - lb
	trueLB int64 // first byte of actual data
	trueUB int64 // one past the last byte of actual data

	loop     *loop     // normalized dataloop (traversal form)
	nblocks  int64     // contiguous blocks per instance
	root     loop      // loop's node, when the constructor built a new one
	unitOnce sync.Once // compiles unit, the count-1 program, on first use
	unit     Program
}

// Predefined base types, mirroring the MPI named types used in the paper's
// benchmarks.
var (
	Byte    = base("MPI_BYTE", 1)
	Char    = base("MPI_CHAR", 1)
	Int32   = base("MPI_INT", 4)
	Int64   = base("MPI_LONG_LONG", 8)
	Float32 = base("MPI_FLOAT", 4)
	Float64 = base("MPI_DOUBLE", 8)
)

func base(name string, size int64) *Type {
	lp := &loop{kind: loopContig, bytes: size, dataBytes: size, blocks: 1}
	return &Type{
		kind: KindBase, name: name,
		size: size, lb: 0, ub: size, trueLB: 0, trueUB: size,
		loop: lp, nblocks: 1,
	}
}

// Kind returns the constructor kind.
func (t *Type) Kind() Kind { return t.kind }

// Size returns the number of bytes of actual data in one instance.
func (t *Type) Size() int64 { return t.size }

// Extent returns ub - lb, the stride between consecutive instances.
func (t *Type) Extent() int64 { return t.ub - t.lb }

// LB returns the lower bound.
func (t *Type) LB() int64 { return t.lb }

// UB returns the upper bound.
func (t *Type) UB() int64 { return t.ub }

// TrueLB returns the offset of the first actual data byte.
func (t *Type) TrueLB() int64 { return t.trueLB }

// TrueExtent returns the span of actual data bytes.
func (t *Type) TrueExtent() int64 { return t.trueUB - t.trueLB }

// Unit returns the type's unit: the program of one instance, compiled on
// first use and held by the type for as long as it lives, so every endpoint
// shares it and every count's Program is built from it. Safe for concurrent
// use.
func (t *Type) Unit() *Program {
	t.unitOnce.Do(func() { t.unit.compile(t) })
	return &t.unit
}

// Blocks returns the number of contiguous blocks in one instance after
// dataloop normalization (adjacent pieces coalesce).
func (t *Type) Blocks() int64 { return t.nblocks }

// Contig reports whether one instance is a single contiguous block whose
// size equals its extent (so count>1 instances are also contiguous).
func (t *Type) Contig() bool {
	return t.loop.kind == loopContig && t.size == t.Extent() && t.lb == 0
}

// Density returns size/trueExtent: the fraction of touched address space
// that is actual data. 1.0 means fully dense.
func (t *Type) Density() float64 {
	te := t.TrueExtent()
	if te <= 0 {
		return 1
	}
	return float64(t.size) / float64(te)
}

func (t *Type) String() string {
	if t.kind == KindBase {
		return t.name
	}
	return fmt.Sprintf("%s(size=%d extent=%d blocks=%d)", t.kind, t.size, t.Extent(), t.nblocks)
}

var errNilType = errors.New("datatype: nil element type")

// TypeContiguous mirrors MPI_Type_contiguous: count consecutive olds.
func TypeContiguous(count int, old *Type) (*Type, error) {
	if old == nil {
		return nil, errNilType
	}
	if count < 0 {
		return nil, fmt.Errorf("datatype: contiguous count %d < 0", count)
	}
	return TypeVector(count, 1, 1, old)
}

// TypeVector mirrors MPI_Type_vector: count blocks of blocklen olds, the
// start of each block separated by stride old-extents.
func TypeVector(count, blocklen, stride int, old *Type) (*Type, error) {
	if old == nil {
		return nil, errNilType
	}
	return TypeHvector(count, blocklen, int64(stride)*old.Extent(), old)
}

// TypeHvector mirrors MPI_Type_create_hvector: stride is in bytes. Block
// offsets are monotonic in the block number, so the bounds come from the
// first and last block alone and construction is O(1) whatever the count.
func TypeHvector(count, blocklen int, strideBytes int64, old *Type) (*Type, error) {
	if old == nil {
		return nil, errNilType
	}
	if count < 0 || blocklen < 0 {
		return nil, fmt.Errorf("datatype: hvector count=%d blocklen=%d", count, blocklen)
	}
	if count == 0 || blocklen == 0 {
		return &Type{kind: KindHvector, loop: emptyLoop()}, nil
	}
	var b typeBuilder
	b.bound(blocklen, 0, old)
	b.bound(blocklen, int64(count-1)*strideBytes, old)
	lp := vectorLoop(count, strideBytes, blocklen, old)
	return &Type{
		kind: KindHvector, size: int64(count) * int64(blocklen) * old.size,
		lb: b.lb, ub: b.ub, trueLB: b.tlb, trueUB: b.tub,
		loop: lp, nblocks: lp.blocks,
	}, nil
}

// TypeIndexed mirrors MPI_Type_indexed: displacements in old extents.
func TypeIndexed(blocklens []int, displs []int, old *Type) (*Type, error) {
	if old == nil {
		return nil, errNilType
	}
	if len(blocklens) != len(displs) {
		return nil, fmt.Errorf("datatype: indexed lens %d != displs %d", len(blocklens), len(displs))
	}
	b := newTypeBuilder(len(displs), blocklens)
	ext := old.Extent()
	for i, d := range displs {
		if err := b.block(blocklens[i], int64(d)*ext, old); err != nil {
			return nil, err
		}
	}
	return b.finish(KindIndexed), nil
}

// TypeHindexed mirrors MPI_Type_create_hindexed: displacements in bytes.
func TypeHindexed(blocklens []int, displs []int64, old *Type) (*Type, error) {
	if old == nil {
		return nil, errNilType
	}
	if len(blocklens) != len(displs) {
		return nil, fmt.Errorf("datatype: hindexed lens %d != displs %d", len(blocklens), len(displs))
	}
	b := newTypeBuilder(len(displs), blocklens)
	for i, d := range displs {
		if err := b.block(blocklens[i], d, old); err != nil {
			return nil, err
		}
	}
	return b.finish(KindHindexed), nil
}

// TypeIndexedBlock mirrors MPI_Type_create_indexed_block: constant blocklen.
func TypeIndexedBlock(blocklen int, displs []int, old *Type) (*Type, error) {
	if old == nil {
		return nil, errNilType
	}
	b := newTypeBuilder(len(displs), nil)
	ext := old.Extent()
	for _, d := range displs {
		if err := b.block(blocklen, int64(d)*ext, old); err != nil {
			return nil, err
		}
	}
	return b.finish(KindIndexed), nil
}

// TypeStruct mirrors MPI_Type_create_struct: per-block types and byte
// displacements.
func TypeStruct(blocklens []int, displs []int64, types []*Type) (*Type, error) {
	n := len(blocklens)
	if len(displs) != n || len(types) != n {
		return nil, fmt.Errorf("datatype: struct arrays disagree: %d/%d/%d",
			len(blocklens), len(displs), len(types))
	}
	if n == 0 {
		return nil, errors.New("datatype: empty struct")
	}
	b := newTypeBuilder(n, blocklens)
	for i, old := range types {
		if old == nil {
			return nil, errNilType
		}
		if err := b.block(blocklens[i], displs[i], old); err != nil {
			return nil, err
		}
	}
	return b.finish(KindStruct), nil
}

// TypeResized mirrors MPI_Type_create_resized: overrides lb and extent
// without changing the data layout (and compiles its own Unit).
func TypeResized(old *Type, lb, extent int64) (*Type, error) {
	if old == nil {
		return nil, errNilType
	}
	return &Type{
		kind: KindResized, name: old.name, size: old.size,
		lb: lb, ub: lb + extent, trueLB: old.trueLB, trueUB: old.trueUB,
		loop: old.loop, nblocks: old.nblocks,
	}, nil
}

// typeBuilder is the one pass the indexed-family constructors make over their
// arguments: each block converts straight into the dataloop's flat table while
// size and bounds accumulate, with no intermediate list and no object per
// block.
type typeBuilder struct {
	indexedBuilder
	size             int64
	bounded          bool // some non-empty block has set the bounds
	lb, ub, tlb, tub int64
}

// newTypeBuilder sizes the table, with its lens if the block lengths differ.
func newTypeBuilder(blocks int, lens []int) typeBuilder {
	varied := slices.ContainsFunc(lens, func(l int) bool { return l != lens[0] })
	return typeBuilder{indexedBuilder: newIndexedBuilder(blocks, varied)}
}

// bound widens the bounds to cover blocklen (> 0) olds at byte displacement d.
func (b *typeBuilder) bound(blocklen int, d int64, old *Type) {
	reach := d + int64(blocklen-1)*old.Extent()
	lo, hi, tlo, thi := d+old.lb, reach+old.ub, d+old.trueLB, reach+old.trueUB
	if !b.bounded {
		b.lb, b.ub, b.tlb, b.tub, b.bounded = lo, hi, tlo, thi, true
		return
	}
	b.lb, b.ub = min(b.lb, lo), max(b.ub, hi)
	b.tlb, b.tub = min(b.tlb, tlo), max(b.tub, thi)
}

// block adds blocklen consecutive olds at byte displacement d.
func (b *typeBuilder) block(blocklen int, d int64, old *Type) error {
	if blocklen <= 0 {
		if blocklen < 0 {
			return fmt.Errorf("datatype: blocklen %d < 0", blocklen)
		}
		return nil
	}
	b.size += int64(blocklen) * old.size
	b.bound(blocklen, d, old)
	if typeContigFull(old) {
		b.leaf(d, int64(blocklen)*old.size)
	} else {
		b.part(d, blockLoop(blocklen, old))
	}
	return nil
}

func (b *typeBuilder) finish(kind Kind) *Type {
	if !b.bounded {
		// All blocks empty.
		return &Type{kind: kind, loop: emptyLoop()}
	}
	t := &Type{
		kind: kind, size: b.size,
		lb: b.lb, ub: b.ub, trueLB: b.tlb, trueUB: b.tub,
	}
	t.loop = b.indexedBuilder.finish(&t.root)
	t.nblocks = t.loop.blocks
	return t
}

// Must panics if err is non-nil; intended for static type construction in
// tests and examples.
func Must(t *Type, err error) *Type {
	if err != nil {
		panic(err)
	}
	return t
}

// Tree renders the type's normalized dataloop as an indented tree, the form
// the traversal machinery actually walks. Intended for inspection tools.
func (t *Type) Tree() string {
	var b []byte
	b = append(b, fmt.Sprintf("%s size=%d extent=%d lb=%d\n", t.kind, t.size, t.Extent(), t.lb)...)
	t.loop.treeString("  ", &b)
	return string(b)
}

// Equal reports whether two types have identical layout semantics: the same
// size, bounds and normalized dataloop. Types that Equal pack, unpack and
// flatten identically (the constructor path taken to build them does not
// matter).
func Equal(a, b *Type) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.size != b.size || a.lb != b.lb || a.ub != b.ub ||
		a.trueLB != b.trueLB || a.trueUB != b.trueUB {
		return false
	}
	return loopEqual(a.loop, b.loop)
}

func loopEqual(x, y *loop) bool {
	if x.kind != y.kind {
		return false
	}
	switch x.kind {
	case loopContig:
		return x.bytes == y.bytes
	case loopVector:
		return x.count == y.count && x.stride == y.stride && loopEqual(x.child, y.child)
	case loopIndexed:
		if len(x.offs) != len(y.offs) {
			return false
		}
		for i, off := range x.offs {
			xk, yk := x.kid(i), y.kid(i)
			switch {
			case off != y.offs[i], (xk == nil) != (yk == nil):
				return false
			case xk == nil && x.lenAt(i) != y.lenAt(i):
				return false
			case xk != nil && !loopEqual(xk, yk):
				return false
			}
		}
		return true
	}
	return false
}
