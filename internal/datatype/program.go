package datatype

import "fmt"

// This file is the datatype compiler: Compile canonicalizes a (type, count)
// message into a layout *program* — a handful of nested-stride descriptors or
// an explicit run table — that pack/unpack engines replay instead of
// re-walking the dataloop tree through the interpreted Cursor. TEMPI
// (Pearson et al.) showed order-of-magnitude pack gains from exactly this
// canonicalization; the contract here is stricter than TEMPI's: a compiled
// program must emit the *identical* maximal-run sequence the Cursor emits
// (same offsets, same lengths, same order), so staging bytes, run counts and
// therefore the simulator's virtual cost are bit-for-bit unchanged. Shapes
// whose run sequence the compiler cannot reproduce exactly (cross-boundary
// run coalescing, very deep nesting with very many runs) fall back to
// ProgGeneric, which replays through the interpreted Cursor behind the same
// ProgCursor every other kind is walked with.

// ProgKind classifies a compiled layout program.
type ProgKind int

// The program kinds, from most to least canonical.
const (
	// ProgContig is a single contiguous run: pack is one memcpy.
	ProgContig ProgKind = iota
	// ProgStrided is a fixed-length block replicated under up to
	// maxProgDims nested uniform strides (1D vectors, 2D matrix columns,
	// deeper subarray nests). Run i's offset is a mixed-radix sum; the
	// sequential cursor advances with two integer adds per run.
	ProgStrided
	// ProgIndexed is an explicit run table (offset, length), the
	// canonical form of indexed/struct layouts; a uniform block length is
	// detected so fixed-block replay needs no length lookup.
	ProgIndexed
	// ProgGeneric is the bounded fallback for a shape with more runs than
	// the compiler materializes: its cursor wraps the interpreted Cursor and
	// its run count is an estimate; it is otherwise asked what every kind is.
	ProgGeneric
)

func (k ProgKind) String() string {
	switch k {
	case ProgContig:
		return "contig"
	case ProgStrided:
		return "strided"
	case ProgIndexed:
		return "indexed"
	case ProgGeneric:
		return "generic"
	}
	return "unknown"
}

const (
	// maxProgDims bounds the stride nesting a ProgStrided program carries;
	// deeper nests are materialized into a run table or left generic.
	maxProgDims = 8
	// maxProgRuns bounds the run table the compiler materializes; beyond it
	// the shape stays generic (the table would cost more memory than the walk
	// it saves, and a peer's layout can claim any count). A table the type
	// already holds is shared at any length.
	maxProgRuns = 1 << 16
)

// progDim is one stride level of a ProgStrided program, outermost first.
type progDim struct {
	n      int64 // iterations at this level
	stride int64 // byte stride between consecutive iterations
}

// Program is a compiled layout: the canonical replay form of one
// (type, count) message. Programs are immutable and safe to share; obtain a
// cursor per concurrent walk. The zero value is not valid — use Compile.
type Program struct {
	kind  ProgKind
	t     *Type
	count int

	bytes int64 // total data bytes of the message
	runs  int64 // maximal contiguous runs; estimated when ProgGeneric

	off0 int64     // first-run offset (ProgContig / ProgStrided)
	dims []progDim // ProgStrided stride levels, outermost first

	// The ProgIndexed run table in traversal order — the type's own when
	// that already is the message's maximal-run sequence. Every kind uses
	// its runLen (the uniform run length), ascending and lo/hi.
	runTable
}

// Compile canonicalizes count instances of t into a layout program. It never
// fails: shapes the compiler cannot canonicalize compile to a ProgGeneric
// program whose cursor replays the interpreted walk. Compile is pure and
// deterministic; callers cache programs keyed by (type, count).
func Compile(t *Type, count int) *Program {
	p := &Program{t: t, count: count}
	lp := messageLoop(t, count)
	p.bytes = lp.dataBytes
	if p.bytes == 0 {
		// Empty message: a contig program of zero runs.
		p.kind = ProgContig
		p.ascending = true
		return p
	}
	if off, block, dims, ok := stridedShape(lp, 0); ok {
		dims = foldDims(dims)
		if runs, fits := dimRuns(dims); fits && stridedCanonical(dims, block) {
			p.off0 = off
			p.runLen = block
			p.dims = dims
			p.runs = runs
			p.ascending = stridedAscending(dims, block)
			p.lo, p.hi = off, off+block
			for _, d := range dims {
				if reach := (d.n - 1) * d.stride; reach < 0 {
					p.lo += reach
				} else {
					p.hi += reach
				}
			}
			if len(dims) == 0 {
				p.kind = ProgContig
			} else {
				p.kind = ProgStrided
			}
			return p
		}
	}
	if lp.kind == loopIndexed && lp.kids == nil {
		// An indexed type of leaves, sent once: its table already is the
		// maximal-run sequence, so the program shares it, whatever its
		// length — the cap bounds what is built here, not what exists.
		p.runTable = lp.runTable
	} else {
		n := lp.blocks
		if n < 0 || n > maxProgRuns {
			n = maxProgRuns + 1
		}
		b := newRunBuilder(int(n))
		b.emit(lp, 0)
		b.flush()
		if len(b.offs) > maxProgRuns {
			// Past the cap. The runs in hand and the bytes they cover price
			// the rest of the message: the run count scheme selection and
			// registration ask for, without a walk per message.
			covered := int64(len(b.offs)) * b.runLen
			for _, n := range b.lens {
				covered += n
			}
			p.kind = ProgGeneric
			p.runs = int64(float64(p.bytes) * float64(len(b.offs)) / float64(covered))
			return p
		}
		p.runTable = b.runTable
	}
	p.kind = ProgIndexed
	p.runs = int64(len(p.offs))
	return p
}

// emit feeds b the raw runs of lp displaced by base in traversal order — the
// sequence the Cursor pulls and coalesces by the same rule — and reports false
// once the table has outgrown maxProgRuns, which stops the walk.
func (b *runBuilder) emit(lp *loop, base int64) bool {
	switch lp.kind {
	case loopContig:
		b.add(base, lp.bytes)
	case loopVector:
		for i := 0; i < lp.count; i++ {
			if !b.emit(lp.child, base+int64(i)*lp.stride) {
				return false
			}
		}
	case loopIndexed:
		for i, off := range lp.offs {
			if k := lp.kid(i); k == nil {
				b.add(base+off, lp.lenAt(i))
			} else if !b.emit(k, base+off) {
				return false
			}
		}
	}
	return len(b.offs) <= maxProgRuns
}

// stridedShape extracts (origin offset, block length, stride dims) from a
// dataloop that is a pure nest of vectors over one contiguous block,
// tolerating single-part indexed wrappers (which only displace the origin).
func stridedShape(lp *loop, depth int) (off, block int64, dims []progDim, ok bool) {
	if depth > maxProgDims {
		return 0, 0, nil, false
	}
	switch lp.kind {
	case loopContig:
		return 0, lp.bytes, nil, true
	case loopVector:
		cOff, cBlock, cDims, cOK := stridedShape(lp.child, depth+1)
		if !cOK {
			return 0, 0, nil, false
		}
		dims = append([]progDim{{n: int64(lp.count), stride: lp.stride}}, cDims...)
		return cOff, cBlock, dims, true
	case loopIndexed:
		if len(lp.offs) != 1 {
			return 0, 0, nil, false
		}
		if lp.kids == nil {
			return lp.offs[0], lp.runLen, nil, true
		}
		cOff, cBlock, cDims, cOK := stridedShape(lp.kids[0], depth+1)
		if !cOK {
			return 0, 0, nil, false
		}
		return lp.offs[0] + cOff, cBlock, cDims, true
	}
	return 0, 0, nil, false
}

// foldDims drops degenerate single-iteration levels; they contribute nothing
// to run enumeration.
func foldDims(dims []progDim) []progDim {
	out := dims[:0]
	for _, d := range dims {
		if d.n > 1 {
			out = append(out, d)
		}
	}
	return out
}

// dimRuns returns the total run count of a stride nest, refusing degenerate
// or absurdly large products.
func dimRuns(dims []progDim) (int64, bool) {
	runs := int64(1)
	for _, d := range dims {
		if d.n <= 0 || runs > maxRunProduct/d.n {
			return 0, false
		}
		runs *= d.n
	}
	return runs, true
}

const maxRunProduct = int64(1) << 40

// stridedCanonical reports whether the stride nest emits exactly the
// cursor's maximal runs — i.e. no two consecutive runs abut. Consecutive
// runs that increment level j (all deeper levels wrapping) are separated by
// stride_j minus the span the deeper levels walked; they abut exactly when
// that delta equals the block length, in which case the cursor would
// coalesce them and the program must not claim the shape.
func stridedCanonical(dims []progDim, block int64) bool {
	sumInner := int64(0)
	for j := len(dims) - 1; j >= 0; j-- {
		if dims[j].stride-sumInner == block {
			return false
		}
		sumInner += (dims[j].n - 1) * dims[j].stride
	}
	return true
}

// stridedAscending reports whether the mixed-radix enumeration emits runs in
// non-decreasing offset order: every consecutive-run delta must be
// non-negative.
func stridedAscending(dims []progDim, block int64) bool {
	sumInner := int64(0)
	for j := len(dims) - 1; j >= 0; j-- {
		if dims[j].stride-sumInner < 0 {
			return false
		}
		sumInner += (dims[j].n - 1) * dims[j].stride
	}
	return true
}

// Kind returns the program's canonical class.
func (p *Program) Kind() ProgKind { return p.kind }

// Type returns the datatype the program was compiled from.
func (p *Program) Type() *Type { return p.t }

// Bytes returns the total data bytes of the message.
func (p *Program) Bytes() int64 { return p.bytes }

// Runs returns the maximal contiguous run count: exact for a canonical
// program, for a ProgGeneric one the compile-time estimate that scales the
// runs the compiler saw before it gave up to the whole message.
func (p *Program) Runs() int64 { return p.runs }

// Ascending reports whether the program emits runs in non-decreasing offset
// order, letting consumers skip sorting (OGR grouping).
func (p *Program) Ascending() bool { return p.ascending }

// Bounds returns the offset range [lo, hi) every run of the program lies in
// (lo is some run's start, hi some run's end), so a replay engine can
// range-check a whole message once instead of once per run. Empty and
// ProgGeneric programs report (0, 0).
func (p *Program) Bounds() (lo, hi int64) { return p.lo, p.hi }

// RunAt returns run i's (offset, length) by random access. It panics on
// ProgGeneric programs (use a cursor) and on out-of-range i.
func (p *Program) RunAt(i int64) (off, length int64) {
	if i < 0 || i >= p.runs {
		panic("datatype: Program.RunAt out of range")
	}
	switch p.kind {
	case ProgContig:
		return p.off0, p.runLen
	case ProgStrided:
		off = p.off0
		q := i
		for j := len(p.dims) - 1; j >= 0; j-- {
			d := p.dims[j]
			off += (q % d.n) * d.stride
			q /= d.n
		}
		return off, p.runLen
	case ProgIndexed:
		return p.offs[i], p.lenAt(int(i))
	}
	panic("datatype: RunAt on generic program")
}

// String renders the program compactly (dtinspect's view).
func (p *Program) String() string {
	switch p.kind {
	case ProgContig:
		if p.runs == 0 {
			return "contig empty"
		}
		return fmt.Sprintf("contig [%d,+%d)", p.off0, p.runLen)
	case ProgStrided:
		s := fmt.Sprintf("strided block=%dB off=%d runs=%d", p.runLen, p.off0, p.runs)
		for _, d := range p.dims {
			s += fmt.Sprintf(" [n=%d stride=%d]", d.n, d.stride)
		}
		return s
	case ProgIndexed:
		if p.lens == nil {
			return fmt.Sprintf("indexed fixed-block runs=%d block=%dB", p.runs, p.runLen)
		}
		return fmt.Sprintf("indexed runs=%d (varied lengths)", p.runs)
	case ProgGeneric:
		return "generic (interpreted cursor walk)"
	}
	return "unknown"
}

// ProgCursor replays a compiled program with the Cursor's streaming
// contract. For canonical programs the advance is O(1) with no allocation;
// for ProgGeneric it wraps an interpreted Cursor. The zero value is not
// valid — use Program.Cursor or Reset.
type ProgCursor struct {
	p         *Program
	remaining int64
	runIdx    int64
	pos       int64 // next byte's offset within the current run
	left      int64 // bytes left in the current run
	base      int64 // current run's start offset (ProgStrided bookkeeping)
	idx       [maxProgDims]int64
	gen       *Cursor // ProgGeneric fallback
}

// Cursor returns a fresh cursor over the program, positioned at the start.
func (p *Program) Cursor() *ProgCursor {
	c := &ProgCursor{}
	c.Reset(p)
	return c
}

// Reset rewinds the cursor to the start of prog. Resetting onto a canonical
// program allocates nothing, which is what makes warm packers
// allocation-free; resetting onto a ProgGeneric program rebuilds the
// interpreted cursor.
func (c *ProgCursor) Reset(prog *Program) {
	*c = ProgCursor{p: prog, remaining: prog.bytes}
	if prog.kind == ProgGeneric {
		c.gen = NewCursor(prog.t, prog.count)
		return
	}
	if prog.runs == 0 {
		return
	}
	off, n := prog.RunAt(0)
	c.pos, c.left, c.base = off, n, off
}

// Remaining reports the data bytes not yet returned by Next.
func (c *ProgCursor) Remaining() int64 { return c.remaining }

// Done reports whether the whole message has been consumed.
func (c *ProgCursor) Done() bool { return c.remaining == 0 }

// Next returns up to max bytes of the current contiguous run, with exactly
// Cursor.Next's contract. max must be positive.
func (c *ProgCursor) Next(max int64) (off, n int64, ok bool) {
	if max <= 0 {
		panic("datatype: ProgCursor.Next with non-positive max")
	}
	if c.gen != nil {
		off, n, ok = c.gen.Next(max)
		c.remaining -= n
		return off, n, ok
	}
	if c.remaining == 0 {
		return 0, 0, false
	}
	if c.left == 0 && !c.advance() {
		return 0, 0, false
	}
	off = c.pos
	n = c.left
	if n > max {
		n = max
	}
	c.pos += n
	c.left -= n
	c.remaining -= n
	return off, n, true
}

// advance steps to the next run. The ProgStrided path is the compiled inner
// loop: one counter increment and one add per run, with wrap propagation
// amortizing to O(1).
func (c *ProgCursor) advance() bool {
	c.runIdx++
	if c.runIdx >= c.p.runs {
		return false
	}
	switch c.p.kind {
	case ProgStrided:
		d := c.p.dims
		for j := len(d) - 1; ; j-- {
			c.idx[j]++
			c.base += d[j].stride
			if c.idx[j] < d[j].n {
				break
			}
			c.idx[j] = 0
			c.base -= d[j].n * d[j].stride
			if j == 0 {
				return false // unreachable: runIdx guard fires first
			}
		}
		c.pos, c.left = c.base, c.p.runLen
		return true
	case ProgIndexed:
		c.pos = c.p.offs[c.runIdx]
		if c.p.lens != nil {
			c.left = c.p.lens[c.runIdx]
		} else {
			c.left = c.p.runLen
		}
		return true
	}
	return false // ProgContig has a single run
}

// RunBatch is a stretch of whole runs handed out in one cursor step. Run j
// (0 <= j < K) starts at Offs[j] when Offs is set (indexed programs; the
// slices alias the program's tables and are read-only), else at
// Base + j*Stride (one stride level of a strided program). Every run is
// RunLen bytes unless Lens gives per-run lengths (varied indexed tables).
type RunBatch struct {
	K            int
	RunLen       int64
	Base, Stride int64
	Offs, Lens   []int64
}

// Run returns run j's offset and length.
func (b *RunBatch) Run(j int) (off, n int64) {
	n = b.RunLen
	if b.Lens != nil {
		n = b.Lens[j]
	}
	if b.Offs != nil {
		return b.Offs[j], n
	}
	return b.Base + int64(j)*b.Stride, n
}

// NextBatch consumes as many whole runs as fit in max bytes without leaving
// the current stride level (strided) or run table (indexed) and returns them
// as one batch; the runs, their order and the bytes consumed are exactly
// what that many Next calls would yield. K is 0 — and the cursor untouched —
// when no whole run is available: the cursor stands inside a run, max is
// shorter than the next run, the message is done, or the program is
// ProgGeneric. Callers then take one Next step and retry.
func (c *ProgCursor) NextBatch(max int64) (b RunBatch) {
	p := c.p
	if c.gen != nil || c.remaining == 0 {
		return b
	}
	fresh := c.left == 0 // the current run is spent: the batch starts at the next one
	first := c.runIdx
	if fresh {
		first++
	}
	switch {
	case p.lens != nil:
		if !fresh && c.left != p.lens[first] {
			return b
		}
		var bytes int64
		last := first
		for ; last < p.runs && bytes+p.lens[last] <= max; last++ {
			bytes += p.lens[last]
		}
		if last == first {
			return b
		}
		b = RunBatch{K: int(last - first), Offs: p.offs[first:last], Lens: p.lens[first:last]}
		c.remaining -= bytes
	case !fresh && c.left != p.runLen, max < p.runLen:
		return b
	case p.kind == ProgContig:
		b = RunBatch{K: 1, RunLen: p.runLen, Base: p.off0}
		c.remaining = 0
	case p.kind == ProgIndexed:
		k := min(max/p.runLen, p.runs-first)
		b = RunBatch{K: int(k), RunLen: p.runLen, Offs: p.offs[first : first+k]}
		c.remaining -= k * p.runLen
	default:
		if fresh {
			c.advance() // cannot fail: remaining > 0
		}
		d := p.dims[len(p.dims)-1]
		j := &c.idx[len(p.dims)-1]
		k := min(max/p.runLen, d.n-*j)
		b = RunBatch{K: int(k), RunLen: p.runLen, Base: c.base, Stride: d.stride}
		*j += k - 1
		c.base += (k - 1) * d.stride
		c.remaining -= k * p.runLen
	}
	// Park on the batch's last run, spent; the next step advances past it.
	c.runIdx = first + int64(b.K) - 1
	c.left = 0
	return b
}
