package datatype

import "fmt"

// This file is the datatype compiler: it canonicalizes a type's layout into
// a *program* — a handful of nested-stride descriptors or an explicit run
// table — that pack/unpack engines replay instead of re-walking the dataloop
// tree through the interpreted Cursor. TEMPI (Pearson et al.) showed
// order-of-magnitude pack gains from exactly this canonicalization, and keeps
// the count as an outer dimension over the type's own form; so does this
// compiler: a type compiles once, into its unit (Type.Unit), and a count
// repeats it (Type.Program). The contract is stricter than TEMPI's: a program
// must emit the *identical* maximal-run sequence the Cursor emits, so staging
// bytes, run counts and therefore the simulator's virtual cost are
// bit-for-bit unchanged. A unit whose runs the compiler does not materialize
// falls back to ProgGeneric, which replays through the interpreted Cursor
// behind the same ProgCursor every other kind is walked with.

// ProgKind classifies a compiled layout program.
type ProgKind int

// The program kinds, from most to least canonical.
const (
	// ProgContig is a single contiguous run: pack is one memcpy.
	ProgContig ProgKind = iota
	// ProgStrided is a fixed-length block replicated under up to
	// maxProgDims nested uniform strides (1D vectors, 2D matrix columns,
	// deeper subarray nests), plus one for a message's repeat. Run i's
	// offset is a mixed-radix sum; the sequential cursor advances with two
	// integer adds per run.
	ProgStrided
	// ProgIndexed is an explicit run table (offset, length), the
	// canonical form of indexed/struct layouts; a uniform block length is
	// detected so fixed-block replay needs no length lookup.
	ProgIndexed
	// ProgGeneric is the bounded fallback for a unit with more runs than
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
	// maxProgDims bounds the stride nesting a unit's ProgStrided program
	// carries; deeper nests are materialized into a run table or left
	// generic. A message's repeat may add one level above them.
	maxProgDims = 8
	// maxProgRuns bounds the run table the compiler materializes for a
	// unit; beyond it the shape stays generic (the table would cost more
	// memory than the walk it saves). A table the type already holds is
	// shared at any length, and a count never builds one.
	maxProgRuns = 1 << 16
)

// progDim is one stride level of a ProgStrided program, outermost first.
type progDim struct {
	n      int64 // iterations at this level
	stride int64 // byte stride between consecutive iterations
}

// Program is a compiled layout: the canonical replay form of one
// (type, count) message. A Program is a value that shares its tables with the
// type's unit: copy it freely, hold it by value, and obtain a cursor per
// concurrent walk. The zero value is not valid — use Type.Program or Compile.
type Program struct {
	kind ProgKind
	t    *Type

	bytes int64 // total data bytes of the message
	runs  int64 // maximal contiguous runs; estimated when ProgGeneric

	off0 int64                    // first-run offset (ProgContig / ProgStrided)
	nd   int                      // ProgStrided stride levels in dims
	dims [maxProgDims + 1]progDim // ProgStrided stride levels, outermost first

	// The ProgIndexed run table in traversal order — the type's own when
	// that already is the unit's maximal-run sequence. Every kind uses its
	// runLen (the uniform run length), ascending and lo/hi, which cover the
	// whole message.
	runTable

	// The repeat level of a message of count > 1: its unit's runs count
	// times over, copy i displaced by i × the type's extent. Where a copy's
	// last run ends where the next copy's first begins, the Cursor merges the
	// two and so does the program: a unit of one run becomes one run, and a
	// stride nest whose seams do not merge gains one more level, outermost
	// (reps is then 1, as for a unit). Any other message keeps reps copies of
	// unitRuns runs, ext bytes apart, the seams joined by the unit's first
	// run length join when they merge. A ProgGeneric message's reps is its
	// count.
	reps, ext, unitRuns, join int64
}

// Compile returns Type.Program behind a pointer, which is all it allocates
// once the type holds its unit. It never fails: a unit the compiler cannot
// canonicalize compiles to a ProgGeneric program whose cursor replays the
// interpreted walk.
func Compile(t *Type, count int) *Program {
	p := t.Program(count)
	return &p
}

// Program returns the layout program of count instances of t: its unit
// (Unit) repeated count times, one extent apart. It is built in O(1) from the
// unit and shares the unit's tables, so it allocates nothing at any count.
// Safe for concurrent use.
func (t *Type) Program(count int) Program {
	u := t.Unit()
	if count == 1 {
		return *u
	}
	return u.repeat(count, t.Extent())
}

// repeat returns n copies of the unit u, ext bytes apart, in the form that
// emits the Cursor's run sequence (see Program.reps).
func (u *Program) repeat(n int, ext int64) Program {
	if n <= 0 || u.bytes == 0 {
		return Program{kind: ProgContig, t: u.t, reps: 1, runTable: runTable{ascending: true}}
	}
	p := *u
	p.bytes = int64(n) * u.bytes
	p.runs = int64(n) * u.runs // still an estimate when ProgGeneric
	if u.kind == ProgGeneric {
		p.reps, p.ext = int64(n), ext
		return p
	}
	if reach := int64(n-1) * ext; reach < 0 {
		p.lo += reach
	} else {
		p.hi += reach
	}
	firstOff, firstLen := u.RunAt(0)
	lastOff, lastLen := u.RunAt(u.runs - 1)
	p.ascending = u.ascending && firstOff+ext >= lastOff
	join := lastOff+lastLen == firstOff+ext
	switch {
	case join && u.runs == 1:
		// The copies tile one run.
		p.kind, p.off0, p.runs, p.unitRuns = ProgContig, firstOff, 1, 1
		p.runTable = runTable{runLen: p.bytes, ascending: true, lo: p.lo, hi: p.hi}
	case !join && (u.kind != ProgIndexed || u.runs == 1):
		// A run or a stride nest: the repeat is one more stride level,
		// outermost; it cannot make runs abut, since the seams do not merge.
		p.kind, p.off0, p.runLen, p.offs, p.lens = ProgStrided, firstOff, firstLen, nil, nil
		copy(p.dims[1:], u.dims[:u.nd])
		p.dims[0] = progDim{n: int64(n), stride: ext}
		p.nd++
		p.unitRuns = p.runs
	default:
		p.reps, p.ext = int64(n), ext
		if join {
			p.join = firstLen
			p.runs -= int64(n - 1)
		}
	}
	return p
}

// compile fills the zero program p with t's unit: one instance.
func (p *Program) compile(t *Type) {
	p.t, p.reps = t, 1
	lp := messageLoop(t, 1)
	p.bytes = lp.dataBytes
	if p.bytes == 0 {
		// Empty message: a contig program of zero runs.
		p.kind = ProgContig
		p.ascending = true
		return
	}
	if off, block, nd, ok := stridedShape(lp, &p.dims); ok {
		dims := p.dims[:nd]
		runs, fits := dimRuns(dims)
		if canonical, ascending := strideSteps(dims, block); fits && canonical {
			p.off0, p.runLen, p.nd, p.runs, p.ascending = off, block, nd, runs, ascending
			p.lo, p.hi = off, off+block
			for _, d := range dims {
				if reach := (d.n - 1) * d.stride; reach < 0 {
					p.lo += reach
				} else {
					p.hi += reach
				}
			}
			p.kind, p.unitRuns = ProgStrided, runs
			if nd == 0 {
				p.kind = ProgContig
			}
			return
		}
	}
	p.dims = [maxProgDims + 1]progDim{}
	if lp.kind == loopIndexed && lp.kids == nil {
		// An indexed type of leaves: its table already is the maximal-run
		// sequence, so the program shares it, whatever its length — the cap
		// bounds what is built here, not what exists.
		p.runTable = lp.runTable
	} else {
		n := lp.blocks
		if n < 0 || n > maxProgRuns {
			n = maxProgRuns + 1
		}
		b := newRunBuilder(int(n), false)
		b.emit(lp, 0)
		b.flush()
		if len(b.offs) > maxProgRuns {
			// Past the cap. The runs in hand and the bytes they cover price
			// the rest of the unit: the run count scheme selection and
			// registration ask for, without a walk per message.
			covered := int64(len(b.offs)) * b.runLen
			for _, n := range b.lens {
				covered += n
			}
			p.kind = ProgGeneric
			p.runs = int64(float64(p.bytes) * float64(len(b.offs)) / float64(covered))
			p.unitRuns = p.runs
			return
		}
		p.runTable = b.runTable
	}
	p.kind = ProgIndexed
	p.runs = int64(len(p.offs))
	p.unitRuns = p.runs
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

// stridedShape extracts (origin offset, block length, stride levels) from a
// dataloop that is a pure nest of vectors over one contiguous block,
// tolerating single-part indexed wrappers (which only displace the origin).
// The levels go to dims, outermost first, without the single-iteration ones,
// which contribute nothing to run enumeration; nd is how many there are.
func stridedShape(lp *loop, dims *[maxProgDims + 1]progDim) (off, block int64, nd int, ok bool) {
	for depth := 0; depth <= maxProgDims; depth++ {
		switch lp.kind {
		case loopContig:
			return off, lp.bytes, nd, true
		case loopVector:
			if lp.count > 1 {
				dims[nd] = progDim{n: int64(lp.count), stride: lp.stride}
				nd++
			}
			lp = lp.child
		case loopIndexed:
			if len(lp.offs) != 1 {
				return 0, 0, 0, false
			}
			off += lp.offs[0]
			if lp.kids == nil {
				return off, lp.runLen, nd, true
			}
			lp = lp.kids[0]
		default:
			return 0, 0, 0, false
		}
	}
	return 0, 0, 0, false
}

// dimRuns returns the total run count of a stride nest, refusing absurdly
// large products.
func dimRuns(dims []progDim) (int64, bool) {
	runs := int64(1)
	for _, d := range dims {
		if runs > maxRunProduct/d.n {
			return 0, false
		}
		runs *= d.n
	}
	return runs, true
}

const maxRunProduct = int64(1) << 40

// strideSteps reports whether the stride nest emits exactly the cursor's
// maximal runs — no two consecutive runs abut — and whether it emits them in
// non-decreasing offset order. Consecutive runs that increment level j (all
// deeper levels wrapping) are separated by stride_j minus the span the deeper
// levels walked: they abut exactly when that delta equals the block length,
// in which case the cursor would coalesce them and the program must not
// claim the shape, and they ascend when it is non-negative.
func strideSteps(dims []progDim, block int64) (canonical, ascending bool) {
	canonical, ascending = true, true
	sumInner := int64(0)
	for j := len(dims) - 1; j >= 0; j-- {
		delta := dims[j].stride - sumInner
		canonical = canonical && delta != block
		ascending = ascending && delta >= 0
		sumInner += (dims[j].n - 1) * dims[j].stride
	}
	return canonical, ascending
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
	if p.reps == 1 {
		return p.unitRun(i)
	}
	rep, k := i/p.unitRuns, i%p.unitRuns
	if p.join > 0 && i > 0 {
		// After the first run, each copy adds its runs 1 to unitRuns-1, the
		// last of them merged with the next copy's first.
		rep, k = (i-1)/(p.unitRuns-1), (i-1)%(p.unitRuns-1)+1
	}
	off, length = p.unitRun(k)
	if p.join > 0 && k == p.unitRuns-1 && rep < p.reps-1 {
		length += p.join
	}
	return off + rep*p.ext, length
}

// unitRun returns run k of one copy.
func (p *Program) unitRun(k int64) (off, length int64) {
	switch p.kind {
	case ProgContig:
		return p.off0, p.runLen
	case ProgStrided:
		off = p.off0
		q := k
		for j := p.nd - 1; j >= 0; j-- {
			d := p.dims[j]
			off += (q % d.n) * d.stride
			q /= d.n
		}
		return off, p.runLen
	case ProgIndexed:
		return p.offs[k], p.lenAt(int(k))
	}
	panic("datatype: RunAt on generic program")
}

// String renders the program compactly (dtinspect's view): its form, and a
// repeat the form does not absorb as "× count @ extent".
func (p *Program) String() string {
	var s string
	switch p.kind {
	case ProgContig:
		s = fmt.Sprintf("contig [%d,+%d)", p.off0, p.runLen)
		if p.runs == 0 {
			s = "contig empty"
		}
	case ProgStrided:
		s = fmt.Sprintf("strided block=%dB off=%d runs=%d", p.runLen, p.off0, p.runs)
		for _, d := range p.dims[:p.nd] {
			s += fmt.Sprintf(" [n=%d stride=%d]", d.n, d.stride)
		}
	case ProgIndexed:
		s = fmt.Sprintf("indexed fixed-block runs=%d block=%dB", p.runs, p.runLen)
		if p.lens != nil {
			s = fmt.Sprintf("indexed runs=%d (varied lengths)", p.runs)
		}
	case ProgGeneric:
		s = "generic (interpreted cursor walk)"
	}
	if p.reps > 1 {
		s += fmt.Sprintf(" × %d @ %d", p.reps, p.ext)
	}
	return s
}

// ProgCursor replays a compiled program with the Cursor's streaming
// contract. For canonical programs the advance is O(1) with no allocation;
// for ProgGeneric it wraps an interpreted Cursor. A cursor reset by ResetTo
// holds a message's repeat itself, so it must not be copied once reset. The
// zero value is not valid — use Program.Cursor, Reset or ResetTo.
type ProgCursor struct {
	p         *Program
	own       Program // the repeat ResetTo built, when p is not a unit
	remaining int64
	runIdx    int64 // the current run's index within its copy
	end       int64 // the runIdx past which a copy's walk takes turn
	rep       int64 // the current copy
	disp      int64 // its displacement, rep × ext
	pos       int64 // next byte's offset within the current run
	left      int64 // bytes left in the current run
	base      int64 // current run's start offset (ProgStrided bookkeeping)
	idx       [maxProgDims + 1]int64
	gen       *Cursor // ProgGeneric fallback
}

// Cursor returns a fresh cursor over the program, positioned at the start.
func (p *Program) Cursor() *ProgCursor {
	c := &ProgCursor{}
	c.Reset(p)
	return c
}

// ResetTo rewinds the cursor to the start of count instances of t: the
// type's unit itself for count 1, else the repeat built into the cursor. It
// allocates nothing for a canonical unit, which is what lets a pooled record
// keep its packers and cursors by value and bind them per message.
func (c *ProgCursor) ResetTo(t *Type, count int) {
	if count == 1 {
		c.Reset(t.Unit())
		return
	}
	c.own = t.Program(count)
	c.Reset(&c.own)
}

// Reset rewinds the cursor to the start of prog, which it walks in place:
// prog must outlive the walk. Resetting onto a canonical program allocates
// nothing; resetting onto a ProgGeneric program rebuilds the interpreted
// cursor.
func (c *ProgCursor) Reset(prog *Program) {
	c.p, c.remaining, c.runIdx, c.end = prog, prog.bytes, 0, prog.unitRuns
	c.rep, c.disp, c.pos, c.left, c.base, c.idx, c.gen = 0, 0, 0, 0, 0, [maxProgDims + 1]int64{}, nil
	if prog.kind == ProgGeneric {
		c.gen = NewCursor(prog.t, int(prog.reps))
		return
	}
	if prog.runs == 0 {
		return
	}
	if prog.join > 0 {
		c.end-- // the first copy's last run is a seam
	}
	off, n := prog.unitRun(0)
	c.pos, c.left, c.base = off, n, off
}

// Program returns the program the cursor walks.
func (c *ProgCursor) Program() *Program { return c.p }

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
	if c.left == 0 { // onto the next run: a step within a copy, a turn at its end
		if c.runIdx++; c.runIdx < c.end {
			c.step()
		} else if !c.turn() {
			return 0, 0, false
		}
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

// step moves onto run runIdx of the current copy, the one after the current
// run: the compiled inner loop, for ProgStrided one counter increment and
// one add per run, with wrap propagation amortizing to O(1), for ProgIndexed
// one table read. Each copy's end takes turn instead, once or twice a copy.
func (c *ProgCursor) step() {
	p := c.p
	switch p.kind {
	case ProgStrided:
		for j := p.nd - 1; ; j-- {
			c.idx[j]++
			c.base += p.dims[j].stride
			if c.idx[j] < p.dims[j].n {
				break
			}
			c.idx[j] = 0
			c.base -= p.dims[j].n * p.dims[j].stride
		}
		c.pos, c.left = c.base, p.runLen
	case ProgIndexed:
		c.pos = p.offs[c.runIdx] + c.disp
		if p.lens != nil {
			c.left = p.lens[c.runIdx]
		} else {
			c.left = p.runLen
		}
	}
}

// turn takes the walk past the end of a copy, reporting false when none is
// left. Seams joined, it is reached at the copy's last run, which it steps
// onto and extends by the next copy's first, leaving the walk on that copy's
// run 0, spent; otherwise it steps onto the next copy's run 0.
func (c *ProgCursor) turn() bool {
	p := c.p
	if c.rep+1 >= p.reps {
		return false
	}
	if p.join > 0 {
		c.step()
		c.left += p.join
	}
	c.rep++
	c.disp += p.ext
	c.idx, c.base = [maxProgDims + 1]int64{}, p.off0+c.disp
	c.runIdx, c.end = 0, p.unitRuns
	if p.join == 0 {
		c.step() // run 0 of an indexed unit: the only kind repeated unjoined
	} else if c.rep < p.reps-1 {
		c.end--
	}
	return true
}

// RunBatch is a stretch of whole runs handed out in one cursor step. Run j
// (0 <= j < K) starts at Base + Offs[j] when Offs is set (indexed programs;
// the slices alias the unit's tables and are read-only, and Base is the
// copy's displacement), else at Base + j*Stride (one stride level of a
// strided program). Every run is RunLen bytes unless Lens gives per-run
// lengths (varied indexed tables).
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
		return b.Base + b.Offs[j], n
	}
	return b.Base + int64(j)*b.Stride, n
}

// NextBatch consumes as many whole runs as fit in max bytes without leaving
// the current stride level (strided) or run table (indexed) of the current
// copy, and returns them as one batch; the runs, their order and the bytes
// consumed are exactly what that many Next calls would yield. K is 0 when no
// whole run is available: the cursor stands inside a run, max is shorter
// than the next run, the next run joins two copies, the message is done, or
// the program is ProgGeneric. Callers then take one Next step and retry.
func (c *ProgCursor) NextBatch(max int64) (b RunBatch) {
	p := c.p
	if c.gen != nil || c.remaining == 0 {
		return b
	}
	fresh := c.left == 0 // the current run is spent: the batch starts at the next one
	first := c.runIdx
	if fresh {
		first++
		if first >= c.end {
			// The next run is a seam or another copy's: turn onto it.
			c.runIdx = first
			c.turn() // cannot fail: remaining > 0
			fresh, first = false, c.runIdx
		}
	}
	switch {
	case p.lens != nil:
		if !fresh && c.left != p.lens[first] {
			return b
		}
		var bytes int64
		last := first
		for ; last < c.end && bytes+p.lens[last] <= max; last++ {
			bytes += p.lens[last]
		}
		if last == first {
			return b
		}
		b = RunBatch{K: int(last - first), Base: c.disp, Offs: p.offs[first:last], Lens: p.lens[first:last]}
		c.remaining -= bytes
	case !fresh && c.left != p.runLen, max < p.runLen:
		return b
	case p.kind == ProgContig:
		b = RunBatch{K: 1, RunLen: p.runLen, Base: p.off0}
		c.remaining = 0
	case p.kind == ProgIndexed:
		k := min(max/p.runLen, c.end-first)
		b = RunBatch{K: int(k), RunLen: p.runLen, Base: c.disp, Offs: p.offs[first : first+k]}
		c.remaining -= k * p.runLen
	default:
		if fresh {
			c.runIdx = first
			c.step()
		}
		d := p.dims[p.nd-1]
		j := &c.idx[p.nd-1]
		k := min(max/p.runLen, d.n-*j, c.end-first)
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
