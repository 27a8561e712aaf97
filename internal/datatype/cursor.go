package datatype

import "slices"

// Cursor walks the contiguous runs of a (type, count) message in datatype
// order, supporting partial processing: a caller may consume any number of
// bytes and resume later from the exact same point. This is the capability
// the paper's segment pack/unpack pipelines require ("partial datatype
// processing", after Ross et al. and Träff's flattening on the fly).
//
// The walk is iterative over an explicit frame stack — no recursion — and
// coalesces runs that happen to abut across loop iterations, so the runs a
// Cursor reports are maximal.
type Cursor struct {
	remaining int64 // data bytes not yet consumed

	stack []cframe

	// pending is the current maximal run being consumed.
	pendingOff int64
	pendingLen int64

	// peek is a lookahead run pulled during coalescing.
	peekOff   int64
	peekLen   int64
	peekValid bool
}

type cframe struct {
	lp   *loop
	base int64
	idx  int
}

// NewCursor returns a cursor over count instances of t. Offsets it reports
// are byte displacements from the message buffer pointer (they can be
// negative when the type's lower bound is).
func NewCursor(t *Type, count int) *Cursor {
	lp := messageLoop(t, count)
	c := &Cursor{remaining: lp.dataBytes}
	if lp.dataBytes > 0 {
		c.stack = append(c.stack, cframe{lp: lp})
	}
	return c
}

// Remaining reports the data bytes not yet returned by Next.
func (c *Cursor) Remaining() int64 { return c.remaining }

// Done reports whether the whole message has been consumed.
func (c *Cursor) Done() bool { return c.remaining == 0 }

// nextRaw pulls the next (pre-coalescing) contiguous run off the stack.
func (c *Cursor) nextRaw() (off, n int64, ok bool) {
	for len(c.stack) > 0 {
		f := &c.stack[len(c.stack)-1]
		switch f.lp.kind {
		case loopContig:
			off, n = f.base, f.lp.bytes
			c.stack = c.stack[:len(c.stack)-1]
			if n > 0 {
				return off, n, true
			}
		case loopVector:
			if f.idx >= f.lp.count {
				c.stack = c.stack[:len(c.stack)-1]
				continue
			}
			childBase := f.base + int64(f.idx)*f.lp.stride
			f.idx++
			c.stack = append(c.stack, cframe{lp: f.lp.child, base: childBase})
		case loopIndexed:
			if f.idx >= len(f.lp.offs) {
				c.stack = c.stack[:len(c.stack)-1]
				continue
			}
			i := f.idx
			f.idx++
			off = f.base + f.lp.offs[i]
			if k := f.lp.kid(i); k != nil {
				c.stack = append(c.stack, cframe{lp: k, base: off})
				continue
			}
			return off, f.lp.lenAt(i), true // a leaf is never empty
		}
	}
	return 0, 0, false
}

// fill loads pending with the next maximal run.
func (c *Cursor) fill() bool {
	if c.peekValid {
		c.pendingOff, c.pendingLen = c.peekOff, c.peekLen
		c.peekValid = false
	} else {
		off, n, ok := c.nextRaw()
		if !ok {
			return false
		}
		c.pendingOff, c.pendingLen = off, n
	}
	// Coalesce abutting raw runs.
	for {
		off, n, ok := c.nextRaw()
		if !ok {
			return true
		}
		if off == c.pendingOff+c.pendingLen {
			c.pendingLen += n
			continue
		}
		c.peekOff, c.peekLen, c.peekValid = off, n, true
		return true
	}
}

// Next returns up to max bytes of the current contiguous run: its buffer
// offset and length. Runs longer than max are returned in consecutive
// pieces. ok is false when the message is exhausted. max must be positive.
func (c *Cursor) Next(max int64) (off, n int64, ok bool) {
	if max <= 0 {
		panic("datatype: Cursor.Next with non-positive max")
	}
	if c.pendingLen == 0 {
		if !c.fill() {
			return 0, 0, false
		}
	}
	off = c.pendingOff
	n = c.pendingLen
	if n > max {
		n = max
	}
	c.pendingOff += n
	c.pendingLen -= n
	c.remaining -= n
	return off, n, true
}

// Block is one contiguous run of a flattened message: a byte offset from the
// buffer pointer and a length.
type Block struct {
	Off int64
	Len int64
}

// End returns the offset one past the run.
func (b Block) End() int64 { return b.Off + b.Len }

// Flatten returns the maximal contiguous runs of a (type, count) message in
// datatype order, up to limit runs (0 means no limit). The second result
// reports whether the flattening was truncated at the limit.
func Flatten(t *Type, count, limit int) ([]Block, bool) {
	c := NewCursor(t, count)
	var out []Block
	for {
		if limit > 0 && len(out) >= limit {
			return out, !c.Done()
		}
		off, n, ok := c.Next(1 << 62)
		if !ok {
			return out, false
		}
		out = append(out, Block{Off: off, Len: n})
	}
}

// Stats summarizes the run-length distribution of a message layout; the
// scheme-selection heuristics of Section 6 key off these numbers.
type Stats struct {
	Runs      int64 // number of maximal contiguous runs
	Bytes     int64 // total data bytes
	MinRun    int64
	MaxRun    int64
	AvgRun    float64
	MedianRun int64
	Truncated bool // statistics computed over a truncated prefix of runs
}

// LayoutStats computes Stats over at most limit runs (0 means all).
func LayoutStats(t *Type, count, limit int) Stats {
	blocks, trunc := Flatten(t, count, limit)
	s := Stats{Truncated: trunc}
	if len(blocks) == 0 {
		return s
	}
	lens := make([]int64, len(blocks))
	for i, b := range blocks {
		lens[i] = b.Len
		s.Bytes += b.Len
		if i == 0 || b.Len < s.MinRun {
			s.MinRun = b.Len
		}
		if b.Len > s.MaxRun {
			s.MaxRun = b.Len
		}
	}
	s.Runs = int64(len(blocks))
	s.AvgRun = float64(s.Bytes) / float64(s.Runs)
	slices.Sort(lens)
	s.MedianRun = lens[len(lens)/2]
	return s
}
