package mem

// The warm message path runs on records and buffers made once (DESIGN.md
// §16), from the two pools here. Neither is a sync.Pool, which a GC cycle
// may empty, and neither is safe for concurrent use: each belongs to one
// execution context.

// FreeList is a LIFO of recycled records of type T. When it runs dry it
// makes as many records as are live, in one slab, so a process that peaks
// at p records grows the list about log₂(p) times — almost all of them
// during warm-up — and makes at most 2p. A record is complete when it is
// made (its method values bound, its scratch sized), so its first use
// allocates nothing either.
type FreeList[T any] struct {
	free []*T
	live int
}

// Get pops a record, first making a batch when the list is empty: mk
// readies each new record, in the order they will come out.
func (l *FreeList[T]) Get(mk func(*T)) *T {
	l.live++
	if len(l.free) == 0 {
		// The slice holds the batch and every live record handed back.
		recs := make([]T, l.live)
		l.free = make([]*T, len(recs), 2*len(recs))
		for i := range recs {
			mk(&recs[i])
			l.free[len(recs)-1-i] = &recs[i]
		}
	}
	k := len(l.free) - 1
	x := l.free[k]
	l.free[k] = nil
	l.free = l.free[:k]
	return x
}

// Put hands a record back for reuse.
func (l *FreeList[T]) Put(x *T) {
	l.live--
	l.free = append(l.free, x)
}

// Drop retires a record that is not to be reused (a quarantined one).
func (l *FreeList[T]) Drop() { l.live-- }

// Live counts the records handed out and not yet handed back.
func (l *FreeList[T]) Live() int { return l.live }

// Parked returns the records on the list, for reading only.
func (l *FreeList[T]) Parked() []*T { return l.free }

// BufPool hands out byte buffers in power-of-two size classes from 64 B up,
// so a get is a pop, never a search, and a buffer is only reused for a
// request of its own class. A class grows by the FreeList rule — dry, it
// makes as many buffers as it owns, cut from one slab — until the pool owns
// maxBufBytes; past that a get lends a buffer that Put drops, so a burst of
// large messages cannot pin its buffers forever. The zero value is empty.
type BufPool struct {
	free  [numBufClass][][]byte // a class's capacity is the buffers it owns
	bytes int64                 // owned, parked or out
	live  int
}

const (
	minBufShift = 6       // the smallest class holds 64 B buffers
	numBufClass = 12      // the largest, 128 KiB ones
	maxBufBytes = 1 << 20 // owned bytes per pool
	maxBufCap   = 1 << (minBufShift + numBufClass - 1)
)

// bufClass returns the class whose buffers hold at least n bytes.
func bufClass(n int64) int {
	c := 0
	for int64(1)<<(minBufShift+c) < n {
		c++
	}
	return c
}

// Get returns a length-n buffer. One larger than the largest class is
// simply allocated.
func (p *BufPool) Get(n int64) []byte {
	p.live++
	if n > maxBufCap {
		return make([]byte, n)
	}
	c := bufClass(n)
	size := int64(1) << (minBufShift + c)
	f := p.free[c]
	if len(f) == 0 {
		k := min(max(cap(f), 1), int((maxBufBytes-p.bytes)/size))
		if k == 0 {
			return make([]byte, n, size)
		}
		slab := make([]byte, int64(k)*size)
		f = make([][]byte, k, cap(f)+k)
		for i := range f {
			f[i] = slab[int64(i)*size : int64(i+1)*size : int64(i+1)*size]
		}
		p.bytes += int64(k) * size
	}
	b := f[len(f)-1]
	f[len(f)-1] = nil
	p.free[c] = f[:len(f)-1]
	return b[:n]
}

// Put parks a buffer for reuse once nothing references it. A class never
// parks more buffers than it owns: one that finds its class full (a lent
// one, say) is dropped.
func (p *BufPool) Put(b []byte) {
	p.live--
	if n := int64(cap(b)); n >= 1<<minBufShift && n <= maxBufCap {
		c := bufClass(n)
		if f := p.free[c]; n == 1<<(minBufShift+c) && len(f) < cap(f) {
			p.free[c] = append(f, b)
		}
	}
}

// Live counts the buffers handed out and not yet handed back.
func (p *BufPool) Live() int { return p.live }
