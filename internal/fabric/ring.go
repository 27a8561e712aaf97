package fabric

// Ring is a FIFO queue over a power-of-two circular buffer. Pop zeroes the
// slot it empties, so a popped payload is not kept reachable by the queue,
// and a queue that cycles at a steady depth never reallocates — which
// `s = s[1:]` on a slice gets wrong on both counts. The zero value is an
// empty queue.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int
}

// Len reports the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the oldest element; the ring must not be empty.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("fabric: Pop of an empty ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

func (r *Ring[T]) grow() {
	next := make([]T, max(8, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		next[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = next, 0
}
