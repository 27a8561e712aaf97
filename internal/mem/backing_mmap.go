//go:build linux || darwin

package mem

import (
	"runtime"
	"sync/atomic"
	"syscall"
)

// lazyThreshold is the arena size above which backing memory comes from an
// anonymous mapping instead of the Go heap. Heap slices are zeroed eagerly
// at allocation — a 1024-rank world of 32 MB arenas would spend tens of
// seconds clearing memory nobody ever touches — while mapped pages fault in
// zeroed on first access, so an idle rank's arena costs nothing.
const lazyThreshold = 16 << 20

// backing owns one anonymous mapping and unmaps it when collected. It is a
// leaf: the Memory (or Arena, and through it every partition) that uses the
// mapping points at it and nothing points back, so its finalizer can run. A
// finalizer on the Memory itself never would — Memory and its RegTable
// reference each other, and the collector does not finalize cycles.
type backing struct{ mapped []byte }

// mappedBytes counts the bytes of live anonymous mappings.
var mappedBytes atomic.Int64

// MappedBytes reports the bytes of address space currently held in anonymous
// mappings by Memories and Arenas that have not been collected yet.
func MappedBytes() int64 { return mappedBytes.Load() }

// newBacking returns a zeroed address space of the given size. The second
// result keeps the mapping alive for as long as its holder is reachable, or
// is nil when the space came from the Go heap.
func newBacking(size int64) ([]byte, *backing) {
	if size < lazyThreshold {
		return make([]byte, size), nil
	}
	b, err := syscall.Mmap(-1, 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		// Address space pressure or a locked-down environment: fall back to
		// the eager heap slice, which is always correct.
		return make([]byte, size), nil
	}
	mappedBytes.Add(size)
	bk := &backing{mapped: b}
	runtime.SetFinalizer(bk, func(bk *backing) {
		mappedBytes.Add(-int64(len(bk.mapped)))
		_ = syscall.Munmap(bk.mapped)
	})
	return b, bk
}
