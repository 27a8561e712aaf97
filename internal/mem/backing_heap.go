//go:build !linux && !darwin

package mem

// newBacking returns a zeroed address space of the given size from the Go
// heap; platforms without the anonymous-mapping fast path pay eager zeroing.
func newBacking(size int64) ([]byte, *backing) {
	return make([]byte, size), nil
}

// backing is never instantiated here: heap slices are the collector's.
type backing struct{}

// MappedBytes reports the bytes held in anonymous mappings: none, on
// platforms without the fast path.
func MappedBytes() int64 { return 0 }
