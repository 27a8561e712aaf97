package mpi

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/mem"
)

// TestDroppedWorldsUnmapTheirArenas builds, runs and drops 32 worlds per
// backend and checks that the address space their arenas were mapped into
// comes back. It did not while the unmapping finalizer sat on mem.Memory
// itself: Memory and its RegTable point at each other, the collector does
// not finalize cycles, and every finished world's arenas stayed mapped for
// the life of the process. The mapping now belongs to a leaf object.
func TestDroppedWorldsUnmapTheirArenas(t *testing.T) {
	for _, backend := range AllBackends {
		t.Run(backend, func(t *testing.T) {
			// Earlier tests' worlds may still be waiting for a collection.
			settle := func(target int64) int64 {
				for i := 0; i < 100 && mem.MappedBytes() > target; i++ {
					runtime.GC()
					time.Sleep(5 * time.Millisecond)
				}
				return mem.MappedBytes()
			}
			base := settle(0)
			var peak int64
			for i := 0; i < 32; i++ {
				cfg := DefaultConfig()
				cfg.Ranks = 2
				cfg.MemBytes = 64 << 20 // large enough to be mapped, not heap-allocated
				cfg.Backend = backend
				w, err := NewWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Run(func(p *Proc) error { return p.Barrier() }); err != nil {
					t.Fatal(err)
				}
				peak = max(peak, mem.MappedBytes())
			}
			if peak == base {
				t.Skip("arenas are not backed by anonymous mappings on this platform")
			}
			t.Logf("mapped bytes: %d before, %d at the peak", base, peak)
			if got := settle(base); got > base {
				t.Fatalf("%d bytes still mapped after 32 worlds were dropped (%d before them, %d at the peak)",
					got, base, peak)
			}
		})
	}
}
