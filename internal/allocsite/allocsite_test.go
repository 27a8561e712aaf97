package allocsite

import (
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

var sink []*[64]byte

//go:noinline
func allocateSome(n int) {
	for i := 0; i < n; i++ {
		sink = append(sink, new([64]byte))
	}
}

// A window counts what ran inside it and names the function that did it;
// an empty window reads zero and names nothing.
func TestWindowNamesTheSite(t *testing.T) {
	w := Open()
	n, own, sites := w.Close(5)
	if n != 0 || own != 0 || sites != "" {
		t.Fatalf("empty window: %d objects, sites %q", n, sites)
	}
	sink = make([]*[64]byte, 0, 1000)
	w = Open()
	allocateSome(100)
	n, own, sites = w.Close(5)
	if own < 100 || n < own {
		t.Fatalf("window counted %d objects, %d of them the program's, want at least 100 of those", n, own)
	}
	if n != own {
		t.Logf("window counted %d objects, %d of them the program's; all sites:\n%s", n, own, sites)
	}
	first, _, _ := strings.Cut(sites, "\n")
	if !strings.Contains(first, "allocateSome") || !strings.HasPrefix(strings.TrimSpace(first), "100 ") {
		t.Fatalf("top site is %q, want 100 objects in allocateSome:\n%s", first, sites)
	}
	sink = nil
}

// An object another goroutine allocates while the window's collections run
// is in both of its counts or in neither: the program's never exceed the
// total however the allocations fall.
func TestWindowCountsWhatItNames(t *testing.T) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			noise = new([48]byte)
		}
	}()
	defer func() { stop.Store(true); wg.Wait() }()
	for i := 0; i < 20; i++ {
		w := Open()
		allocateSome(10)
		if n, own, sites := w.Close(5); own < 10 || n < own {
			t.Fatalf("window counted %d objects, %d of them the program's, want at least 10 of those; at\n%s", n, own, sites)
		}
		sink = sink[:0]
	}
	sink = nil
}

var noise *[48]byte

var (
	gate           chan struct{}
	parked, exited sync.WaitGroup
)

func parkOnGate(lock bool) {
	if lock {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	parked.Done()
	<-gate
	exited.Done()
}

// parkAll starts k goroutines that park on a gate, each holding an OS
// thread of its own if lock is set, inside a window; it returns what the
// window counted once all have parked, and lets them go.
func parkAll(k int, lock bool) (n, own uint64, sites string) {
	gate = make(chan struct{})
	parked.Add(k)
	exited.Add(k)
	w := Open()
	for i := 0; i < k; i++ {
		go parkOnGate(lock)
	}
	parked.Wait()
	n, own, sites = w.Close(20)
	close(gate)
	exited.Wait()
	return n, own, sites
}

// Parking more goroutines than the per-P sudog caches hold, after Open's
// collection emptied the central one, makes sudogs (runtime.acquireSudog):
// runtime records, but made for the program's own parks, so they count as
// its own. Parking more goroutines on threads of their own than the process
// has threads makes the scheduler start new ones (runtime.allocm), which
// the window lists as the runtime's and leaves out of own.
func TestWindowSplitsRuntimeSites(t *testing.T) {
	n, own, sites := parkAll(1000, false)
	if own == 0 || !strings.Contains(sites, "  runtime.acquireSudog") {
		t.Errorf("1000 parked goroutines: %d objects, %d of them the program's; want sudogs among its own, at\n%s", n, own, sites)
	}
	k := pprof.Lookup("threadcreate").Count() + 2
	n, own, sites = parkAll(k, true)
	threads := 0
	for _, line := range strings.Split(sites, "\n") {
		if strings.Contains(line, "runtime.allocm") {
			threads++
			if !strings.Contains(line, "  runtime ") {
				t.Errorf("a thread's record counted as the program's: %s", line)
			}
		}
	}
	if threads == 0 || n <= own {
		t.Errorf("%d goroutines locked to threads: %d objects, %d of them the program's; want new threads as the runtime's, at\n%s", k, n, own, sites)
	}
}
