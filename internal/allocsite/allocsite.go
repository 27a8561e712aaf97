// Package allocsite names what a stretch of code allocates, so that a
// zero-allocation test that fails reports call sites instead of a bare
// count. It records every allocation's stack (runtime.MemProfileRate = 1)
// while a window is open and diffs the runtime's heap profile across it.
package allocsite

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
)

// Window is one measurement: the process-wide allocation count and the heap
// profile at Open.
type Window struct {
	rate   int
	before map[[32]uintptr]int64
	m0     uint64
}

// Open starts a window. It collects first, since the runtime publishes a
// profile at the end of a collection, and reads the allocation count last,
// so its own snapshot is not counted. The count is read twice: restarting
// the world after a stop may start an OS thread, whose runtime records
// (runtime.allocm) would otherwise land inside the window; the second
// restart finds the first one's thread idle.
func Open() *Window {
	w := &Window{rate: runtime.MemProfileRate}
	runtime.MemProfileRate = 1
	runtime.GC()
	w.before = profile()
	mallocs()
	w.m0 = mallocs()
	return w
}

// Close ends the window and returns the objects allocated process-wide since
// Open, and, when there were any, the top call sites by object count, one a
// line, innermost frame first.
func (w *Window) Close(top int) (n uint64, sites string) {
	n = mallocs() - w.m0
	defer func() { runtime.MemProfileRate = w.rate }()
	if n == 0 {
		return 0, ""
	}
	runtime.GC()
	type site struct {
		frames string
		n      int64
	}
	var all []site
	for stk, c := range profile() {
		if d := c - w.before[stk]; d > 0 {
			if f := frames(stk); !strings.Contains(f, "allocsite.profile") {
				all = append(all, site{f, d})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n })
	var b strings.Builder
	for i := 0; i < len(all) && i < top; i++ {
		fmt.Fprintf(&b, "%6d  %s\n", all[i].n, all[i].frames)
	}
	return n, b.String()
}

// profile returns the cumulative objects allocated per stack.
func profile() map[[32]uintptr]int64 {
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			m := make(map[[32]uintptr]int64, n)
			for _, r := range recs[:n] {
				m[r.Stack0] += r.AllocObjects
			}
			return m
		}
	}
}

// frames renders the innermost frames of a stack as "pkg.Func:line < ...".
func frames(stk [32]uintptr) string {
	pcs := stk[:]
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	var parts []string
	it := runtime.CallersFrames(pcs)
	for len(parts) < 8 {
		f, more := it.Next()
		name := f.Function[strings.LastIndex(f.Function, "/")+1:]
		parts = append(parts, fmt.Sprintf("%s:%d", name, f.Line))
		if !more {
			break
		}
	}
	return strings.Join(parts, " < ")
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
