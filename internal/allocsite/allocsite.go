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

// Window is one measurement: the heap profile at Open and the process-wide
// allocation count on either side of it.
type Window struct {
	rate   int
	before map[[32]uintptr]int64
	wide0  uint64 // the count before Open's collection
	m0     uint64 // the count once Open is done
}

// Open starts a window. It collects, since the runtime publishes a profile
// at the end of a collection, and reads the allocation count on both sides
// of that collection: before it, where a count that must cover everything
// the profile can name starts, and last, where a count that leaves the
// window's own snapshot out starts. The last count is read twice:
// restarting the world after a stop may start an OS thread, whose runtime
// records (runtime.allocm) would otherwise land inside the window; the
// second restart finds the first one's thread idle.
func Open() *Window {
	w := &Window{rate: runtime.MemProfileRate}
	runtime.MemProfileRate = 1
	w.wide0 = mallocs()
	runtime.GC()
	w.before = profile()
	mallocs()
	w.m0 = mallocs()
	return w
}

// Close ends the window. It returns the objects allocated process-wide
// while it was open; how many of them the program's own code allocated; and,
// when there were any, the top call sites by object count, one a line,
// innermost frame first. A window that allocated nothing after Open returned
// reads 0. Otherwise the profile is diffed between Open's collection and
// Close's, and the count spans the same stretch: from before Open's
// collection to after Close's, less Open's snapshot, which the profile names
// exactly. An object another goroutine allocates as a collection ends is
// therefore in both counts or in neither, and own never exceeds the total. A
// site is the runtime's, not the program's, when the runtime frames it was
// allocated under include one of runtimeSites. Those are listed, marked
// "runtime", and left out of own.
func (w *Window) Close(top int) (n, own uint64, sites string) {
	defer func() { runtime.MemProfileRate = w.rate }()
	if mallocs() == w.m0 {
		return 0, 0, ""
	}
	runtime.GC()
	n = mallocs() - w.wide0
	type site struct {
		frames string
		n      int64
		rt     bool
	}
	var all []site
	for stk, c := range profile() {
		if d := c - w.before[stk]; d > 0 {
			f, rt, self := frames(stk)
			if self {
				n -= uint64(d)
				continue
			}
			all = append(all, site{f, d, rt})
			if !rt {
				own += uint64(d)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n })
	var b strings.Builder
	for i := 0; i < len(all) && i < top; i++ {
		tag := ""
		if all[i].rt {
			tag = "runtime "
		}
		fmt.Fprintf(&b, "%6d  %s%s\n", all[i].n, tag, all[i].frames)
	}
	return n, own, b.String()
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

// runtimeSites are the runtime's own allocations that no code of the
// program asks for: the scheduler making an OS thread when it wants one and
// none is idle, and a P's timer heap growing. Every other runtime frame
// (a sudog cache refilling, a goroutine's record) allocates on the
// program's behalf and counts as its own.
var runtimeSites = map[string]bool{
	"runtime.allocm":            true,
	"runtime.(*timers).addHeap": true,
}

// frames renders the innermost frames of a stack as "pkg.Func:line < ...",
// and reports whether the run of runtime frames at its inner end holds one
// of runtimeSites, and whether the window's own snapshot (profile, at any
// depth) made the allocation.
func frames(stk [32]uintptr) (s string, rt, self bool) {
	pcs := stk[:]
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	var parts []string
	inner := true
	it := runtime.CallersFrames(pcs)
	for more := len(pcs) > 0; more; {
		var f runtime.Frame
		f, more = it.Next()
		inner = inner && strings.HasPrefix(f.Function, "runtime.")
		rt = rt || inner && runtimeSites[f.Function]
		self = self || strings.HasSuffix(f.Function, "/allocsite.profile")
		if len(parts) < 8 {
			name := f.Function[strings.LastIndex(f.Function, "/")+1:]
			parts = append(parts, fmt.Sprintf("%s:%d", name, f.Line))
		}
	}
	return strings.Join(parts, " < "), rt, self
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
