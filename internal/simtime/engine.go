// Package simtime provides a deterministic discrete-event simulation engine
// with coroutine-style processes.
//
// The engine advances a virtual clock by executing events in (time, sequence)
// order. Rank programs (MPI processes, in this repository) run as Process
// coroutines that execute in strict alternation with the engine, on the
// thread of whoever drives it, so the whole simulation is single-threaded
// and bit-for-bit reproducible. A process blocks by sleeping for a virtual
// duration or by waiting on a Signal; protocol state machines run as plain
// scheduled events.
package simtime

import (
	"fmt"
	"sort"
	"strings"
)

// Time is an absolute virtual time in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring the time package for readability.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Micros reports d as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Micros()) }

func (d Duration) String() string { return fmt.Sprintf("%.3fus", d.Micros()) }

type event struct {
	at  Time
	seq int64
	fn  func()
}

// eventHeap is a 4-ary min-heap of events stored by value, ordered by
// (at, seq). seq is unique per event, so the ordering is total and the
// extraction sequence is independent of heap shape — determinism does not
// depend on the arity or the sift implementation. Values (24 bytes) beat a
// heap of pointers here: a million-event Alltoall at 1024 ranks spends most
// of its host CPU in this structure, and the pointer version paid an
// allocation per event plus a cache miss per comparison.
type eventHeap []event

func (h eventHeap) before(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s.before(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release fn for GC
	s = s[:n]
	*h = s
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		small := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.before(c, small) {
				small = c
			}
		}
		if !s.before(small, i) {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now    Time
	seq    int64
	events eventHeap
	live   []*Process // spawned processes that have not finished
	inRun  bool
}

// NewEngine returns an engine with an empty event queue at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule arranges for fn to run in engine (event) context after d elapses.
// A non-positive d schedules fn at the current time, after already-pending
// events at that time. Schedule may be called from event context or from a
// running Process; both are serialized with engine execution.
func (e *Engine) Schedule(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.seq++
	e.events.push(event{at: e.now.Add(d), seq: e.seq, fn: fn})
}

// At arranges for fn to run at absolute time t (or now, if t is in the past).
func (e *Engine) At(t Time, fn func()) {
	e.Schedule(t.Sub(e.now), fn)
}

// DeadlockError is returned by Run when the event queue drains while spawned
// processes are still blocked.
type DeadlockError struct {
	// Blocked lists the names of the processes that can never resume.
	Blocked []string
	// At is the virtual time at which the simulation stalled.
	At Time
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("simtime: deadlock at %v: blocked processes: %s",
		e.At, strings.Join(e.Blocked, ", "))
}

// Run executes events until the queue is empty. It returns a *DeadlockError
// if any spawned process is still blocked when no event can wake it.
func (e *Engine) Run() error {
	if e.inRun {
		panic("simtime: Run called re-entrantly")
	}
	e.inRun = true
	defer func() { e.inRun = false }()
	for len(e.events) > 0 {
		ev := e.events.pop()
		if ev.at < e.now {
			panic("simtime: event scheduled in the past")
		}
		e.now = ev.at
		ev.fn()
	}
	if n := len(e.live); n > 0 {
		names := make([]string, 0, n)
		for _, p := range e.live {
			names = append(names, p.name)
		}
		sort.Strings(names)
		return &DeadlockError{Blocked: names, At: e.now}
	}
	return nil
}

// RunUntil executes events with timestamps not exceeding t, then returns.
// It does not check for deadlock.
func (e *Engine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		ev := e.events.pop()
		e.now = ev.at
		ev.fn()
	}
	if e.now < t {
		e.now = t
	}
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp, and reports whether an event ran. It lets an external
// driver (the real-time fabric's per-node goroutine) interleave engine
// events with work arriving from outside the engine, which Run cannot do.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	if ev.at > e.now {
		e.now = ev.at
	}
	ev.fn()
	return true
}

// Blocked returns the names of spawned processes that have not finished,
// sorted. A driver that has drained all events can use it to report which
// processes are stuck.
func (e *Engine) Blocked() []string {
	names := make([]string, 0, len(e.live))
	for _, p := range e.live {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }

// Scheduled reports how many events have ever been scheduled: the sequence
// counter that orders same-time events, so a difference of two readings is
// exactly the events a stretch of simulation cost.
func (e *Engine) Scheduled() int64 { return e.seq }

func (e *Engine) removeLive(p *Process) {
	for i, q := range e.live {
		if q == p {
			e.live = append(e.live[:i], e.live[i+1:]...)
			return
		}
	}
}
