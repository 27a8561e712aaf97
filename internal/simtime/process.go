package simtime

import "fmt"

// Process is a coroutine executing inside the simulation. Exactly one of the
// engine or a single process runs at any instant; control transfers are
// explicit (Sleep, Wait, process completion), which makes process code
// race-free by construction and keeps the simulation deterministic.
type Process struct {
	eng  *Engine
	name string
	co   *coro
	// blocked is true while the process is parked waiting for a wake event.
	blocked bool
	done    bool

	// The two events that resume a parked process, bound once at Spawn: a
	// wake or a sleep hands the engine a ready func() instead of building a
	// method value per switch.
	transferFn, sleepDoneFn func()
}

// Spawn creates a process named name executing fn. The process body starts at
// the current virtual time, after already-pending events. Spawn may be called
// before Run, from event context, or from another process.
func (e *Engine) Spawn(name string, fn func(p *Process)) *Process {
	p := &Process{eng: e, name: name}
	p.transferFn, p.sleepDoneFn = p.transfer, p.sleepDone
	e.live = append(e.live, p)
	e.Schedule(0, func() { p.start(fn) })
	return p
}

// start creates the process coroutine and transfers control to it.
// Runs in engine event context.
func (p *Process) start(fn func(p *Process)) {
	p.co = newCoro(func() {
		fn(p)
		p.done = true
		p.eng.removeLive(p)
	})
	p.transfer()
}

// transfer hands control to the process and blocks the engine until the
// process yields (blocks or finishes). Runs in engine event context.
func (p *Process) transfer() { p.co.resume() }

// park yields control back to the engine and blocks until woken.
// Runs in process context.
func (p *Process) park() {
	p.blocked = true
	p.co.suspend()
}

// wake schedules the process to resume at the current virtual time.
// Runs in engine or process context.
func (p *Process) wake() {
	if p.done {
		panic(fmt.Sprintf("simtime: wake of finished process %q", p.name))
	}
	if !p.blocked {
		panic(fmt.Sprintf("simtime: wake of running process %q", p.name))
	}
	p.blocked = false
	p.eng.Schedule(0, p.transferFn)
}

// Name returns the name given at Spawn.
func (p *Process) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Process) Now() Time { return p.eng.now }

// Sleep suspends the process for virtual duration d. A non-positive d yields
// to other events at the current time and resumes.
func (p *Process) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.Schedule(d, p.sleepDoneFn)
	p.park()
}

// sleepDone is the event that ends a Sleep.
func (p *Process) sleepDone() {
	p.blocked = false
	p.transfer()
}

// WaitUntil suspends the process until absolute virtual time t. If t is not
// after the current time, it behaves like Sleep(0).
func (p *Process) WaitUntil(t Time) {
	p.Sleep(t.Sub(p.eng.now))
}

// Signal is a broadcast wake-up point for processes, analogous to a condition
// variable. The zero value is ready to use. Signals are not goroutine-safe in
// the general sense; they rely on the engine's strict alternation.
//
// The first waiter is held inline and the overflow list keeps its capacity
// across broadcasts, so the common shapes — one process waiting on one
// request, the same few processes waiting on an endpoint signal again and
// again — park and wake without allocating.
type Signal struct {
	first *Process
	more  []*Process
}

// Wait parks the process until the signal is next broadcast. As with
// condition variables, callers re-check their predicate in a loop:
//
//	for !ready() {
//		p.Wait(&sig)
//	}
func (p *Process) Wait(s *Signal) {
	if s.first == nil {
		s.first = p
	} else {
		s.more = append(s.more, p)
	}
	p.park()
}

// Broadcast wakes every process currently waiting on s. Each wakes via its
// own event at the current virtual time, in Wait order. Safe to call from
// event or process context; calling with no waiters is a no-op.
func (s *Signal) Broadcast() {
	if s.first == nil {
		return
	}
	// wake only schedules the resume event, so nobody can wait on s again
	// before the list has been emptied.
	s.first.wake()
	s.first = nil
	for i, w := range s.more {
		w.wake()
		s.more[i] = nil
	}
	s.more = s.more[:0]
}

// Waiters reports how many processes are parked on s.
func (s *Signal) Waiters() int {
	if s.first == nil {
		return 0
	}
	return 1 + len(s.more)
}

// Resource models a serially-reusable facility (a CPU, a NIC port) by
// tracking the time at which it next becomes free. Acquire reserves the
// resource for a duration and reports the reservation window; it never
// blocks — callers schedule follow-up work at the returned end time.
type Resource struct {
	name   string
	freeAt Time
	// Busy accumulates total reserved time, for utilization reporting.
	Busy Duration
}

// NewResource returns a named resource that is free at time zero.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// FreeAt returns the earliest time the resource is available.
func (r *Resource) FreeAt() Time { return r.freeAt }

// Acquire reserves the resource for duration d starting no earlier than now,
// returning the start and end of the reservation. Negative d is treated as 0.
func (r *Resource) Acquire(now Time, d Duration) (start, end Time) {
	if d < 0 {
		d = 0
	}
	start = now
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start.Add(d)
	r.freeAt = end
	r.Busy += d
	return start, end
}

// AcquireAt reserves the resource like Acquire but with an explicit earliest
// start time, which may be later than now (e.g. data not yet available).
func (r *Resource) AcquireAt(earliest Time, d Duration) (start, end Time) {
	return r.Acquire(earliest, d)
}

// Reset makes the resource free immediately and clears accounting.
func (r *Resource) Reset() { r.freeAt = 0; r.Busy = 0 }
