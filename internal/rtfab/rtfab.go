// Package rtfab is the real-time concurrent implementation of the verbs
// contract in internal/verbs, the counterpart to the deterministic simulator
// in internal/ib. The queue-pair state machine is internal/fabric's; this
// package is the executor that runs its stages on real goroutines.
//
// Each node (rank) is driven by its own goroutine. A node owns a private
// simtime.Engine used purely as a serialized executor: process coroutines,
// signals and CPU-cost accounting from the protocol layers run against it
// unchanged, but nothing sleeps on the wall clock — the node's virtual clock
// only orders its local events. Real concurrency exists only *between*
// nodes: every cross-node interaction (message arrival, RDMA execution,
// completion acks) is a closure enqueued into the target node's FIFO inbox
// and executed by that node's driver goroutine.
//
// The backend's memory model is single-owner hand-over: a node's
// registration table and queue-pair state are touched only on its own
// driver, and an in-flight descriptor (with the registered memory it names)
// belongs to whichever driver the inbox last handed it to. RDMA operations
// really move bytes, and the responder's driver moves them: it checks the
// remote key against its own table, then copies straight between the two
// arenas — out of the initiator's gather list for a write, into its scatter
// list for a read. That is safe for the reason real RDMA is: the verbs
// contract keeps those buffers untouched until the send completion, and the
// inbox hand-offs order the initiator's accesses before and after the
// responder's. Inbox FIFO order per sender preserves the transport's
// non-overtaking guarantee, which the protocol layers' matching rules
// require.
//
// Termination uses quiescence detection rather than an event-queue drain:
// the fabric counts in-flight closures and per-node idleness, and Run
// returns once every driver is parked with nothing queued (or errors on a
// watchdog timeout or with blocked processes — the concurrent analogue of
// the simulator's deadlock report).
package rtfab

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/verbs"
)

// DefaultTimeout is the watchdog budget Run uses when given a zero timeout.
const DefaultTimeout = 30 * time.Second

// inbox is an unbounded FIFO closure queue with a one-slot wake channel.
// It must be unbounded: two drivers streaming RDMA traffic into each other
// ack every delivery back to the initiator, so with bounded queues each
// driver can block enqueueing into the other's full inbox — a distributed
// deadlock that has nothing to do with the protocol under test. Enqueue
// therefore never blocks; backpressure comes from the schemes' own credit
// and completion accounting, and the watchdog bounds true wedges.
type inbox struct {
	mu   sync.Mutex
	q    fabric.Ring[func()]
	wake chan struct{}
}

func newInbox() *inbox { return &inbox{wake: make(chan struct{}, 1)} }

// put appends fn and nudges the (single) consumer. Per-sender FIFO order is
// what the transport's non-overtaking guarantee rests on.
func (b *inbox) put(fn func()) {
	b.mu.Lock()
	b.q.Push(fn)
	b.mu.Unlock()
	b.nudge()
}

// nudge leaves a wake token unless one is already waiting.
func (b *inbox) nudge() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// take pops the oldest closure, or returns false if the queue is empty.
func (b *inbox) take() (func(), bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.q.Len() == 0 {
		return nil, false
	}
	return b.q.Pop(), true
}

func (b *inbox) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.q.Len()
}

// The queue-pair state machine is internal/fabric's; this package is its
// executor for nodes that really run concurrently.
type (
	// Node is one rank's HCA and host: a private engine, a memory arena, and
	// a driver goroutine that serializes all of the node's work.
	Node = fabric.Node
	// QP is one end of a reliable connection.
	QP = fabric.QP
	// CQ is a completion queue.
	CQ = fabric.CQ
)

// Fabric is a real-time fabric: a set of nodes exchanging work over
// goroutines and channels. Create nodes and connections first, then Run.
// SetTracer, SetInjector, Injector and Model come from the embedded kernel
// fabric; the injector must be concurrency-safe (fault.Injector is), and
// traced intervals carry wall-clock start stamps (relative to the fabric's
// construction, see WallClock) with the virtual CPU cost as their length —
// real concurrency across nodes, modeled cost per activity.
type Fabric struct {
	*fabric.Fabric
	drivers []*driver // by node index
	epoch   time.Time

	started bool
	quit    atomic.Bool // set before Run wakes every driver to stop it
	wg      sync.WaitGroup

	// inflight counts enqueued-but-not-yet-executed cross-node closures;
	// activity counts dequeues. Together with the per-node idle flags they
	// implement the quiescence check in awaitQuiesce.
	inflight atomic.Int64
	activity atomic.Int64
}

// driver is the goroutine side of one node: the inbox other nodes hand it
// work through, and whether it is parked.
type driver struct {
	fab   *Fabric
	node  *Node
	inbox *inbox
	idle  atomic.Bool
}

// New creates a fabric with the given cost model (used for structural limits
// and host-side accounting; timing is the wall clock).
func New(model verbs.Model) *Fabric {
	f := &Fabric{epoch: time.Now()}
	f.Fabric = fabric.New("rtfab", model, unpriced{}, (*hops)(f))
	return f
}

// WallClock returns nanoseconds of real time since the fabric was created,
// the timestamp base for traces and histograms on this backend. Safe to call
// from any goroutine.
func (f *Fabric) WallClock() simtime.Time {
	return simtime.Time(time.Since(f.epoch))
}

// AddNode attaches a node with a private engine — the serialized execution
// context all of the node's protocol work runs in. counters may be nil. Must
// be called before Run.
func (f *Fabric) AddNode(name string, memory *mem.Memory, counters *stats.Counters) *Node {
	n := f.Attach(name, simtime.NewEngine(), memory, counters)
	f.drivers = append(f.drivers, &driver{fab: f, node: n, inbox: newInbox()})
	return n
}

// unpriced is the kernel's pricing policy when timing is the wall clock:
// nothing is reserved, every stage is due at once. (Posting still charges
// the node's virtual CPU in the kernel, which orders host-side steps
// exactly as on the simulator without consuming wall time.)
type unpriced struct{}

// Launch implements fabric.Pricing.
func (unpriced) Launch(_ *QP, _ *verbs.SendWR, _ int64, ready simtime.Time) fabric.Plan {
	return fabric.Plan{Deliver: ready}
}

// Fault implements fabric.Pricing: the error completion is asynchronous but
// immediate.
func (unpriced) Fault(qp *QP, _ *verbs.SendWR, _ simtime.Time) simtime.Time {
	return qp.Node().Engine().Now()
}

// hops is the kernel's executor over the fabric's inboxes: every stage that
// changes node is a closure handed to the target's driver — the payload is
// moved and registration is checked on the responder's driver, the
// completion is pushed on the initiator's. FIFO order per sender gives the
// transport's non-overtaking guarantee. The closures are the kernel's
// pre-bound stage methods, so a hop allocates nothing.
type hops Fabric

// Deliver implements fabric.Executor; the virtual time is not used.
func (h *hops) Deliver(dst *Node, _ simtime.Time, fn func()) { (*Fabric)(h).exec(dst, fn) }

// Return implements fabric.Executor.
func (h *hops) Return(dst *Node, fn func()) { (*Fabric)(h).exec(dst, fn) }

// Trains implements fabric.Executor: a fault-free post crosses the node
// boundary as ONE delivery plus ONE ack instead of a pair per descriptor —
// the real-time analogue of the simulator's per-entry list-post discount,
// and where batching buys its wall-clock win.
func (h *hops) Trains() bool { return true }

// Stamp implements fabric.Executor: wall-clock start, virtual length.
func (h *hops) Stamp(start, end simtime.Time) (simtime.Time, simtime.Time) {
	at := (*Fabric)(h).WallClock()
	return at, at + (end - start)
}

// exec enqueues fn for execution on n's driver goroutine. FIFO per sender;
// never blocks (see inbox).
func (f *Fabric) exec(n *Node, fn func()) {
	f.inflight.Add(1)
	f.drivers[n.Index()].inbox.put(fn)
}

// drive is the node's driver loop: drain the private engine and the inbox,
// then block for cross-node work or shutdown.
func (d *driver) drive() {
	defer d.fab.wg.Done()
	eng := d.node.Engine()
	for {
		for eng.Step() {
		}
		if fn, ok := d.inbox.take(); ok {
			d.fab.activity.Add(1)
			fn()
			d.fab.inflight.Add(-1)
			continue
		}
		d.idle.Store(true)
		// Recheck after publishing idleness: a put between the take above and
		// the Store would otherwise only be noticed via its wake token.
		if fn, ok := d.inbox.take(); ok {
			d.fab.activity.Add(1)
			d.idle.Store(false)
			fn()
			d.fab.inflight.Add(-1)
			continue
		}
		// One channel, so a park takes one sudog, not the two of a select.
		<-d.inbox.wake
		if d.fab.quit.Load() {
			return
		}
		d.fab.activity.Add(1)
		d.idle.Store(false)
	}
}

// Run starts every node's driver, waits until the fabric quiesces (all
// drivers idle, no closures in flight, no engine events pending), then stops
// the drivers and joins them. A zero timeout means DefaultTimeout. It
// returns an error if the watchdog expires first, or if quiescence is
// reached while spawned processes are still blocked (a distributed
// deadlock). Run may only be called once.
func (f *Fabric) Run(timeout time.Duration) error {
	if f.started {
		panic("rtfab: Run called twice")
	}
	f.started = true
	f.Seal()
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	primeSudogs()
	for _, d := range f.drivers {
		f.wg.Add(1)
		go d.drive()
	}
	err := f.awaitQuiesce(time.Now().Add(timeout))
	f.quit.Store(true)
	for _, d := range f.drivers {
		d.inbox.nudge()
	}
	f.wg.Wait()
	if err != nil {
		return err
	}
	var blocked []string
	for _, n := range f.Nodes() {
		for _, name := range n.Engine().Blocked() {
			blocked = append(blocked, n.Name()+"/"+name)
		}
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		return fmt.Errorf("rtfab: deadlock: blocked processes: %s",
			strings.Join(blocked, ", "))
	}
	return nil
}

// primeSudogs fills the per-P caches of sudogs, the records a goroutine
// parks on a channel or a contended lock with, before the drivers start. Go
// 1.24 keeps up to 128 per P and passes overflow to a central list that every
// collection drops (runtime/proc.go acquireSudog, releaseSudog; mgc.go
// clearpools), so a driver parking after a collection on a drained P would
// allocate mid-run. Parking many goroutines at once makes the sudogs; their
// release leaves them in per-P caches, which a collection keeps.
func primeSudogs() {
	const perP = 256 // two caches' worth per P
	n := perP * runtime.GOMAXPROCS(0)
	var parked, done sync.WaitGroup
	parked.Add(n)
	done.Add(n)
	gate := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() {
			parked.Done()
			<-gate
			done.Done()
		}()
	}
	parked.Wait()
	close(gate)
	done.Wait()
}

// awaitQuiesce polls until the fabric is quiescent or the deadline passes.
//
// Soundness: a node enqueues work only while running (idle=false), inflight
// is incremented before enqueue and decremented after execution, and every
// dequeue bumps activity before clearing idle. If two consecutive
// observations see inflight==0 and all nodes idle with no dequeue between
// them (activity unchanged), then no closure is queued or executing and no
// driver can create one — the fabric is quiescent.
func (f *Fabric) awaitQuiesce(deadline time.Time) error {
	for {
		a := f.activity.Load()
		if f.inflight.Load() == 0 && f.allIdle() &&
			f.activity.Load() == a && f.inflight.Load() == 0 && f.allIdle() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rtfab: watchdog timeout: %s", f.debugState())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (f *Fabric) allIdle() bool {
	for _, d := range f.drivers {
		if !d.idle.Load() {
			return false
		}
	}
	return true
}

// debugState summarizes fabric state for the watchdog error.
func (f *Fabric) debugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "inflight=%d", f.inflight.Load())
	for _, d := range f.drivers {
		fmt.Fprintf(&b, " %s(idle=%v queued=%d)", d.node.Name(), d.idle.Load(), d.inbox.len())
	}
	return b.String()
}
