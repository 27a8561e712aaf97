// Package fabric is the one queue-pair/completion-queue state machine every
// verbs backend runs: post validation and accounting, the in-flight record
// that carries a descriptor from its post to its completion handler,
// receive credits and receiver-not-ready stalls, and CQ push/poll/handler
// dispatch. A backend is this kernel plus two policies:
//
//   - a Pricing, which reserves what a descriptor occupies on its way (a
//     link and two ports for internal/ib, initiator CPU time for
//     internal/shmfab, nothing for internal/rtfab) and says when its stages
//     happen in virtual time;
//   - an Executor, which runs a stage in the right node's execution context
//     (one shared engine for ib and shmfab; a per-node driver goroutine
//     behind an inbox for rtfab).
//
// A post travels as descriptor trains — the descriptors that cross to the
// peer in one delivery and come home in one return (QP.post cuts them) — and
// a train owns exactly one pooled flight record for its whole life. The
// record copies nothing: it holds the window of the poster's descriptor
// array the train was cut from (a single post is a train of one over the
// record's own array), steps deliver → ack → CQE dispatch through method
// values bound when it was created (so the engine is handed a ready func()
// and nothing is allocated per stage), and ends as its tail's completion
// entry, back on its node's free list when that entry's handler returns —
// or, the tail unsignaled and not failed, at the ack stage: events and
// records follow a message's posts, not its descriptors. A descriptor a fault
// injector fails moves nothing, rides in its place and completes with its
// error in posting order. A write's gather list is read at delivery — as on
// hardware, source, SGE array and descriptor array stay untouched until the
// send completion — so there is no staging copy. See DESIGN.md, "Fabric kernel".
package fabric

import (
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/verbs"
)

// Plan is a Pricing's answer for one launched descriptor.
type Plan struct {
	// Deliver is when the delivery stage runs: the payload lands at the
	// responder (send, write) or the read data lands at the initiator.
	Deliver simtime.Time
	// AckLag is how long after delivery the initiator's completion is
	// generated (an ack's flight time on a link; zero in shared memory).
	AckLag simtime.Duration
}

// Pricing reserves the resources one descriptor occupies between the moment
// the host finished posting it (ready) and its completion, and places its
// stages in virtual time. size is the payload length in bytes.
type Pricing interface {
	// Launch prices a descriptor that will move its payload.
	Launch(qp *QP, wr *verbs.SendWR, size int64, ready simtime.Time) Plan
	// Fault prices a descriptor the adapter consumes but fails before any
	// payload moves, and returns when the initiator sees the error
	// completion.
	Fault(qp *QP, wr *verbs.SendWR, ready simtime.Time) simtime.Time
}

// Executor runs kernel stages in a node's execution context.
type Executor interface {
	// Deliver runs fn in dst's context at virtual time t.
	Deliver(dst *Node, t simtime.Time, fn func())
	// Return runs fn in dst's context as soon as it can: inline where all
	// nodes share one engine, so no event is added or reordered.
	Return(dst *Node, fn func())
	// Trains says where a descriptor train (QP.post) may be cut. An executor
	// that delivers in virtual time says false: a descriptor somebody can
	// observe must land at its own delivery time, so it ends the train it
	// rides in. One whose deliveries ignore virtual time says true, and a
	// whole post (up to a channel send) crosses to the peer as one unit and
	// comes back as one.
	Trains() bool
	// Stamp maps a virtual-time interval onto the trace's time base.
	Stamp(start, end simtime.Time) (simtime.Time, simtime.Time)
}

// Shared is the Executor of a fabric whose nodes all run on one engine:
// a delivery is an event at its virtual time, a return is a plain call.
type Shared struct{}

// Deliver schedules fn on the shared engine at t.
func (Shared) Deliver(dst *Node, t simtime.Time, fn func()) { dst.eng.At(t, fn) }

// Return calls fn: the caller already runs in the shared context.
func (Shared) Return(_ *Node, fn func()) { fn() }

// Trains reports false: a train ends at each descriptor whose delivery
// time somebody can observe.
func (Shared) Trains() bool { return false }

// Stamp is the identity: traces are in virtual time.
func (Shared) Stamp(start, end simtime.Time) (simtime.Time, simtime.Time) { return start, end }

// Fabric is a set of nodes under one cost model and one pair of policies.
type Fabric struct {
	name     string // backend name, the prefix of every error message
	model    verbs.Model
	pricing  Pricing
	exec     Executor
	nodes    []*Node
	tracer   *trace.Recorder
	injector *fault.Injector
	sealed   bool
}

// New creates a fabric. name prefixes error messages ("ib", "shmfab",
// "rtfab").
func New(name string, model verbs.Model, pricing Pricing, exec Executor) *Fabric {
	if model.MaxSGE <= 0 {
		model.MaxSGE = 1
	}
	return &Fabric{name: name, model: model, pricing: pricing, exec: exec}
}

// SetTracer attaches an activity recorder; every node's CPU (and, where the
// pricing has them, port) intervals are recorded into it. Pass nil to
// disable (the default).
func (f *Fabric) SetTracer(r *trace.Recorder) { f.tracer = r }

// SetInjector attaches a fault injector. Injection covers RDMA descriptors
// (post failures, drawn once per post call; error and delayed completions,
// drawn per descriptor) on every node;
// channel-semantics sends are exempt so control traffic keeps the
// transport's reliable ordering. Pass nil to disable (the default).
func (f *Fabric) SetInjector(in *fault.Injector) { f.injector = in }

// Injector returns the attached fault injector, or nil.
func (f *Fabric) Injector() *fault.Injector { return f.injector }

// Model returns the fabric's cost model.
func (f *Fabric) Model() *verbs.Model { return &f.model }

// Nodes returns the attached nodes in attach order.
func (f *Fabric) Nodes() []*Node { return f.nodes }

// Seal forbids further Attach and Connect calls; a backend whose nodes run
// concurrently seals the topology before it starts them.
func (f *Fabric) Seal() { f.sealed = true }

// Node is one rank's adapter and host: its memory, its host CPU, its
// engine, and the free list its flight records live on. It implements
// verbs.HCA.
type Node struct {
	fab      *Fabric
	idx      int
	name     string
	mem      *mem.Memory
	eng      *simtime.Engine
	cpu      *simtime.Resource
	counters *stats.Counters
	nextQP   int

	// Owned by this node's context: the flight records, and the buffers
	// channel-send payloads are copied into (flight.go).
	flights  mem.FreeList[flight]
	payloads mem.BufPool
}

// Attach adds a node running on eng. counters may be nil.
func (f *Fabric) Attach(name string, eng *simtime.Engine, memory *mem.Memory, counters *stats.Counters) *Node {
	if f.sealed {
		panic(f.name + ": Attach after the fabric started")
	}
	if counters == nil {
		counters = &stats.Counters{}
	}
	n := &Node{
		fab:      f,
		idx:      len(f.nodes),
		name:     name,
		mem:      memory,
		eng:      eng,
		cpu:      simtime.NewResource(name + ".cpu"),
		counters: counters,
	}
	f.nodes = append(f.nodes, n)
	return n
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Index returns the node's position in the fabric.
func (n *Node) Index() int { return n.idx }

// Mem returns the node's memory.
func (n *Node) Mem() *mem.Memory { return n.mem }

// CPU returns the node's host CPU resource.
func (n *Node) CPU() *simtime.Resource { return n.cpu }

// Counters returns the node's statistics counters.
func (n *Node) Counters() *stats.Counters { return n.counters }

// Model returns the fabric cost model.
func (n *Node) Model() *verbs.Model { return &n.fab.model }

// Injector returns the fabric's fault injector, or nil when fault injection
// is off.
func (n *Node) Injector() *fault.Injector { return n.fab.injector }

// Engine returns the engine this node's work runs on.
func (n *Node) Engine() *simtime.Engine { return n.eng }

// ChargeCPU reserves the host CPU for d starting no earlier than now and
// returns the time the work finishes.
func (n *Node) ChargeCPU(d simtime.Duration) simtime.Time {
	return n.ChargeCPUNamed(d, "host")
}

// ChargeCPUNamed is ChargeCPU with an activity label for the tracer.
func (n *Node) ChargeCPUNamed(d simtime.Duration, name string) simtime.Time {
	start, end := n.cpu.Acquire(n.eng.Now(), d)
	n.Trace(trace.LaneCPU, name, start, end)
	return end
}

// Trace records an activity interval of this node when tracing is on.
func (n *Node) Trace(lane trace.Lane, name string, start, end simtime.Time) {
	if t := n.fab.tracer; t != nil {
		start, end = n.fab.exec.Stamp(start, end)
		t.Add(n.name, lane, name, start, end)
	}
}

// Flights reports how many flight records this node has handed out and not
// yet taken back, and how many sit on its free list. With nothing in flight
// live is zero: every record ever made is back on the list.
func (n *Node) Flights() (live, free int) { return n.flights.Live(), len(n.flights.Parked()) }

// NewCQ creates a completion queue on this node (verbs.HCA).
func (n *Node) NewCQ() verbs.CQ { return NewCQ(n) }

// Connect implements verbs.HCA: it creates a connected (RC) queue pair
// between this node and peer, which must be a node of the same fabric.
func (n *Node) Connect(peer verbs.HCA, sendCQ, recvCQ, peerSendCQ, peerRecvCQ verbs.CQ) (verbs.QP, verbs.QP) {
	p, ok := peer.(*Node)
	if !ok {
		panic(n.fab.name + ": Connect to a node of another backend")
	}
	return Connect(n, p, sendCQ.(*CQ), recvCQ.(*CQ), peerSendCQ.(*CQ), peerRecvCQ.(*CQ))
}

// Connect creates a connected (RC) queue pair between two nodes. Each side
// gets its own QP whose send and receive completions are delivered to the
// given CQs. A CQ may be shared among QPs.
func Connect(a, b *Node, aSendCQ, aRecvCQ, bSendCQ, bRecvCQ *CQ) (*QP, *QP) {
	if a.fab != b.fab {
		panic(a.fab.name + ": Connect across fabrics")
	}
	if a.fab.sealed {
		panic(a.fab.name + ": Connect after the fabric started")
	}
	qa := &QP{node: a, num: a.nextQP, sendCQ: aSendCQ, recvCQ: aRecvCQ}
	a.nextQP++
	qb := &QP{node: b, num: b.nextQP, sendCQ: bSendCQ, recvCQ: bRecvCQ}
	b.nextQP++
	qa.peer, qb.peer = qb, qa
	return qa, qb
}

// Compile-time checks that the kernel satisfies the verbs contract.
var (
	_ verbs.HCA = (*Node)(nil)
	_ verbs.QP  = (*QP)(nil)
	_ verbs.CQ  = (*CQ)(nil)
)
