// Package shmfab is the shared-memory intra-node backend of the verbs
// contract: the third fabric next to the discrete-event simulator
// (internal/ib) and the real-time concurrent fabric (internal/rtfab).
//
// It models ranks co-resident on one node, communicating through a single
// shared memory arena (mem.Arena) partitioned per rank. The verbs semantics
// are unchanged — registration checks, receive credits, completion queues,
// fault injection — but the transport is: an RDMA write or read is a direct
// copy() between partitions of the same mapping, priced purely as host CPU
// time by the cost model. There is no NIC, no per-descriptor wire
// serialization and no link latency, so the Model a shm fabric runs carries
// zero link terms (DefaultModel) and scheme crossover points land in
// genuinely different places than on the wire backends: schemes that pay
// copies to save descriptors lose their advantage, and schemes that pay
// descriptors to save copies gain one.
//
// Like internal/ib, the fabric is deterministic: one engine drives every
// node, all costs come from the model, and runs are bit-for-bit
// reproducible — which is what lets the zoo guard pin shm benchmark rows
// byte-for-byte next to the simulator's.
package shmfab

import (
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/verbs"
)

// The queue-pair state machine is internal/fabric's; this package supplies
// the arena placement and the CPU-copy pricing, and keeps the names its
// users hold.
type (
	// Node is one rank's view of the shared-memory fabric: its arena
	// partition and its host CPU. It satisfies verbs.HCA so protocol code
	// cannot tell it from an adapter — except through the cost profile.
	Node = fabric.Node
	// QP is one end of a connection between two partitions of the arena.
	QP = fabric.QP
	// CQ is a completion queue.
	CQ = fabric.CQ

	// Model aliases the backend-neutral cost model.
	Model = verbs.Model
	// SGE is a scatter/gather element.
	SGE = verbs.SGE
	// SendWR is a send-queue work request.
	SendWR = verbs.SendWR
	// RecvWR is a receive credit.
	RecvWR = verbs.RecvWR
	// Opcode identifies a work-request operation.
	Opcode = verbs.Opcode
	// CQE is a completion queue entry.
	CQE = verbs.CQE
)

// Work-request opcodes.
const (
	// OpSend is the channel-semantics send.
	OpSend = verbs.OpSend
	// OpRDMAWrite is the one-sided write (a cross-partition copy here).
	OpRDMAWrite = verbs.OpRDMAWrite
	// OpRDMAWriteImm is a write that also consumes a remote receive credit.
	OpRDMAWriteImm = verbs.OpRDMAWriteImm
	// OpRDMARead is the one-sided read.
	OpRDMARead = verbs.OpRDMARead
	// OpRecv marks receive-side completions.
	OpRecv = verbs.OpRecv
)

// Fabric is one node's worth of ranks sharing a memory arena. The only
// contention point is each rank's host CPU — there are no ports. SetTracer,
// SetInjector, Injector and Model come from the embedded kernel fabric.
type Fabric struct {
	*fabric.Fabric
	eng   *simtime.Engine
	arena *mem.Arena
}

// New creates a shared-memory fabric on the given engine: one arena of ranks
// partitions of perRankBytes each. Nodes are attached with AddNode, which
// hands out the partitions in order.
func New(eng *simtime.Engine, model Model, ranks int, perRankBytes int64) *Fabric {
	return &Fabric{
		Fabric: fabric.New("shmfab", model, cpuCopy{}, fabric.Shared{}),
		eng:    eng,
		arena:  mem.NewArena(ranks, perRankBytes),
	}
}

// Engine returns the shared simulation engine.
func (f *Fabric) Engine() *simtime.Engine { return f.eng }

// Arena returns the shared backing store (for partition-layout tests).
func (f *Fabric) Arena() *mem.Arena { return f.arena }

// AddNode attaches the next rank to the fabric, carving its partition out of
// the shared arena. counters may be nil.
func (f *Fabric) AddNode(name string, counters *stats.Counters) *Node {
	return f.Attach(name, f.eng, f.arena.Partition(len(f.Nodes()), name), counters)
}

// NewCQ creates a completion queue on a node.
func NewCQ(n *Node) *CQ { return fabric.NewCQ(n) }

// Connect creates a connected queue pair between two nodes. Each side gets
// its own QP whose send and receive completions are delivered to the given
// CQs. A CQ may be shared among QPs.
func Connect(a, b *Node, aSendCQ, aRecvCQ, bSendCQ, bRecvCQ *CQ) (*QP, *QP) {
	return fabric.Connect(a, b, aSendCQ, aRecvCQ, bSendCQ, bRecvCQ)
}

// cpuCopy is the kernel's pricing policy for shared memory. There is no NIC
// and no wire: the initiator's CPU performs the gather and the
// cross-partition copy (or pulls straight out of the peer's partition, for
// a read — no responder turnaround, no round trip), so a whole transfer is
// one CopyTime charge on that CPU and its completion is immediate — the
// backend's defining property.
type cpuCopy struct{}

// Launch implements fabric.Pricing.
func (cpuCopy) Launch(qp *QP, wr *SendWR, size int64, ready simtime.Time) fabric.Plan {
	n := qp.Node()
	blocks, name := len(wr.SGL), "shm:write"
	switch wr.Op {
	case OpSend:
		// Control message: copied into the peer's mailbox by the sender.
		blocks, name = 1, "shm:ctrl"
	case OpRDMARead:
		name = "shm:read"
	}
	start, end := n.CPU().AcquireAt(ready, n.Model().CopyTime(size, blocks))
	n.Trace(trace.LaneCPU, name, start, end)
	return fabric.Plan{Deliver: end}
}

// Fault implements fabric.Pricing: the descriptor is consumed but the copy
// never runs, so the error completion is due as soon as it was posted.
func (cpuCopy) Fault(_ *QP, _ *SendWR, ready simtime.Time) simtime.Time { return ready }
