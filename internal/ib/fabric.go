package ib

import (
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/verbs"
)

// The queue-pair state machine is internal/fabric's; this package supplies
// the link pricing and keeps the names its users hold.
type (
	// HCA is one node's host channel adapter together with the node-side
	// resources the simulation accounts for: the host CPU that runs the MPI
	// library here, the adapter's send and receive ports in the Fabric.
	HCA = fabric.Node
	// QP is one end of a reliable connection.
	QP = fabric.QP
	// CQ is a completion queue.
	CQ = fabric.CQ

	// SGE, SendWR, RecvWR, Opcode and CQE alias the backend-neutral types
	// in internal/verbs.
	SGE    = verbs.SGE
	SendWR = verbs.SendWR
	RecvWR = verbs.RecvWR
	Opcode = verbs.Opcode
	CQE    = verbs.CQE
)

// Work-request opcodes.
const (
	OpSend         = verbs.OpSend
	OpRDMAWrite    = verbs.OpRDMAWrite
	OpRDMAWriteImm = verbs.OpRDMAWriteImm
	OpRDMARead     = verbs.OpRDMARead
	OpRecv         = verbs.OpRecv // completion-side only
)

// Fabric is the switched interconnect: a full crossbar (like the paper's
// InfiniScale switch) where the only contention points are each HCA's send
// and receive ports. SetTracer, SetInjector, Injector and Model come from
// the embedded kernel fabric.
type Fabric struct {
	*fabric.Fabric
	eng  *simtime.Engine
	link *link
}

// NewFabric creates a fabric on the given engine with the given cost model.
func NewFabric(eng *simtime.Engine, model Model) *Fabric {
	l := &link{}
	return &Fabric{Fabric: fabric.New("ib", model, l, fabric.Shared{}), eng: eng, link: l}
}

// Engine returns the simulation engine.
func (f *Fabric) Engine() *simtime.Engine { return f.eng }

// AddHCA attaches a node to the fabric. counters may be nil.
func (f *Fabric) AddHCA(name string, memory *mem.Memory, counters *stats.Counters) *HCA {
	f.link.ports = append(f.link.ports, ports{
		tx: simtime.NewResource(name + ".tx"),
		rx: simtime.NewResource(name + ".rx"),
	})
	return f.Attach(name, f.eng, memory, counters)
}

// NewCQ creates a completion queue on an HCA.
func NewCQ(h *HCA) *CQ { return fabric.NewCQ(h) }

// Connect creates a connected (RC) queue pair between two HCAs. Each side
// gets its own QP whose send and receive completions are delivered to the
// given CQs. A CQ may be shared among QPs.
func Connect(a, b *HCA, aSendCQ, aRecvCQ, bSendCQ, bRecvCQ *CQ) (*QP, *QP) {
	return fabric.Connect(a, b, aSendCQ, aRecvCQ, bSendCQ, bRecvCQ)
}

// ports are one adapter's two contention points.
type ports struct{ tx, rx *simtime.Resource }

// link is the kernel's pricing policy for a switched fabric: a descriptor
// occupies the initiator's send port for its NIC processing plus wire
// serialization and the responder's receive port for the serialization, one
// wire latency later; an RDMA read adds the request leg and the responder's
// turnaround. Contention on the ports (and the host CPU) is what creates —
// or destroys — the overlap the paper's schemes exploit.
type link struct {
	ports []ports // by HCA index
}

// Launch implements fabric.Pricing.
func (l *link) Launch(qp *QP, wr *SendWR, size int64, ready simtime.Time) fabric.Plan {
	h, p := qp.Node(), qp.Peer().Node()
	here, there := &l.ports[h.Index()], &l.ports[p.Index()]
	m := h.Model()
	nic := m.NICDescCost + simtime.Duration(len(wr.SGL))*m.NICSGECost
	wire := m.WireTime(size)

	if wr.Op == OpRDMARead {
		// Request to the responder, which streams the data back after its
		// turnaround; the read completes when the last byte has landed.
		reqStart, _ := here.tx.AcquireAt(ready, nic)
		respStart, respEnd := there.tx.AcquireAt(reqStart.Add(m.WireLatency+m.ReadTurnaround), m.NICDescCost+wire)
		ls, le := here.rx.AcquireAt(respStart.Add(m.WireLatency), wire)
		p.Trace(trace.LaneTx, "wire:read-resp", respStart, respEnd)
		h.Trace(trace.LaneRx, "wire:read-resp", ls, le)
		return fabric.Plan{Deliver: le}
	}

	name := "wire:write"
	if wr.Op == OpSend {
		name = "xmit:ctrl"
	}
	sendStart, sendEnd := here.tx.AcquireAt(ready, nic+wire)
	rs, re := there.rx.AcquireAt(sendStart.Add(m.WireLatency), wire)
	h.Trace(trace.LaneTx, name, sendStart, sendEnd)
	p.Trace(trace.LaneRx, name, rs, re)
	// The initiator's completion follows the ack's flight home.
	return fabric.Plan{Deliver: re, AckLag: m.WireLatency}
}

// Fault implements fabric.Pricing: the send port is occupied for the
// descriptor-processing attempt, no data crosses the wire, and the error
// completion arrives after a round trip.
func (l *link) Fault(qp *QP, wr *SendWR, ready simtime.Time) simtime.Time {
	h := qp.Node()
	m := h.Model()
	occ := m.NICDescCost + simtime.Duration(len(wr.SGL))*m.NICSGECost
	sendStart, sendEnd := l.ports[h.Index()].tx.AcquireAt(ready, occ)
	h.Trace(trace.LaneTx, "wire:fault", sendStart, sendEnd)
	return sendEnd.Add(2 * m.WireLatency)
}
