package core

import (
	"sync/atomic"

	"repro/internal/qos"
	"repro/internal/simtime"
)

// Service-mode glue: how the endpoint drives internal/qos.
//
// Admission gates whole transfers (the Gate's pool-pressure test). It sits
// above the verbs boundary and below the protocol handshake, so control
// traffic — eager payloads, RTS/CTS, failure notices — is never delayed and
// announce order (MPI's non-overtaking guarantee) is never perturbed:
// admission applies only to the data phase, after the RTS has been matched,
// where stalling is exactly the paper's Section 4.3.3 "stall until buffers
// are available" policy.

// admittee is what admission control decides about: a send or receive op.
type admittee interface {
	// dead reports whether the op failed while its admission was pending.
	dead() bool
	// admitted starts the op's data phase.
	admitted()
	// unpinAdmission drops the pin the op holds for as long as the admission
	// decision is unresolved.
	unpinAdmission()
}

// admission is one op's run through the admission gate: the state a parked
// transfer needs to re-evaluate pressure and to resume, kept inside the op
// record with the two functions the gate holds bound once, so admitting a
// transfer builds no closure. The op is pinned from admit until the decision
// has fully played out — the resume ran, or was abandoned — since a parked
// resume can outlive an abort and must not touch a recycled op.
type admission struct {
	ep    *Endpoint
	owner admittee
	pool  *segPool // the staging pool whose occupancy gates this transfer
	opID  uint32
	bytes int64
	t0    simtime.Time
	// parked excludes the op from the pressure snapshot's active count only
	// once it really waits (after which Gate.Parked accounts for it), so a
	// lone transfer on an idle endpoint is force-admitted rather than parked
	// forever.
	parked bool

	pressureFn func() qos.Pressure
	resumeFn   func()
}

func (a *admission) init(ep *Endpoint, owner admittee) {
	a.ep, a.owner = ep, owner
	a.pressureFn, a.resumeFn = a.pressure, a.resume
}

// pressure is the live resource snapshot admission reads: the staging pool's
// occupancy and how many transfers are still active to release it.
func (a *admission) pressure() qos.Pressure {
	ep := a.ep
	active := ep.activeSends + ep.activeRecvs - ep.gate.Parked()
	if !a.parked {
		active--
	}
	return qos.Pressure{
		FreeSlots:   a.pool.available(),
		PoolWaiters: a.pool.pendingWaiters(),
		ActiveOps:   active,
	}
}

// resume runs the op's data phase: at once when admitted, from the gate's
// drain when it was parked.
func (a *admission) resume() {
	ep := a.ep
	defer a.owner.unpinAdmission()
	if a.owner.dead() {
		return // aborted while parked; teardown owns the op now
	}
	if a.parked {
		ep.mark("qos-resume", "qos", a.opID)
		ep.span("qos parked", "qos", a.opID, a.bytes, a.t0)
		ep.qosParkHist().Observe(int64(ep.tnow().Sub(a.t0)))
	}
	a.owner.admitted()
}

// admit runs the admission state machine for one transfer's data phase:
// resume immediately on admit, park with a trace instant and a resume span
// otherwise.
func (a *admission) admit(pool *segPool, opID uint32, bytes int64) {
	ep := a.ep
	lane := ep.qosPol.ClassOf(bytes)
	a.pool, a.opID, a.bytes, a.parked, a.t0 = pool, opID, bytes, false, ep.tnow()
	switch ep.gate.Admit(lane, a.pressureFn, a.resumeFn) {
	case qos.Admit:
		if lane == qos.LaneBulk {
			atomic.AddInt64(&ep.ctr.QoSAdmitted, 1)
		}
	case qos.Park:
		a.parked = true
		atomic.AddInt64(&ep.ctr.QoSParked, 1)
		ep.mark("qos-park", "qos", opID)
	}
}

func (op *recvOp) dead() bool      { return op.failed }
func (op *recvOp) unpinAdmission() { op.ep.unpinRecv(op) }

func (op *sendOp) dead() bool      { return op.failed }
func (op *sendOp) unpinAdmission() { op.ep.unpinSend(op) }

// admitRecv gates the receiver's scheme setup (segment allocation, user
// registration, the CTS) behind admission control. Parking here delays only
// the CTS; the sender's RTS is already matched, so MPI ordering is intact.
func (ep *Endpoint) admitRecv(op *recvOp) {
	if ep.gate == nil {
		op.admitted()
		return
	}
	ep.pinRecv(op)
	op.adm.admit(ep.unpackPool, op.key.op, op.eff)
}

// admitSend gates the sender's data movement (pack, registration, descriptor
// posting) behind admission control once the CTS has arrived.
func (ep *Endpoint) admitSend(op *sendOp) {
	if ep.gate == nil {
		op.admitted()
		return
	}
	ep.pinSend(op)
	op.adm.admit(ep.packPool, op.id, op.eff)
}

// qosDrain re-evaluates parked transfers. Called wherever admission pressure
// releases: staging slots returning, transfers finishing or aborting.
func (ep *Endpoint) qosDrain() {
	if ep.gate != nil {
		ep.gate.Drain()
	}
}
