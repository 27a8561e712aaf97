package mpi

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mem"
)

// Comm is a communicator: an ordered group of ranks with an isolated
// matching context, the MPI_Comm analogue. Point-to-point operations address
// peers by *communicator rank*; messages sent on one communicator never
// match receives on another, even with identical tags.
type Comm struct {
	p       *Proc
	ctx     int   // point-to-point matching context
	collCtx int   // hidden context for collective traffic (as real MPI uses)
	ranks   []int // comm rank -> world rank
	myRank  int

	// reqs is the request list of the collective in progress. A collective
	// blocks its caller until it returns, so one scratch list per
	// communicator serves them all without allocating per call.
	reqs []*core.Request
}

// World returns the communicator containing every rank (MPI_COMM_WORLD).
func (p *Proc) World() *Comm {
	if p.worldComm == nil {
		ranks := make([]int, p.w.Size())
		for i := range ranks {
			ranks[i] = i
		}
		p.worldComm = &Comm{p: p, ctx: 0, collCtx: 1, ranks: ranks, myRank: p.ep.Rank()}
	}
	return p.worldComm
}

// P returns the calling process's Proc.
func (c *Comm) P() *Proc { return c.p }

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// WorldRank translates a communicator rank to its world rank.
func (c *Comm) WorldRank(rank int) int { return c.ranks[rank] }

// CommRank translates a world rank to its rank within the communicator,
// or -1 if the rank is not a member.
func (c *Comm) CommRank(world int) int {
	for i, r := range c.ranks {
		if r == world {
			return i
		}
	}
	return -1
}

func (c *Comm) worldOf(rank int) int {
	if rank == core.AnySource {
		return core.AnySource
	}
	return c.ranks[rank]
}

// Send sends within the communicator (dst is a comm rank). Like Proc.Send
// it releases its request when it completes.
func (c *Comm) Send(buf mem.Addr, count int, dt *datatype.Type, dst, tag int) error {
	return c.p.ep.SendCtx(c.p.sp, c.ctx, buf, count, dt, c.ranks[dst], tag)
}

// Recv receives within the communicator (src is a comm rank or AnySource)
// and returns the message's envelope, its Source a world rank. Like
// Proc.Recv it releases its request when it completes.
func (c *Comm) Recv(buf mem.Addr, count int, dt *datatype.Type, src, tag int) (core.Status, error) {
	return c.p.ep.RecvCtx(c.p.sp, c.ctx, buf, count, dt, c.worldOf(src), tag)
}

// Isend starts a nonblocking send within the communicator.
func (c *Comm) Isend(buf mem.Addr, count int, dt *datatype.Type, dst, tag int) *core.Request {
	return c.p.ep.IsendCtx(c.ctx, buf, count, dt, c.ranks[dst], tag)
}

// Irecv starts a nonblocking receive within the communicator.
func (c *Comm) Irecv(buf mem.Addr, count int, dt *datatype.Type, src, tag int) *core.Request {
	return c.p.ep.IrecvCtx(c.ctx, buf, count, dt, c.worldOf(src), tag)
}

// Sendrecv runs a send and a receive concurrently within the communicator.
func (c *Comm) Sendrecv(
	sbuf mem.Addr, scount int, stype *datatype.Type, dst, stag int,
	rbuf mem.Addr, rcount int, rtype *datatype.Type, src, rtag int,
) error {
	rr := c.Irecv(rbuf, rcount, rtype, src, rtag)
	sr := c.Isend(sbuf, scount, stype, dst, stag)
	return c.p.Wait(rr, sr)
}

// Probe blocks until a matching message arrives on this communicator.
func (c *Comm) Probe(src, tag int) core.Status {
	return c.p.ep.ProbeCtx(c.p.sp, c.ctx, c.worldOf(src), tag)
}

// Iprobe checks for a matching message on this communicator.
func (c *Comm) Iprobe(src, tag int) (core.Status, bool) {
	return c.p.ep.IprobeCtx(c.ctx, c.worldOf(src), tag)
}

// Collective operations exchange their internal messages in the hidden
// collCtx so that user receives and probes (including wildcards) never see
// them. Their requests are released the moment the collective has read its
// outcome, as every wait releases them: a warm collective allocates no
// request handles at all.

func (c *Comm) collIsend(buf mem.Addr, count int, dt *datatype.Type, dst, tag int) *core.Request {
	return c.p.ep.IsendCtx(c.collCtx, buf, count, dt, c.ranks[dst], tag)
}

func (c *Comm) collIrecv(buf mem.Addr, count int, dt *datatype.Type, src, tag int) *core.Request {
	return c.p.ep.IrecvCtx(c.collCtx, buf, count, dt, c.worldOf(src), tag)
}

func (c *Comm) collSend(buf mem.Addr, count int, dt *datatype.Type, dst, tag int) error {
	return c.collWait(append(c.reqs[:0], c.collIsend(buf, count, dt, dst, tag)))
}

func (c *Comm) collRecv(buf mem.Addr, count int, dt *datatype.Type, src, tag int) error {
	return c.collWait(append(c.reqs[:0], c.collIrecv(buf, count, dt, src, tag)))
}

func (c *Comm) collSendrecv(
	sbuf mem.Addr, scount int, stype *datatype.Type, dst, stag int,
	rbuf mem.Addr, rcount int, rtype *datatype.Type, src, rtag int,
) error {
	return c.collWait(append(c.reqs[:0],
		c.collIrecv(rbuf, rcount, rtype, src, rtag),
		c.collIsend(sbuf, scount, stype, dst, stag)))
}

// collWait completes a collective's requests — reqs is the communicator's
// scratch list, grown by the caller — releases them, and returns the first
// error in list order.
func (c *Comm) collWait(reqs []*core.Request) error {
	c.reqs = reqs[:0]
	return core.WaitRelease(c.p.sp, reqs...)
}

// Undefined is the MPI_UNDEFINED color: the caller joins no new communicator.
const Undefined = -1

// Split partitions the communicator (MPI_Comm_split): ranks passing the same
// color form a new communicator, ordered by (key, parent rank). A color of
// Undefined returns nil. Split is collective: every member must call it.
func (c *Comm) Split(color, key int) (*Comm, error) {
	n := c.Size()
	// Allgather (color, key, nextCtx) over the parent communicator.
	const recSize = 12
	sbuf := c.p.Mem().MustAlloc(recSize)
	defer c.p.Mem().Free(sbuf)
	rbuf := c.p.Mem().MustAlloc(int64(n) * recSize)
	defer c.p.Mem().Free(rbuf)
	b := c.p.Mem().Bytes(sbuf, recSize)
	binary.LittleEndian.PutUint32(b[0:], uint32(int32(color)))
	binary.LittleEndian.PutUint32(b[4:], uint32(int32(key)))
	binary.LittleEndian.PutUint32(b[8:], uint32(c.p.nextCtx))
	if err := c.Allgather(sbuf, recSize, datatype.Byte, rbuf, recSize, datatype.Byte); err != nil {
		return nil, fmt.Errorf("split: %w", err)
	}

	type member struct {
		key      int
		commRank int
	}
	var members []member
	maxCtx := 0
	all := c.p.Mem().Bytes(rbuf, int64(n)*recSize)
	for i := 0; i < n; i++ {
		rec := all[i*recSize:]
		col := int(int32(binary.LittleEndian.Uint32(rec[0:])))
		k := int(int32(binary.LittleEndian.Uint32(rec[4:])))
		ctr := int(int32(binary.LittleEndian.Uint32(rec[8:])))
		if ctr > maxCtx {
			maxCtx = ctr
		}
		if col == color {
			members = append(members, member{key: k, commRank: i})
		}
	}
	// Everyone advances the context counter identically, whether or not
	// they join a group, so future Splits stay in agreement.
	newCtx := maxCtx
	c.p.nextCtx = newCtx + 1
	if color == Undefined {
		return nil, nil
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].commRank < members[j].commRank
	})
	nc := &Comm{p: c.p, ctx: 2 * newCtx, collCtx: 2*newCtx + 1}
	for i, m := range members {
		nc.ranks = append(nc.ranks, c.ranks[m.commRank])
		if m.commRank == c.myRank {
			nc.myRank = i
		}
	}
	return nc, nil
}

// Dup duplicates the communicator with a fresh context (MPI_Comm_dup):
// same group, isolated matching. Collective.
func (c *Comm) Dup() (*Comm, error) {
	nc, err := c.Split(0, c.myRank)
	if err != nil {
		return nil, err
	}
	return nc, nil
}
