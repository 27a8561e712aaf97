package mpi

import (
	"fmt"

	"repro/internal/datatype"
	"repro/internal/mem"
)

// Collective operations. All are implemented over point-to-point datatype
// communication (as MPICH's are), so they inherit whatever transfer scheme
// the world is configured with — which is exactly how the paper's
// MPI_Alltoall experiment (Section 8.3) benefits from the new schemes.

// Internal tag space for collectives, outside the user range.
const (
	tagBarrier = 1<<30 + iota
	tagBcast
	tagGather
	tagScatter
	tagAllgather
	tagAlltoall
	tagReduce
	tagScan
)

func (c *Comm) offset(buf mem.Addr, dt *datatype.Type, count, i int) mem.Addr {
	return mem.Addr(int64(buf) + int64(i)*int64(count)*dt.Extent())
}

// Barrier synchronizes all ranks (dissemination algorithm).
func (c *Comm) Barrier() error {
	n := c.Size()
	if n == 1 {
		return nil
	}
	tok := c.p.Mem().MustAlloc(8)
	defer c.p.Mem().Free(tok)
	for k := 1; k < n; k <<= 1 {
		dst := (c.Rank() + k) % n
		src := (c.Rank() - k + n) % n
		if err := c.collSendrecv(tok, 1, datatype.Byte, dst, tagBarrier,
			tok, 1, datatype.Byte, src, tagBarrier); err != nil {
			return fmt.Errorf("barrier: %w", err)
		}
	}
	return nil
}

// Bcast broadcasts (buf, count, dt) from root (binomial tree).
func (c *Comm) Bcast(buf mem.Addr, count int, dt *datatype.Type, root int) error {
	n := c.Size()
	if n == 1 {
		return nil
	}
	rel := (c.Rank() - root + n) % n
	// Receive from the parent (the rank differing at my lowest set bit).
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := ((rel ^ mask) + root) % n
			if err := c.collRecv(buf, count, dt, parent, tagBcast); err != nil {
				return fmt.Errorf("bcast recv: %w", err)
			}
			break
		}
		mask <<= 1
	}
	// Forward to children at every bit below the receive bit.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			child := (rel + mask + root) % n
			if err := c.collSend(buf, count, dt, child, tagBcast); err != nil {
				return fmt.Errorf("bcast send: %w", err)
			}
		}
	}
	return nil
}

// Gather collects each rank's (sbuf, scount, stype) into root's rbuf, laid
// out as Size() consecutive (rcount, rtype) messages.
func (c *Comm) Gather(sbuf mem.Addr, scount int, stype *datatype.Type,
	rbuf mem.Addr, rcount int, rtype *datatype.Type, root int) error {
	n := c.Size()
	if c.Rank() != root {
		return c.collSend(sbuf, scount, stype, root, tagGather)
	}
	reqs := c.reqs[:0]
	for i := 0; i < n; i++ {
		dst := c.offset(rbuf, rtype, rcount, i)
		if i == root {
			reqs = append(reqs, c.collIrecv(dst, rcount, rtype, root, tagGather))
			reqs = append(reqs, c.collIsend(sbuf, scount, stype, root, tagGather))
			continue
		}
		reqs = append(reqs, c.collIrecv(dst, rcount, rtype, i, tagGather))
	}
	return c.collWait(reqs)
}

// Scatter distributes root's sbuf (Size() consecutive (scount, stype)
// messages) into each rank's (rbuf, rcount, rtype).
func (c *Comm) Scatter(sbuf mem.Addr, scount int, stype *datatype.Type,
	rbuf mem.Addr, rcount int, rtype *datatype.Type, root int) error {
	n := c.Size()
	if c.Rank() != root {
		return c.collRecv(rbuf, rcount, rtype, root, tagScatter)
	}
	reqs := c.reqs[:0]
	reqs = append(reqs, c.collIrecv(rbuf, rcount, rtype, root, tagScatter))
	for i := 0; i < n; i++ {
		src := c.offset(sbuf, stype, scount, i)
		reqs = append(reqs, c.collIsend(src, scount, stype, i, tagScatter))
	}
	return c.collWait(reqs)
}

// Allgather gathers every rank's (sbuf, scount, stype) into everyone's rbuf
// (ring algorithm).
func (c *Comm) Allgather(sbuf mem.Addr, scount int, stype *datatype.Type,
	rbuf mem.Addr, rcount int, rtype *datatype.Type) error {
	n := c.Size()
	rank := c.Rank()
	// Place own contribution.
	own := c.offset(rbuf, rtype, rcount, rank)
	if err := c.collSendrecv(sbuf, scount, stype, rank, tagAllgather,
		own, rcount, rtype, rank, tagAllgather); err != nil {
		return fmt.Errorf("allgather self: %w", err)
	}
	left := (rank - 1 + n) % n
	right := (rank + 1) % n
	for step := 0; step < n-1; step++ {
		sendIdx := (rank - step + n) % n
		recvIdx := (rank - step - 1 + n) % n
		if err := c.collSendrecv(
			c.offset(rbuf, rtype, rcount, sendIdx), rcount, rtype, right, tagAllgather,
			c.offset(rbuf, rtype, rcount, recvIdx), rcount, rtype, left, tagAllgather,
		); err != nil {
			return fmt.Errorf("allgather step %d: %w", step, err)
		}
	}
	return nil
}

// Alltoall exchanges block i of sbuf with rank i, receiving into block j of
// rbuf from rank j. All sends and receives are posted at once and completed
// together (MPICH's large-message algorithm).
func (c *Comm) Alltoall(sbuf mem.Addr, scount int, stype *datatype.Type,
	rbuf mem.Addr, rcount int, rtype *datatype.Type) error {
	n := c.Size()
	reqs := c.reqs[:0]
	for i := 0; i < n; i++ {
		src := (c.Rank() + i) % n
		reqs = append(reqs, c.collIrecv(c.offset(rbuf, rtype, rcount, src), rcount, rtype, src, tagAlltoall))
	}
	for i := 0; i < n; i++ {
		dst := (c.Rank() + i) % n
		reqs = append(reqs, c.collIsend(c.offset(sbuf, stype, scount, dst), scount, stype, dst, tagAlltoall))
	}
	return c.collWait(reqs)
}

// Alltoallv is the vector form of Alltoall: per-peer counts and displacements
// (in units of the respective type's extent).
func (c *Comm) Alltoallv(sbuf mem.Addr, scounts, sdispls []int, stype *datatype.Type,
	rbuf mem.Addr, rcounts, rdispls []int, rtype *datatype.Type) error {
	n := c.Size()
	if len(scounts) != n || len(sdispls) != n || len(rcounts) != n || len(rdispls) != n {
		return fmt.Errorf("alltoallv: count/displacement arrays must have %d entries", n)
	}
	reqs := c.reqs[:0]
	for i := 0; i < n; i++ {
		src := (c.Rank() + i) % n
		addr := mem.Addr(int64(rbuf) + int64(rdispls[src])*rtype.Extent())
		reqs = append(reqs, c.collIrecv(addr, rcounts[src], rtype, src, tagAlltoall))
	}
	for i := 0; i < n; i++ {
		dst := (c.Rank() + i) % n
		addr := mem.Addr(int64(sbuf) + int64(sdispls[dst])*stype.Extent())
		reqs = append(reqs, c.collIsend(addr, scounts[dst], stype, dst, tagAlltoall))
	}
	return c.collWait(reqs)
}

// Gatherv gathers variable-sized contributions to root; counts and displs
// (in rtype extents) are significant only at root.
func (c *Comm) Gatherv(sbuf mem.Addr, scount int, stype *datatype.Type,
	rbuf mem.Addr, rcounts, rdispls []int, rtype *datatype.Type, root int) error {
	n := c.Size()
	if c.Rank() != root {
		return c.collSend(sbuf, scount, stype, root, tagGather)
	}
	if len(rcounts) != n || len(rdispls) != n {
		return fmt.Errorf("gatherv: count/displacement arrays must have %d entries", n)
	}
	reqs := c.reqs[:0]
	for i := 0; i < n; i++ {
		addr := mem.Addr(int64(rbuf) + int64(rdispls[i])*rtype.Extent())
		reqs = append(reqs, c.collIrecv(addr, rcounts[i], rtype, i, tagGather))
	}
	reqs = append(reqs, c.collIsend(sbuf, scount, stype, root, tagGather))
	return c.collWait(reqs)
}

// Scatterv distributes variable-sized pieces from root; counts and displs
// (in stype extents) are significant only at root.
func (c *Comm) Scatterv(sbuf mem.Addr, scounts, sdispls []int, stype *datatype.Type,
	rbuf mem.Addr, rcount int, rtype *datatype.Type, root int) error {
	n := c.Size()
	if c.Rank() != root {
		return c.collRecv(rbuf, rcount, rtype, root, tagScatter)
	}
	if len(scounts) != n || len(sdispls) != n {
		return fmt.Errorf("scatterv: count/displacement arrays must have %d entries", n)
	}
	reqs := c.reqs[:0]
	reqs = append(reqs, c.collIrecv(rbuf, rcount, rtype, root, tagScatter))
	for i := 0; i < n; i++ {
		addr := mem.Addr(int64(sbuf) + int64(sdispls[i])*stype.Extent())
		reqs = append(reqs, c.collIsend(addr, scounts[i], stype, i, tagScatter))
	}
	return c.collWait(reqs)
}
