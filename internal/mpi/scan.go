package mpi

import (
	"repro/internal/mem"
)

// Scan computes an inclusive prefix reduction: rank i receives op applied
// over ranks 0..i (MPI_Scan). Linear-chain algorithm.
func (c *Comm) Scan(sbuf, rbuf mem.Addr, count int, op Op) error {
	dt, err := opType(op)
	if err != nil {
		return err
	}
	bytes := int64(count) * op.Elem
	copy(c.p.Mem().Bytes(rbuf, bytes), c.p.Mem().Bytes(sbuf, bytes))
	if c.Rank() > 0 {
		tmp := c.p.Mem().MustAlloc(bytes)
		defer c.p.Mem().Free(tmp)
		if err := c.collRecv(tmp, count, dt, c.Rank()-1, tagScan); err != nil {
			return err
		}
		c.combine(op, rbuf, tmp, count)
	}
	if c.Rank() < c.Size()-1 {
		return c.collSend(rbuf, count, dt, c.Rank()+1, tagScan)
	}
	return nil
}

// Scan over the world communicator.
func (p *Proc) Scan(sbuf, rbuf mem.Addr, count int, op Op) error {
	return p.World().Scan(sbuf, rbuf, count, op)
}
