package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/datatype"
	"repro/internal/mem"
)

// Op is a reduction operator over a base datatype, the MPI_Op analogue.
// Operators combine element-wise: dst[i] = dst[i] ⊕ src[i].
type Op struct {
	Name string
	// Elem is the element size the operator understands.
	Elem int64
	// apply combines one element of src into dst.
	apply func(dst, src []byte)
}

// Built-in reduction operators.
var (
	OpSumInt32 = Op{Name: "MPI_SUM(int32)", Elem: 4, apply: func(dst, src []byte) {
		v := int32(binary.LittleEndian.Uint32(dst)) + int32(binary.LittleEndian.Uint32(src))
		binary.LittleEndian.PutUint32(dst, uint32(v))
	}}
	OpMaxInt32 = Op{Name: "MPI_MAX(int32)", Elem: 4, apply: func(dst, src []byte) {
		a := int32(binary.LittleEndian.Uint32(dst))
		b := int32(binary.LittleEndian.Uint32(src))
		if b > a {
			binary.LittleEndian.PutUint32(dst, uint32(b))
		}
	}}
	OpSumFloat64 = Op{Name: "MPI_SUM(float64)", Elem: 8, apply: func(dst, src []byte) {
		v := math.Float64frombits(binary.LittleEndian.Uint64(dst)) +
			math.Float64frombits(binary.LittleEndian.Uint64(src))
		binary.LittleEndian.PutUint64(dst, math.Float64bits(v))
	}}
	OpMaxFloat64 = Op{Name: "MPI_MAX(float64)", Elem: 8, apply: func(dst, src []byte) {
		a := math.Float64frombits(binary.LittleEndian.Uint64(dst))
		b := math.Float64frombits(binary.LittleEndian.Uint64(src))
		if b > a {
			binary.LittleEndian.PutUint64(dst, math.Float64bits(b))
		}
	}}
)

// combine applies op element-wise over two byte ranges in local memory and
// charges the combine loop as local computation.
func (c *Comm) combine(op Op, dst, src mem.Addr, count int) {
	n := int64(count) * op.Elem
	d := c.p.Mem().Bytes(dst, n)
	s := c.p.Mem().Bytes(src, n)
	for i := int64(0); i < n; i += op.Elem {
		op.apply(d[i:i+op.Elem], s[i:i+op.Elem])
	}
	c.p.Compute(c.p.w.cfg.Model.CopyTime(n, 1)) // combine loop ~ streaming pass
}

func opType(op Op) (*datatype.Type, error) {
	switch op.Elem {
	case 4:
		return datatype.Int32, nil
	case 8:
		return datatype.Float64, nil
	}
	return nil, fmt.Errorf("mpi: operator %s has unsupported element size %d", op.Name, op.Elem)
}

// Reduce combines count elements from every rank's sbuf into root's rbuf
// using a binomial tree. sbuf and rbuf must hold count contiguous elements
// of the operator's base type; rbuf is significant only at root.
func (c *Comm) Reduce(sbuf, rbuf mem.Addr, count int, op Op, root int) error {
	dt, err := opType(op)
	if err != nil {
		return err
	}
	n := c.Size()
	bytes := int64(count) * op.Elem
	// Accumulator: root reduces into rbuf; others into a temporary.
	acc := rbuf
	if c.Rank() != root {
		acc = c.p.Mem().MustAlloc(bytes)
		defer c.p.Mem().Free(acc)
	}
	copy(c.p.Mem().Bytes(acc, bytes), c.p.Mem().Bytes(sbuf, bytes))

	tmp := c.p.Mem().MustAlloc(bytes)
	defer c.p.Mem().Free(tmp)

	rel := (c.Rank() - root + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask != 0 {
			parent := ((rel ^ mask) + root) % n
			return c.collSend(acc, count, dt, parent, tagReduce)
		}
		child := rel | mask
		if child < n {
			if err := c.collRecv(tmp, count, dt, (child+root)%n, tagReduce); err != nil {
				return err
			}
			c.combine(op, acc, tmp, count)
		}
	}
	return nil
}

// Allreduce is Reduce to rank 0 followed by Bcast, MPICH's large-message
// composition.
func (c *Comm) Allreduce(sbuf, rbuf mem.Addr, count int, op Op) error {
	dt, err := opType(op)
	if err != nil {
		return err
	}
	if err := c.Reduce(sbuf, rbuf, count, op, 0); err != nil {
		return err
	}
	return c.Bcast(rbuf, count, dt, 0)
}
