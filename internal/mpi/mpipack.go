package mpi

import (
	"fmt"

	"repro/internal/datatype"
	"repro/internal/mem"
)

// Explicit pack/unpack, the MPI_Pack/MPI_Unpack user API — what applications
// resorted to before datatype communication was fast (the paper's Section 1:
// "a programmer often prefers packing and unpacking noncontiguous data
// manually"). Charged as local computation at pure copy cost.

// PackSize returns the buffer space needed to pack (count, dt), the
// MPI_Pack_size analogue.
func PackSize(count int, dt *datatype.Type) int64 {
	return dt.Size() * int64(count)
}

// Pack copies the (buf, count, dt) message into out starting at position
// pos and returns the new position.
func (p *Proc) Pack(buf mem.Addr, count int, dt *datatype.Type, out []byte, pos int) (int, error) {
	n := PackSize(count, dt)
	if int64(pos)+n > int64(len(out)) {
		return pos, fmt.Errorf("mpi: Pack needs %d bytes at %d, have %d", n, pos, len(out))
	}
	// Bound as the transfer schemes bind theirs: the packer walks the unit
	// the type holds, repeated count times.
	p.packer.Bind(p.Mem(), buf, dt, count)
	got, runs := p.packer.PackTo(out[pos : int64(pos)+n])
	if got != n {
		return pos, fmt.Errorf("mpi: Pack short: %d of %d", got, n)
	}
	p.Compute(p.w.cfg.Model.CopyTime(n, runs))
	return pos + int(n), nil
}

// Unpack copies packed bytes from in starting at pos into the (buf, count,
// dt) message and returns the new position.
func (p *Proc) Unpack(in []byte, pos int, buf mem.Addr, count int, dt *datatype.Type) (int, error) {
	n := PackSize(count, dt)
	if int64(pos)+n > int64(len(in)) {
		return pos, fmt.Errorf("mpi: Unpack needs %d bytes at %d, have %d", n, pos, len(in))
	}
	p.unpacker.Bind(p.Mem(), buf, dt, count)
	got, runs := p.unpacker.UnpackFrom(in[pos : int64(pos)+n])
	if got != n {
		return pos, fmt.Errorf("mpi: Unpack short: %d of %d", got, n)
	}
	p.Compute(p.w.cfg.Model.CopyTime(n, runs))
	return pos + int(n), nil
}
