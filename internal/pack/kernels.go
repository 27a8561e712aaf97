package pack

import (
	"encoding/binary"

	"repro/internal/datatype"
)

// This file holds the batch copy kernels: the loops that move a
// datatype.RunBatch between user memory and a dense staging buffer. The run
// length is switched on once per batch, outside the loop, so the common tiny
// widths run as fixed-width loads and stores (encoding/binary accessors
// compile to single moves) instead of a memmove call per run. Strided and
// fixed-width indexed batches have one kernel per direction: gather packs
// user runs into the dense buffer, scatter unpacks them. A strided kernel
// reslices the dense side once to the batch's k·w bytes and walks it a group
// at a time through one array pointer — eight runs of 2, 4 or 8 B
// (*[8w]byte), four of 1 or 16 B — so a group costs one length check and
// moves at constant offsets; the indexed kernels group 4-byte runs the same
// way. On the user side each run is one full-slice expression,
// span[o:o+w:o+w] (ld4, st4, ...), but in the 8-byte strided gather (see
// there). A gather combines 2- and 4-byte runs into 8-byte stores; a scatter
// loads each run just before it stores it. The runs a group leaves over take
// the same moves one at a time. Runs move in cursor order, so a layout that
// overlaps itself scatters as the interpreted Cursor does. Kernels index into
// span, the program's whole covering range that the caller range-checked
// once; Go's own bounds checks keep a miscompiled program from reaching
// outside it.

var le = binary.LittleEndian

// copyBatch moves batch b between span — the user memory covering layout
// offsets [lo, lo+len(span)) — and the dense buffer buf, out of span when
// packing and into it when scatter is set. It returns the bytes moved. An
// indexed batch's base moves the span's origin instead of each run.
func copyBatch(span []byte, lo int64, buf []byte, b *datatype.RunBatch, scatter bool) int64 {
	w := int(b.RunLen)
	switch {
	case b.Lens != nil:
		return copyVaried(span, lo-b.Base, buf, b.Offs, b.Lens, scatter)
	case b.Offs != nil && scatter:
		scatterIndexed(span, int(lo-b.Base), b.Offs, buf[:b.K*w], w)
	case b.Offs != nil:
		gatherIndexed(buf[:b.K*w], span, int(lo-b.Base), b.Offs, w)
	case scatter:
		scatterStrided(span, int(b.Base-lo), int(b.Stride), buf[:b.K*w], w)
	default:
		gatherStrided(buf[:b.K*w], span, int(b.Base-lo), int(b.Stride), w)
	}
	return int64(b.K) * b.RunLen
}

// The user side of every fixed-width move: one full-slice expression per
// run, which Go checks with one fused range test and no pointer mask (its
// capacity is w, never zero), and which proves the encoding/binary
// accessor's own length check away.
func ld2(span []byte, o int) uint64    { return uint64(le.Uint16(span[o : o+2 : o+2])) }
func ld4(span []byte, o int) uint64    { return uint64(le.Uint32(span[o : o+4 : o+4])) }
func ld8(span []byte, o int) uint64    { return le.Uint64(span[o : o+8 : o+8]) }
func st2(span []byte, o int, v uint64) { le.PutUint16(span[o:o+2:o+2], uint16(v)) }
func st4(span []byte, o int, v uint64) { le.PutUint32(span[o:o+4:o+4], uint32(v)) }
func st8(span []byte, o int, v uint64) { le.PutUint64(span[o:o+8:o+8], v) }

// mov16 moves one 16-byte run, both ends cut to 16 bytes by the caller, as
// two 8-byte loads and stores.
func mov16(dst, src []byte) {
	le.PutUint64(dst[:8:8], le.Uint64(src[:8:8]))
	le.PutUint64(dst[8:16:16], le.Uint64(src[8:16:16]))
}

// gatherStrided packs the len(d)/w runs of w bytes at span[o], span[o+s],
// span[o+2s], ... into d.
func gatherStrided(d, span []byte, o, s, w int) {
	switch w {
	case 1:
		for ; len(d) >= 4; d, o = d[4:], o+4*s {
			g := (*[4]byte)(d)
			g[0], g[1], g[2], g[3] = span[o], span[o+s], span[o+2*s], span[o+3*s]
		}
		for ; len(d) > 0; d, o = d[1:], o+s {
			d[0] = span[o]
		}
	case 2:
		for ; len(d) >= 16; d, o = d[16:], o+8*s {
			g := (*[16]byte)(d)
			le.PutUint64(g[0:], ld2(span, o)|ld2(span, o+s)<<16|ld2(span, o+2*s)<<32|ld2(span, o+3*s)<<48)
			le.PutUint64(g[8:], ld2(span, o+4*s)|ld2(span, o+5*s)<<16|ld2(span, o+6*s)<<32|ld2(span, o+7*s)<<48)
		}
		for ; len(d) > 0; d, o = d[2:], o+s {
			le.PutUint16(d, uint16(ld2(span, o)))
		}
	case 4:
		// Each half of a group is four loads, then two 8-byte stores.
		for ; len(d) >= 32; d, o = d[32:], o+4*s {
			g := (*[32]byte)(d)
			r0, r1, r2, r3 := ld4(span, o), ld4(span, o+s), ld4(span, o+2*s), ld4(span, o+3*s)
			le.PutUint64(g[0:], r0|r1<<32)
			le.PutUint64(g[8:], r2|r3<<32)
			o += 4 * s
			r0, r1, r2, r3 = ld4(span, o), ld4(span, o+s), ld4(span, o+2*s), ld4(span, o+3*s)
			le.PutUint64(g[16:], r0|r1<<32)
			le.PutUint64(g[24:], r2|r3<<32)
		}
		for ; len(d) > 0; d, o = d[4:], o+s {
			le.PutUint32(d, uint32(ld4(span, o)))
		}
	case 8:
		// The exception: a two-index slice, whose pointer mask delays each
		// load a little. Without it a 4 KiB-stride gather (a load per page)
		// read 8 % slower than the per-run kernel; with it, as fast.
		for ; len(d) >= 64; d, o = d[64:], o+8*s {
			g := (*[64]byte)(d)
			le.PutUint64(g[0:], le.Uint64(span[o:o+8]))
			le.PutUint64(g[8:], le.Uint64(span[o+s:o+s+8]))
			le.PutUint64(g[16:], le.Uint64(span[o+2*s:o+2*s+8]))
			le.PutUint64(g[24:], le.Uint64(span[o+3*s:o+3*s+8]))
			le.PutUint64(g[32:], le.Uint64(span[o+4*s:o+4*s+8]))
			le.PutUint64(g[40:], le.Uint64(span[o+5*s:o+5*s+8]))
			le.PutUint64(g[48:], le.Uint64(span[o+6*s:o+6*s+8]))
			le.PutUint64(g[56:], le.Uint64(span[o+7*s:o+7*s+8]))
		}
		for ; len(d) > 0; d, o = d[8:], o+s {
			le.PutUint64(d, le.Uint64(span[o:o+8]))
		}
	case 16:
		for ; len(d) >= 64; d, o = d[64:], o+4*s {
			g := (*[64]byte)(d)
			mov16(g[0:16:16], span[o:o+16:o+16])
			mov16(g[16:32:32], span[o+s:o+s+16:o+s+16])
			mov16(g[32:48:48], span[o+2*s:o+2*s+16:o+2*s+16])
			mov16(g[48:64:64], span[o+3*s:o+3*s+16:o+3*s+16])
		}
		for ; len(d) > 0; d, o = d[16:], o+s {
			mov16(d[:16:16], span[o:o+16:o+16])
		}
	default:
		for ; len(d) > 0; d, o = d[w:], o+s {
			copy(d[:w], span[o:o+w])
		}
	}
}

// scatterStrided unpacks d into the len(d)/w runs of w bytes at span[o],
// span[o+s], span[o+2s], ...
func scatterStrided(span []byte, o, s int, d []byte, w int) {
	switch w {
	case 1:
		for ; len(d) >= 4; d, o = d[4:], o+4*s {
			g := (*[4]byte)(d)
			span[o], span[o+s], span[o+2*s], span[o+3*s] = g[0], g[1], g[2], g[3]
		}
		for ; len(d) > 0; d, o = d[1:], o+s {
			span[o] = d[0]
		}
	case 2:
		for ; len(d) >= 16; d, o = d[16:], o+8*s {
			g := (*[16]byte)(d)
			st2(span, o, uint64(le.Uint16(g[0:])))
			st2(span, o+s, uint64(le.Uint16(g[2:])))
			st2(span, o+2*s, uint64(le.Uint16(g[4:])))
			st2(span, o+3*s, uint64(le.Uint16(g[6:])))
			st2(span, o+4*s, uint64(le.Uint16(g[8:])))
			st2(span, o+5*s, uint64(le.Uint16(g[10:])))
			st2(span, o+6*s, uint64(le.Uint16(g[12:])))
			st2(span, o+7*s, uint64(le.Uint16(g[14:])))
		}
		for ; len(d) > 0; d, o = d[2:], o+s {
			st2(span, o, uint64(le.Uint16(d)))
		}
	case 4:
		for ; len(d) >= 32; d, o = d[32:], o+8*s {
			g := (*[32]byte)(d)
			st4(span, o, uint64(le.Uint32(g[0:])))
			st4(span, o+s, uint64(le.Uint32(g[4:])))
			st4(span, o+2*s, uint64(le.Uint32(g[8:])))
			st4(span, o+3*s, uint64(le.Uint32(g[12:])))
			st4(span, o+4*s, uint64(le.Uint32(g[16:])))
			st4(span, o+5*s, uint64(le.Uint32(g[20:])))
			st4(span, o+6*s, uint64(le.Uint32(g[24:])))
			st4(span, o+7*s, uint64(le.Uint32(g[28:])))
		}
		for ; len(d) > 0; d, o = d[4:], o+s {
			st4(span, o, uint64(le.Uint32(d)))
		}
	case 8:
		for ; len(d) >= 64; d, o = d[64:], o+8*s {
			g := (*[64]byte)(d)
			st8(span, o, le.Uint64(g[0:]))
			st8(span, o+s, le.Uint64(g[8:]))
			st8(span, o+2*s, le.Uint64(g[16:]))
			st8(span, o+3*s, le.Uint64(g[24:]))
			st8(span, o+4*s, le.Uint64(g[32:]))
			st8(span, o+5*s, le.Uint64(g[40:]))
			st8(span, o+6*s, le.Uint64(g[48:]))
			st8(span, o+7*s, le.Uint64(g[56:]))
		}
		for ; len(d) > 0; d, o = d[8:], o+s {
			st8(span, o, le.Uint64(d))
		}
	case 16:
		for ; len(d) >= 64; d, o = d[64:], o+4*s {
			g := (*[64]byte)(d)
			mov16(span[o:o+16:o+16], g[0:16:16])
			mov16(span[o+s:o+s+16:o+s+16], g[16:32:32])
			mov16(span[o+2*s:o+2*s+16:o+2*s+16], g[32:48:48])
			mov16(span[o+3*s:o+3*s+16:o+3*s+16], g[48:64:64])
		}
		for ; len(d) > 0; d, o = d[16:], o+s {
			mov16(span[o:o+16:o+16], d[:16:16])
		}
	default:
		for ; len(d) > 0; d, o = d[w:], o+s {
			copy(span[o:o+w], d[:w])
		}
	}
}

// gatherIndexed packs the len(offs) runs of w bytes at span[offs[j]-lo]
// into d.
func gatherIndexed(d, span []byte, lo int, offs []int64, w int) {
	switch w {
	case 1:
		for j, o := range offs {
			d[j] = span[int(o)-lo]
		}
	case 2:
		for j, o := range offs {
			le.PutUint16(d[2*j:2*j+2:2*j+2], uint16(ld2(span, int(o)-lo)))
		}
	case 4:
		for ; len(offs) >= 8; d, offs = d[32:], offs[8:] {
			g, x := (*[32]byte)(d), (*[8]int64)(offs)
			r0, r1, r2, r3 := ld4(span, int(x[0])-lo), ld4(span, int(x[1])-lo), ld4(span, int(x[2])-lo), ld4(span, int(x[3])-lo)
			le.PutUint64(g[0:], r0|r1<<32)
			le.PutUint64(g[8:], r2|r3<<32)
			r0, r1, r2, r3 = ld4(span, int(x[4])-lo), ld4(span, int(x[5])-lo), ld4(span, int(x[6])-lo), ld4(span, int(x[7])-lo)
			le.PutUint64(g[16:], r0|r1<<32)
			le.PutUint64(g[24:], r2|r3<<32)
		}
		for j, o := range offs {
			le.PutUint32(d[4*j:4*j+4:4*j+4], uint32(ld4(span, int(o)-lo)))
		}
	case 8:
		for j, o := range offs {
			le.PutUint64(d[8*j:8*j+8:8*j+8], ld8(span, int(o)-lo))
		}
	case 16:
		for j, o := range offs {
			mov16(d[16*j:16*j+16:16*j+16], span[int(o)-lo:int(o)-lo+16:int(o)-lo+16])
		}
	default:
		for j, o := range offs {
			copy(d[j*w:j*w+w], span[int(o)-lo:int(o)-lo+w])
		}
	}
}

// scatterIndexed unpacks d into the len(offs) runs of w bytes at
// span[offs[j]-lo].
func scatterIndexed(span []byte, lo int, offs []int64, d []byte, w int) {
	switch w {
	case 1:
		for j, o := range offs {
			span[int(o)-lo] = d[j]
		}
	case 2:
		for j, o := range offs {
			st2(span, int(o)-lo, uint64(le.Uint16(d[2*j:2*j+2:2*j+2])))
		}
	case 4:
		for ; len(offs) >= 8; d, offs = d[32:], offs[8:] {
			g, x := (*[32]byte)(d), (*[8]int64)(offs)
			st4(span, int(x[0])-lo, uint64(le.Uint32(g[0:])))
			st4(span, int(x[1])-lo, uint64(le.Uint32(g[4:])))
			st4(span, int(x[2])-lo, uint64(le.Uint32(g[8:])))
			st4(span, int(x[3])-lo, uint64(le.Uint32(g[12:])))
			st4(span, int(x[4])-lo, uint64(le.Uint32(g[16:])))
			st4(span, int(x[5])-lo, uint64(le.Uint32(g[20:])))
			st4(span, int(x[6])-lo, uint64(le.Uint32(g[24:])))
			st4(span, int(x[7])-lo, uint64(le.Uint32(g[28:])))
		}
		for j, o := range offs {
			st4(span, int(o)-lo, uint64(le.Uint32(d[4*j:4*j+4:4*j+4])))
		}
	case 8:
		for j, o := range offs {
			st8(span, int(o)-lo, le.Uint64(d[8*j:8*j+8:8*j+8]))
		}
	case 16:
		for j, o := range offs {
			mov16(span[int(o)-lo:int(o)-lo+16:int(o)-lo+16], d[16*j:16*j+16:16*j+16])
		}
	default:
		for j, o := range offs {
			copy(span[int(o)-lo:int(o)-lo+w], d[j*w:j*w+w])
		}
	}
}

// copyVaried copies the runs of a varied-length indexed batch — run j at
// span[offs[j]-lo:], lens[j] bytes long — to or from consecutive positions
// of buf, and returns the bytes moved.
func copyVaried(span []byte, lo int64, buf []byte, offs, lens []int64, scatter bool) int64 {
	pos := 0
	for j, o := range offs {
		n := int(lens[j])
		d, s := dir(scatter, buf[pos:pos+n], span[o-lo:o-lo+int64(n)])
		copy(d, s)
		pos += n
	}
	return int64(pos)
}

// dir orders a run's two ends as (dst, src): user memory is the source when
// packing and the destination when scatter is set. Inlined, the choice is a
// pair of conditional moves, so one copy() loop serves both directions.
func dir(scatter bool, buf, user []byte) (dst, src []byte) {
	if scatter {
		return user, buf
	}
	return buf, user
}
