package pack

import (
	"encoding/binary"

	"repro/internal/datatype"
)

// This file holds the batch copy kernels: the loops that move a
// datatype.RunBatch between user memory and a dense staging buffer. The run
// length is switched on once per batch, outside the loop, so the common tiny
// widths run as one fixed-width load and store per run (encoding/binary
// accessors compile to single moves) instead of a memmove call per run.
// A strided batch has one kernel per direction: gather packs user runs into
// the dense buffer, scatter unpacks them. Each reslices the dense side once to
// the batch's k·w bytes and, at the fixed widths w of 1/2/4/8/16 B, walks it
// four runs at a time through one array pointer (*[4w]byte): a group of four
// costs one length check and moves at constant offsets, and the user side
// keeps its check per run. The k mod 4 runs a group leaves over take the
// same single moves one at a time. Runs move in cursor order, so a layout
// that overlaps itself scatters as the interpreted Cursor does. An indexed
// batch keeps one loop for both directions, copyIndexed. Kernels index into
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
	case b.Offs != nil:
		return copyIndexed(span, lo-b.Base, buf, b.Offs, b.Lens, w, scatter)
	case scatter:
		scatterStrided(span, int(b.Base-lo), int(b.Stride), buf[:b.K*w], w)
	default:
		gatherStrided(buf[:b.K*w], span, int(b.Base-lo), int(b.Stride), w)
	}
	return int64(b.K) * b.RunLen
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
		for ; len(d) >= 8; d, o = d[8:], o+4*s {
			g := (*[8]byte)(d)
			le.PutUint16(g[0:], le.Uint16(span[o:]))
			le.PutUint16(g[2:], le.Uint16(span[o+s:]))
			le.PutUint16(g[4:], le.Uint16(span[o+2*s:]))
			le.PutUint16(g[6:], le.Uint16(span[o+3*s:]))
		}
		for ; len(d) > 0; d, o = d[2:], o+s {
			le.PutUint16(d, le.Uint16(span[o:]))
		}
	case 4:
		for ; len(d) >= 16; d, o = d[16:], o+4*s {
			g := (*[16]byte)(d)
			le.PutUint32(g[0:], le.Uint32(span[o:]))
			le.PutUint32(g[4:], le.Uint32(span[o+s:]))
			le.PutUint32(g[8:], le.Uint32(span[o+2*s:]))
			le.PutUint32(g[12:], le.Uint32(span[o+3*s:]))
		}
		for ; len(d) > 0; d, o = d[4:], o+s {
			le.PutUint32(d, le.Uint32(span[o:]))
		}
	case 8:
		for ; len(d) >= 32; d, o = d[32:], o+4*s {
			g := (*[32]byte)(d)
			le.PutUint64(g[0:], le.Uint64(span[o:]))
			le.PutUint64(g[8:], le.Uint64(span[o+s:]))
			le.PutUint64(g[16:], le.Uint64(span[o+2*s:]))
			le.PutUint64(g[24:], le.Uint64(span[o+3*s:]))
		}
		for ; len(d) > 0; d, o = d[8:], o+s {
			le.PutUint64(d, le.Uint64(span[o:]))
		}
	case 16:
		for ; len(d) >= 64; d, o = d[64:], o+4*s {
			g := (*[64]byte)(d)
			mov16(g[0:], span[o:])
			mov16(g[16:], span[o+s:])
			mov16(g[32:], span[o+2*s:])
			mov16(g[48:], span[o+3*s:])
		}
		for ; len(d) > 0; d, o = d[16:], o+s {
			mov16(d, span[o:])
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
		for ; len(d) >= 8; d, o = d[8:], o+4*s {
			g := (*[8]byte)(d)
			le.PutUint16(span[o:], le.Uint16(g[0:]))
			le.PutUint16(span[o+s:], le.Uint16(g[2:]))
			le.PutUint16(span[o+2*s:], le.Uint16(g[4:]))
			le.PutUint16(span[o+3*s:], le.Uint16(g[6:]))
		}
		for ; len(d) > 0; d, o = d[2:], o+s {
			le.PutUint16(span[o:], le.Uint16(d))
		}
	case 4:
		for ; len(d) >= 16; d, o = d[16:], o+4*s {
			g := (*[16]byte)(d)
			le.PutUint32(span[o:], le.Uint32(g[0:]))
			le.PutUint32(span[o+s:], le.Uint32(g[4:]))
			le.PutUint32(span[o+2*s:], le.Uint32(g[8:]))
			le.PutUint32(span[o+3*s:], le.Uint32(g[12:]))
		}
		for ; len(d) > 0; d, o = d[4:], o+s {
			le.PutUint32(span[o:], le.Uint32(d))
		}
	case 8:
		for ; len(d) >= 32; d, o = d[32:], o+4*s {
			g := (*[32]byte)(d)
			le.PutUint64(span[o:], le.Uint64(g[0:]))
			le.PutUint64(span[o+s:], le.Uint64(g[8:]))
			le.PutUint64(span[o+2*s:], le.Uint64(g[16:]))
			le.PutUint64(span[o+3*s:], le.Uint64(g[24:]))
		}
		for ; len(d) > 0; d, o = d[8:], o+s {
			le.PutUint64(span[o:], le.Uint64(d))
		}
	case 16:
		for ; len(d) >= 64; d, o = d[64:], o+4*s {
			g := (*[64]byte)(d)
			mov16(span[o:], g[0:])
			mov16(span[o+s:], g[16:])
			mov16(span[o+2*s:], g[32:])
			mov16(span[o+3*s:], g[48:])
		}
		for ; len(d) > 0; d, o = d[16:], o+s {
			mov16(span[o:], d)
		}
	default:
		for ; len(d) > 0; d, o = d[w:], o+s {
			copy(span[o:o+w], d[:w])
		}
	}
}

// mov16 moves one 16-byte run as two 8-byte loads and stores.
func mov16(dst, src []byte) {
	dst, src = dst[:16], src[:16]
	le.PutUint64(dst, le.Uint64(src))
	le.PutUint64(dst[8:], le.Uint64(src[8:]))
}

// copyIndexed copies the runs of an indexed batch — run j at span[offs[j]-lo:],
// w bytes long or lens[j] when lens is set — to or from consecutive
// positions of buf, and returns the bytes moved.
func copyIndexed(span []byte, lo int64, buf []byte, offs, lens []int64, w int, scatter bool) int64 {
	switch {
	case lens != nil:
		pos := 0
		for j, o := range offs {
			n := int(lens[j])
			d, s := dir(scatter, buf[pos:pos+n], span[o-lo:o-lo+int64(n)])
			copy(d, s)
			pos += n
		}
		return int64(pos)
	case w == 1:
		for j, o := range offs {
			d, s := dir(scatter, buf[j:], span[o-lo:])
			d[0] = s[0]
		}
	case w == 2:
		for j, o := range offs {
			d, s := dir(scatter, buf[2*j:], span[o-lo:])
			le.PutUint16(d, le.Uint16(s))
		}
	case w == 4:
		for j, o := range offs {
			d, s := dir(scatter, buf[4*j:], span[o-lo:])
			le.PutUint32(d, le.Uint32(s))
		}
	case w == 8:
		for j, o := range offs {
			d, s := dir(scatter, buf[8*j:], span[o-lo:])
			le.PutUint64(d, le.Uint64(s))
		}
	case w == 16:
		for j, o := range offs {
			mov16(dir(scatter, buf[16*j:], span[o-lo:]))
		}
	default:
		for j, o := range offs {
			d, s := dir(scatter, buf[j*w:j*w+w], span[o-lo:o-lo+int64(w)])
			copy(d, s)
		}
	}
	return int64(len(offs) * w)
}

// dir orders a run's two ends as (dst, src): user memory is the source when
// packing and the destination when scatter is set. Inlined, the choice is a
// pair of conditional moves, so one indexed kernel serves both directions.
func dir(scatter bool, buf, user []byte) (dst, src []byte) {
	if scatter {
		return user, buf
	}
	return buf, user
}
