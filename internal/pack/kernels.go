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
// Kernels index into span, the program's whole covering range that the
// caller range-checked once; Go's own bounds checks keep a miscompiled
// program from reaching outside it.

var le = binary.LittleEndian

// copyBatch moves batch b between span — the user memory covering layout
// offsets [lo, lo+len(span)) — and the dense buffer buf, out of span when
// packing and into it when scatter is set. It returns the bytes moved.
func copyBatch(span []byte, lo int64, buf []byte, b *datatype.RunBatch, scatter bool) int64 {
	w := int(b.RunLen)
	switch {
	case b.Offs != nil:
		return copyIndexed(span, lo, buf, b.Offs, b.Lens, w, scatter)
	case scatter:
		copyStrided(span, int(b.Base-lo), int(b.Stride), buf, 0, w, w, b.K)
	default:
		copyStrided(buf, 0, w, span, int(b.Base-lo), int(b.Stride), w, b.K)
	}
	return int64(b.K) * b.RunLen
}

// copyStrided copies k runs of w bytes, run j from src[so+j*ss:] to
// dst[do+j*ds:]. Either side may be the strided user buffer; the dense side
// passes its run length as its stride.
func copyStrided(dst []byte, do, ds int, src []byte, so, ss, w, k int) {
	switch w {
	case 1:
		for ; k > 0; k-- {
			dst[do] = src[so]
			do, so = do+ds, so+ss
		}
	case 2:
		for ; k > 0; k-- {
			le.PutUint16(dst[do:], le.Uint16(src[so:]))
			do, so = do+ds, so+ss
		}
	case 4:
		for ; k > 0; k-- {
			le.PutUint32(dst[do:], le.Uint32(src[so:]))
			do, so = do+ds, so+ss
		}
	case 8:
		for ; k > 0; k-- {
			le.PutUint64(dst[do:], le.Uint64(src[so:]))
			do, so = do+ds, so+ss
		}
	case 16:
		for ; k > 0; k-- {
			d, s := dst[do:do+16], src[so:so+16]
			le.PutUint64(d, le.Uint64(s))
			le.PutUint64(d[8:], le.Uint64(s[8:]))
			do, so = do+ds, so+ss
		}
	default:
		for ; k > 0; k-- {
			copy(dst[do:do+w], src[so:so+w])
			do, so = do+ds, so+ss
		}
	}
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
			d, s := dir(scatter, buf[16*j:16*j+16], span[o-lo:o-lo+16])
			le.PutUint64(d, le.Uint64(s))
			le.PutUint64(d[8:], le.Uint64(s[8:]))
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
