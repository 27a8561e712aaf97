package datatype

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The wire codec ships a datatype's layout between ranks, as the Multi-W
// scheme requires (the receiver's datatype has only local semantics, so its
// flattened form travels with the rendezvous reply). The dataloop form is
// shipped rather than a fully flattened <offset,length> list: a vector of a
// million blocks encodes in a handful of bytes, which is the "light-weight
// representation" the paper cites from Träff and Ross et al.

const (
	wireContig  = 0
	wireVector  = 1
	wireIndexed = 2

	// maxWireDepth bounds decoder recursion against corrupt input.
	maxWireDepth = 64
	// maxWireParts bounds indexed fan-out against corrupt input.
	maxWireParts = 1 << 22
	// minWirePart is the least an indexed part occupies on the wire: its
	// displacement, a tag and one more varint.
	minWirePart = 3
)

// Encode serializes the type's layout. Decode reconstructs an equivalent
// Type (same size, extent, bounds and traversal; kind becomes KindHindexed
// as the constructor identity does not survive the wire).
func Encode(t *Type) []byte { return AppendEncode(make([]byte, 0, 64), t) }

// AppendEncode appends Encode's bytes for t to buf and returns the extended
// slice, so a caller assembling a larger frame encodes in place.
func AppendEncode(buf []byte, t *Type) []byte {
	buf = binary.AppendVarint(buf, t.size)
	buf = binary.AppendVarint(buf, t.lb)
	buf = binary.AppendVarint(buf, t.ub)
	buf = binary.AppendVarint(buf, t.trueLB)
	buf = binary.AppendVarint(buf, t.trueUB)
	return appendLoop(buf, t.loop)
}

func appendLoop(buf []byte, lp *loop) []byte {
	switch lp.kind {
	case loopContig:
		buf = append(buf, wireContig)
		buf = binary.AppendVarint(buf, lp.bytes)
	case loopVector:
		buf = append(buf, wireVector)
		buf = binary.AppendUvarint(buf, uint64(lp.count))
		buf = binary.AppendVarint(buf, lp.stride)
		buf = appendLoop(buf, lp.child)
	case loopIndexed:
		buf = append(buf, wireIndexed)
		buf = binary.AppendUvarint(buf, uint64(len(lp.offs)))
		buf = slices.Grow(buf, minWirePart*len(lp.offs))
		for i, off := range lp.offs {
			buf = binary.AppendVarint(buf, off)
			if k := lp.kid(i); k != nil {
				buf = appendLoop(buf, k)
			} else {
				buf = append(buf, wireContig)
				buf = binary.AppendVarint(buf, lp.lenAt(i))
			}
		}
	}
	return buf
}

type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) varint() (int64, error) {
	ux, err := d.uvarint()
	return int64(ux>>1) ^ -int64(ux&1), err // zigzag, as encoding/binary
}

// uvarint reads one varint. Nearly every varint of a layout — a displacement
// or a length below 2 MiB — is one to three bytes long; those decode inline,
// the rest (and the last two bytes of a frame) go through encoding/binary.
func (d *decoder) uvarint() (uint64, error) {
	b := d.buf[d.pos:]
	if len(b) >= 3 {
		switch {
		case b[0] < 0x80:
			d.pos++
			return uint64(b[0]), nil
		case b[1] < 0x80:
			d.pos += 2
			return uint64(b[0]&0x7f) | uint64(b[1])<<7, nil
		case b[2] < 0x80:
			d.pos += 3
			return uint64(b[0]&0x7f) | uint64(b[1]&0x7f)<<7 | uint64(b[2])<<14, nil
		}
	}
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, fmt.Errorf("datatype: truncated varint at %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, fmt.Errorf("datatype: truncated tag at %d", d.pos)
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

// Decode reconstructs a Type from Encode's output.
func Decode(data []byte) (*Type, error) {
	d := decoder{buf: data}
	size, err := d.varint()
	if err != nil {
		return nil, err
	}
	lb, err := d.varint()
	if err != nil {
		return nil, err
	}
	ub, err := d.varint()
	if err != nil {
		return nil, err
	}
	tlb, err := d.varint()
	if err != nil {
		return nil, err
	}
	tub, err := d.varint()
	if err != nil {
		return nil, err
	}
	lp, err := d.loop(0)
	if err != nil {
		return nil, err
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("datatype: %d trailing bytes", len(data)-d.pos)
	}
	if lp.dataBytes != size {
		return nil, fmt.Errorf("datatype: loop bytes %d != declared size %d", lp.dataBytes, size)
	}
	return &Type{
		kind: KindHindexed, name: "decoded",
		size: size, lb: lb, ub: ub, trueLB: tlb, trueUB: tub,
		loop: lp, nblocks: lp.blocks,
	}, nil
}

func (d *decoder) loop(depth int) (*loop, error) {
	if depth > maxWireDepth {
		return nil, fmt.Errorf("datatype: loop nesting exceeds %d", maxWireDepth)
	}
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case wireContig:
		bytes, err := d.varint()
		if err != nil {
			return nil, err
		}
		if bytes < 0 {
			return nil, fmt.Errorf("datatype: negative contig length %d", bytes)
		}
		return contigLoop(bytes), nil
	case wireVector:
		count, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if count == 0 || count > maxWireParts {
			return nil, fmt.Errorf("datatype: bad vector count %d", count)
		}
		stride, err := d.varint()
		if err != nil {
			return nil, err
		}
		child, err := d.loop(depth + 1)
		if err != nil {
			return nil, err
		}
		if most := math.MaxInt64 / int64(count); child.dataBytes > most || child.blocks > most {
			return nil, fmt.Errorf("datatype: vector of %d overflows the layout totals", count)
		}
		return &loop{
			kind: loopVector, count: int(count), stride: stride, child: child,
			dataBytes: int64(count) * child.dataBytes,
			blocks:    int64(count) * child.blocks,
		}, nil
	case wireIndexed:
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		// The frame itself bounds the table: a count the remaining bytes
		// cannot hold is refused before anything is sized from it.
		if n == 0 || n > maxWireParts || n > uint64(len(d.buf)-d.pos)/minWirePart {
			return nil, fmt.Errorf("datatype: bad indexed part count %d", n)
		}
		b := newIndexedBuilder(int(n))
		for i := uint64(0); i < n; i++ {
			off, err := d.varint()
			if err != nil {
				return nil, err
			}
			if depth < maxWireDepth && d.pos < len(d.buf) && d.buf[d.pos] == wireContig {
				// A leaf goes straight into the table.
				d.pos++
				bytes, err := d.varint()
				if err != nil || bytes < 0 {
					return nil, fmt.Errorf("datatype: bad leaf length %d at part %d (%v)", bytes, i, err)
				}
				b.leaf(off, bytes)
			} else {
				child, err := d.loop(depth + 1)
				if err != nil {
					return nil, err
				}
				b.part(off, child)
			}
			if b.dataBytes < 0 || b.kidBlocks < 0 {
				return nil, fmt.Errorf("datatype: indexed part %d overflows the layout totals", i)
			}
		}
		return b.finish(), nil
	default:
		return nil, fmt.Errorf("datatype: unknown loop tag %d", tag)
	}
}
