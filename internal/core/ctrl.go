package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/datatype"
	"repro/internal/mem"
)

// Control-message kinds exchanged between endpoints. All control traffic and
// eager payloads travel as channel-semantics sends on the per-peer QP, so
// MPI's pairwise ordering guarantee falls out of the transport's RC ordering.
const (
	kindEager    = uint8(iota + 1) // eager message: header + packed payload
	kindRTS                        // rendezvous start
	kindCTS                        // rendezvous reply (scheme-specific payload)
	kindSegReady                   // P-RRS: a packed segment is readable
	kindDone                       // P-RRS: receiver finished reading
	kindSendFail                   // sender aborted the op; receiver must clean up
	kindRecvFail                   // receiver aborted the op; sender must clean up
)

// ctrlWriter builds control messages.
type ctrlWriter struct{ buf []byte }

func (w *ctrlWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *ctrlWriter) u32(v uint32) { w.buf = binary.AppendUvarint(w.buf, uint64(v)) }
func (w *ctrlWriter) u64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *ctrlWriter) i64(v int64)  { w.buf = binary.AppendVarint(w.buf, v) }

// layout writes t's wire form as a length-prefixed byte string (what
// ctrlReader.bytes reads), encoding in place: the payload goes in behind a
// one-byte length and moves up if the length turns out to need more.
func (w *ctrlWriter) layout(t *datatype.Type) {
	at := len(w.buf) + 1
	w.buf = datatype.AppendEncode(append(w.buf, 0), t)
	n := len(w.buf) - at
	var pre [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(pre[:], uint64(n))
	w.buf = append(w.buf, pre[1:k]...)
	copy(w.buf[at+k-1:], w.buf[at:at+n])
	copy(w.buf[at-1:], pre[:k])
}

// ctrlReader parses control messages.
type ctrlReader struct {
	buf []byte
	pos int
	err error
}

func (r *ctrlReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("core: truncated control message at %s (pos %d)", what, r.pos)
	}
}

func (r *ctrlReader) u8() uint8 {
	if r.err != nil || r.pos >= len(r.buf) {
		r.fail("u8")
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

func (r *ctrlReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("u64")
		return 0
	}
	r.pos += n
	return v
}

func (r *ctrlReader) u32() uint32 { return uint32(r.u64()) }

func (r *ctrlReader) i64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("i64")
		return 0
	}
	r.pos += n
	return v
}

func (r *ctrlReader) bytes() []byte {
	n := r.u64()
	if r.err != nil {
		return nil
	}
	if r.pos+int(n) > len(r.buf) {
		r.fail("bytes")
		return nil
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// segRef names one remote unpack segment (or pack segment, for P-RRS).
type segRef struct {
	addr mem.Addr
	key  uint32
}

// regRef names one registered remote region for Multi-W targeting.
type regRef struct {
	addr mem.Addr
	len  int64
	key  uint32
}

// stagedCTSMax bounds a staged CTS naming n segments: kind, op, scheme,
// size, segment size and count, then an address and a key per segment.
func stagedCTSMax(n int) int {
	return 2 + binary.MaxVarintLen32 + 3*binary.MaxVarintLen64 + n*(binary.MaxVarintLen64+binary.MaxVarintLen32)
}

func (w *ctrlWriter) segRefs(refs []segRef) {
	w.u64(uint64(len(refs)))
	for _, s := range refs {
		w.u64(uint64(s.addr))
		w.u32(s.key)
	}
}

// segRefsInto parses a segment-reference list into buf (reusing its
// capacity), so warm-path callers can feed an op-owned scratch slice instead
// of allocating per message.
func (r *ctrlReader) segRefsInto(buf []segRef) []segRef {
	n := r.u64()
	if r.err != nil || n > 1<<20 {
		r.fail("segRefs")
		return nil
	}
	refs := buf[:0]
	for i := uint64(0); i < n; i++ {
		refs = append(refs, segRef{addr: mem.Addr(r.u64()), key: r.u32()})
	}
	return refs
}

func (w *ctrlWriter) regRefs(refs []regRef) {
	w.u64(uint64(len(refs)))
	for _, s := range refs {
		w.u64(uint64(s.addr))
		w.i64(s.len)
		w.u32(s.key)
	}
}

// regRefsInto is segRefsInto for region-reference lists.
func (r *ctrlReader) regRefsInto(buf []regRef) []regRef {
	n := r.u64()
	if r.err != nil || n > 1<<20 {
		r.fail("regRefs")
		return nil
	}
	refs := buf[:0]
	for i := uint64(0); i < n; i++ {
		refs = append(refs, regRef{addr: mem.Addr(r.u64()), len: r.i64(), key: r.u32()})
	}
	return refs
}

// findRegion returns the index of the region covering [a, a+n), or -1.
// Regions arrive sorted by address (OGR emits them sorted).
func findRegion(refs []regRef, a mem.Addr, n int64) int {
	lo, hi := 0, len(refs)
	for lo < hi {
		mid := (lo + hi) / 2
		if refs[mid].addr+mem.Addr(refs[mid].len) <= a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(refs) && a >= refs[lo].addr && int64(a)+n <= int64(refs[lo].addr)+refs[lo].len {
		return lo
	}
	return -1
}
