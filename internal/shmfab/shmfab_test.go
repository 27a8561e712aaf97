package shmfab

import (
	"bytes"
	"testing"

	"repro/internal/simtime"
	"repro/internal/stats"
)

type pair struct {
	eng    *simtime.Engine
	fab    *Fabric
	a, b   *Node
	qa, qb *QP
	aSend  *CQ
	aRecv  *CQ
	bSend  *CQ
	bRecv  *CQ
	ca, cb *stats.Counters
}

func newPair(t *testing.T, model Model) *pair {
	t.Helper()
	eng := simtime.NewEngine()
	fab := New(eng, model, 2, 1<<22)
	ca, cb := &stats.Counters{}, &stats.Counters{}
	a := fab.AddNode("a", ca)
	b := fab.AddNode("b", cb)
	p := &pair{
		eng: eng, fab: fab, a: a, b: b,
		aSend: NewCQ(a), aRecv: NewCQ(a),
		bSend: NewCQ(b), bRecv: NewCQ(b),
		ca: ca, cb: cb,
	}
	p.qa, p.qb = Connect(a, b, p.aSend, p.aRecv, p.bSend, p.bRecv)
	return p
}

// TestWriteReadAcrossPartitions moves bytes both ways through the shared
// arena with registered regions and checks the data lands exactly where
// addressed — and that read costs the same virtual time as write, the
// backend's defining no-round-trip property.
func TestWriteReadAcrossPartitions(t *testing.T) {
	p := newPair(t, DefaultModel())
	const n = 8192
	src := p.a.Mem().MustAlloc(n)
	dst := p.b.Mem().MustAlloc(n)
	srcReg, err := p.a.Mem().Reg().Register(src, n)
	if err != nil {
		t.Fatal(err)
	}
	dstReg, err := p.b.Mem().Reg().Register(dst, n)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, n)
	for i := range want {
		want[i] = byte(i*7 + 3)
	}
	copy(p.a.Mem().Bytes(src, n), want)

	var writeDone, readDone simtime.Time
	p.aSend.SetHandler(func(e CQE) {
		if e.Err != nil {
			t.Errorf("completion error: %v", e.Err)
		}
		switch e.Op {
		case OpRDMAWrite:
			writeDone = p.eng.Now()
		case OpRDMARead:
			readDone = p.eng.Now()
		}
	})
	if err := p.qa.PostSend(SendWR{
		WRID: 1, Op: OpRDMAWrite,
		SGL:        []SGE{{Addr: src, Len: n, Key: srcReg.LKey}},
		RemoteAddr: dst, RKey: dstReg.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.b.Mem().Bytes(dst, n), want) {
		t.Fatal("write did not land in the peer partition")
	}

	// Read the same bytes back into a fresh local buffer.
	back := p.a.Mem().MustAlloc(n)
	backReg, err := p.a.Mem().Reg().Register(back, n)
	if err != nil {
		t.Fatal(err)
	}
	t0 := p.eng.Now()
	if err := p.qa.PostSend(SendWR{
		WRID: 2, Op: OpRDMARead,
		SGL:        []SGE{{Addr: back, Len: n, Key: backReg.LKey}},
		RemoteAddr: dst, RKey: dstReg.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.a.Mem().Bytes(back, n), want) {
		t.Fatal("read did not pull the peer partition's bytes")
	}
	if writeDone == 0 || readDone == 0 {
		t.Fatal("missing completions")
	}
	if got, want := readDone.Sub(t0), writeDone.Sub(0); got != want {
		t.Fatalf("read took %v, write took %v; with no responder turnaround they must match", got, want)
	}
}

// TestPartitionIsolation pins the arena geometry: every rank's Memory is a
// disjoint window of one backing store, addresses are partition-local, and a
// write between two ranks leaves every other partition untouched.
func TestPartitionIsolation(t *testing.T) {
	eng := simtime.NewEngine()
	fab := New(eng, DefaultModel(), 4, 1<<20)
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = fab.AddNode(string(rune('a'+i)), nil)
	}
	if got := fab.Arena().Size(); got != 4<<20 {
		t.Fatalf("arena size = %d, want %d", got, 4<<20)
	}
	sCQ, rCQ := NewCQ(nodes[0]), NewCQ(nodes[0])
	pSCQ, pRCQ := NewCQ(nodes[2]), NewCQ(nodes[2])
	qa, _ := Connect(nodes[0], nodes[2], sCQ, rCQ, pSCQ, pRCQ)

	const n = 2048
	src := nodes[0].Mem().MustAlloc(n)
	dst := nodes[2].Mem().MustAlloc(n)
	srcReg, _ := nodes[0].Mem().Reg().Register(src, n)
	dstReg, _ := nodes[2].Mem().Reg().Register(dst, n)
	for i := int64(0); i < n; i++ {
		nodes[0].Mem().Bytes(src, n)[i] = 0x5A
	}
	if err := qa.PostSend(SendWR{
		WRID: 1, Op: OpRDMAWrite,
		SGL:        []SGE{{Addr: src, Len: n, Key: srcReg.LKey}},
		RemoteAddr: dst, RKey: dstReg.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nodes[2].Mem().Bytes(dst, n), nodes[0].Mem().Bytes(src, n)) {
		t.Fatal("write missed the target partition")
	}
	// The same partition-local address in every *other* partition is clean.
	for _, i := range []int{1, 3} {
		for _, b := range nodes[i].Mem().Bytes(dst, n) {
			if b != 0 {
				t.Fatalf("partition %d dirtied by a transfer between 0 and 2", i)
			}
		}
	}
}

// TestDeterminism runs the same transfer twice on fresh fabrics and demands
// bit-identical virtual completion times — the property the zoo guard's
// byte-for-byte golden comparison rests on.
func TestDeterminism(t *testing.T) {
	run := func() simtime.Time {
		p := newPair(t, DefaultModel())
		const n = 32768
		src := p.a.Mem().MustAlloc(n)
		dst := p.b.Mem().MustAlloc(n)
		srcReg, _ := p.a.Mem().Reg().Register(src, n)
		dstReg, _ := p.b.Mem().Reg().Register(dst, n)
		if err := p.qa.PostSend(SendWR{
			WRID: 1, Op: OpRDMAWriteImm,
			SGL:        []SGE{{Addr: src, Len: n, Key: srcReg.LKey}},
			RemoteAddr: dst, RKey: dstReg.RKey, Imm: 5,
		}); err != nil {
			t.Fatal(err)
		}
		p.qb.PostRecv(RecvWR{WRID: 9})
		if err := p.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return p.eng.Now()
	}
	if t1, t2 := run(), run(); t1 != t2 {
		t.Fatalf("same transfer, different virtual end times: %v vs %v", t1, t2)
	}
}
