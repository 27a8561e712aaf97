package verbs_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/mem"
	"repro/internal/rtfab"
	"repro/internal/shmfab"
	"repro/internal/simtime"
	"repro/internal/verbs"
)

// The verb-level contract, checked against every backend. A test builds a
// fresh two-node rig, runs one process on node a, and inspects what the four
// completion queues saw once the fabric is quiet. Everything a test does to
// node b while the fabric runs happens in b's own completion handlers, so
// the same test is race-free on the concurrent backend.

const (
	aSend = iota // indices into rig.cq / rig.got
	aRecv
	bSend
	bRecv
)

const rigMem = 4 << 20

type rig struct {
	t       *testing.T
	virtual bool // one deterministic engine: virtual times are comparable
	a, b    verbs.HCA
	qa, qb  verbs.QP
	cq      [4]verbs.CQ
	got     [4][]verbs.CQE    // completions per CQ, in handler order
	at      [4][]simtime.Time // the owning engine's time at each
	hook    [4]func(verbs.CQE)
	moved   simtime.Signal // broadcast whenever one of a's queues completes
	inject  func(*fault.Injector)
	run     func(body func(p *simtime.Process)) error
}

type backend struct {
	name    string
	virtual bool
	model   func() verbs.Model
	build   func(r *rig, m verbs.Model)
}

var backends = []backend{
	{"sim", true, verbs.DefaultModel, func(r *rig, m verbs.Model) {
		eng := simtime.NewEngine()
		fab := ib.NewFabric(eng, m)
		r.a = fab.AddHCA("a", mem.NewMemory("a", rigMem), nil)
		r.b = fab.AddHCA("b", mem.NewMemory("b", rigMem), nil)
		r.inject = fab.SetInjector
		r.run = func(body func(*simtime.Process)) error { eng.Spawn("a", body); return eng.Run() }
	}},
	{"shm", true, shmfab.DefaultModel, func(r *rig, m verbs.Model) {
		eng := simtime.NewEngine()
		fab := shmfab.New(eng, m, 2, rigMem)
		r.a, r.b = fab.AddNode("a", nil), fab.AddNode("b", nil)
		r.inject = fab.SetInjector
		r.run = func(body func(*simtime.Process)) error { eng.Spawn("a", body); return eng.Run() }
	}},
	{"rt", false, verbs.DefaultModel, func(r *rig, m verbs.Model) {
		fab := rtfab.New(m)
		a := fab.AddNode("a", mem.NewMemory("a", rigMem), nil)
		r.a, r.b = a, fab.AddNode("b", mem.NewMemory("b", rigMem), nil)
		r.inject = fab.SetInjector
		r.run = func(body func(*simtime.Process)) error {
			a.Engine().Spawn("a", body)
			return fab.Run(30 * time.Second)
		}
	}},
}

// newRig builds a connected pair on one backend, every queue in handler
// mode. tweak, when not nil, edits the backend's default model first.
func newRig(t *testing.T, be backend, tweak func(*verbs.Model)) *rig {
	t.Helper()
	m := be.model()
	if tweak != nil {
		tweak(&m)
	}
	r := &rig{t: t, virtual: be.virtual}
	be.build(r, m)
	owner := [4]verbs.HCA{r.a, r.a, r.b, r.b}
	for i := range r.cq {
		i := i
		r.cq[i] = owner[i].NewCQ()
		r.cq[i].SetHandler(func(e verbs.CQE) {
			// Data is the fabric's storage and only valid until this handler
			// returns (TestRecvDataLifetime): the rig keeps a copy. The hook
			// sees the entry as delivered.
			kept := e
			kept.Data = bytes.Clone(e.Data)
			r.got[i] = append(r.got[i], kept)
			r.at[i] = append(r.at[i], owner[i].Engine().Now())
			if r.hook[i] != nil {
				r.hook[i](e)
			}
			if i == aSend || i == aRecv {
				r.moved.Broadcast()
			}
		})
	}
	r.qa, r.qb = r.connect()
	return r
}

// connect adds a queue pair between the two nodes on the rig's queues.
func (r *rig) connect() (qa, qb verbs.QP) {
	return r.a.Connect(r.b, r.cq[aSend], r.cq[aRecv], r.cq[bSend], r.cq[bRecv])
}

// await parks a's process until queue q (one of a's) has seen n completions.
func (r *rig) await(p *simtime.Process, q, n int) {
	for len(r.got[q]) < n {
		p.Wait(&r.moved)
	}
}

// drive runs body as a's process and fails the test if the fabric does not
// come to rest cleanly.
func (r *rig) drive(body func(p *simtime.Process)) {
	r.t.Helper()
	if err := r.run(body); err != nil {
		r.t.Fatal(err)
	}
}

// region allocates and registers n bytes on h, filled with a pattern derived
// from seed (zero leaves it blank).
func (r *rig) region(h verbs.HCA, n int64, seed byte) (mem.Addr, *mem.Region) {
	r.t.Helper()
	addr := h.Mem().MustAlloc(n)
	reg, err := h.Mem().Reg().Register(addr, n)
	if err != nil {
		r.t.Fatal(err)
	}
	if seed != 0 {
		for i, b := 0, h.Mem().Bytes(addr, n); i < len(b); i++ {
			b[i] = seed + byte(i*7)
		}
	}
	return addr, reg
}

func eachBackend(t *testing.T, tweak func(*verbs.Model), fn func(t *testing.T, r *rig)) {
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) { fn(t, newRig(t, be, tweak)) })
	}
}

// A channel send delivers its payload, immediate and length in the
// receiver's completion, consumes credits in posting order, and completes at
// the sender with the work request's own ID.
func TestChannelSend(t *testing.T) {
	eachBackend(t, nil, func(t *testing.T, r *rig) {
		const n = 20
		for i := 0; i < n; i++ {
			r.qb.PostRecv(verbs.RecvWR{WRID: uint64(100 + i)})
		}
		r.drive(func(p *simtime.Process) {
			// The first half one by one, the second as one list: every send
			// of a list carries its own captured payload.
			var list []verbs.SendWR
			for i := 0; i < n; i++ {
				wr := verbs.SendWR{WRID: uint64(i + 1), Op: verbs.OpSend,
					Inline: []byte(fmt.Sprintf("message %d", i)), Imm: uint32(40 + i)}
				if i >= n/2 {
					list = append(list, wr)
				} else if err := r.qa.PostSend(wr); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.qa.PostSendList(list); err != nil {
				t.Fatal(err)
			}
			for i := range list {
				list[i].Inline[0] = 'X' // captured at post
			}
			r.await(p, aSend, n)
		})
		if len(r.got[aSend]) != n || len(r.got[bRecv]) != n {
			t.Fatalf("%d send and %d receive completions, want %d each", len(r.got[aSend]), len(r.got[bRecv]), n)
		}
		for i := 0; i < n; i++ {
			want := fmt.Sprintf("message %d", i)
			se, re := r.got[aSend][i], r.got[bRecv][i]
			if se.WRID != uint64(i+1) || se.Op != verbs.OpSend || se.Err != nil || se.Bytes != int64(len(want)) || se.QP != r.qa {
				t.Fatalf("send completion %d = %+v", i, se)
			}
			if re.WRID != uint64(100+i) || re.Op != verbs.OpRecv || re.Err != nil || re.QP != r.qb ||
				string(re.Data) != want || re.Bytes != int64(len(want)) || !re.HasImm || re.Imm != uint32(40+i) {
				t.Fatalf("receive completion %d = %+v", i, re)
			}
		}
		if got := r.b.Counters().Completions; got != n {
			t.Fatalf("receiver counted %d completions, want %d", got, n)
		}
	})
}

// RDMA write gathers its list into contiguous remote memory; with an
// immediate it also consumes a credit, without one it does not. RDMA read
// scatters contiguous remote memory over its list.
func TestWriteGatherReadScatter(t *testing.T) {
	eachBackend(t, nil, func(t *testing.T, r *rig) {
		const blk = 256
		var sgl []verbs.SGE
		var want []byte
		for i := 0; i < 3; i++ {
			addr, reg := r.region(r.a, blk, byte(1+60*i))
			sgl = append(sgl, verbs.SGE{Addr: addr, Len: blk, Key: reg.LKey})
			want = append(want, r.a.Mem().Bytes(addr, blk)...)
		}
		sgl = append(sgl[:2], verbs.SGE{}, sgl[2]) // a zero-length element moves nothing
		dst, dreg := r.region(r.b, 3*blk, 0)
		back, breg := r.region(r.a, 3*blk, 0)
		r.qb.PostRecv(verbs.RecvWR{WRID: 11})
		r.qb.PostRecv(verbs.RecvWR{WRID: 12})
		r.drive(func(p *simtime.Process) {
			post := func(wr verbs.SendWR) {
				if err := r.qa.PostSend(wr); err != nil {
					t.Fatal(err)
				}
			}
			post(verbs.SendWR{WRID: 1, Op: verbs.OpRDMAWrite, SGL: sgl[:1], RemoteAddr: dst, RKey: dreg.RKey})
			post(verbs.SendWR{WRID: 2, Op: verbs.OpRDMAWriteImm, SGL: sgl, RemoteAddr: dst, RKey: dreg.RKey, Imm: 99})
			r.await(p, aSend, 2)
			post(verbs.SendWR{WRID: 3, Op: verbs.OpRDMARead, RemoteAddr: dst, RKey: dreg.RKey,
				SGL: []verbs.SGE{{Addr: back, Len: blk, Key: breg.LKey}, {Addr: back + blk, Len: 2 * blk, Key: breg.LKey}}})
			r.await(p, aSend, 3)
		})
		for i, e := range r.got[aSend] {
			wantBytes := []int64{blk, 3 * blk, 3 * blk}[i]
			if e.WRID != uint64(i+1) || e.Err != nil || e.Bytes != wantBytes {
				t.Fatalf("completion %d = %+v", i, e)
			}
		}
		if !bytes.Equal(r.b.Mem().Bytes(dst, 3*blk), want) {
			t.Fatal("gathered write landed wrong bytes")
		}
		if !bytes.Equal(r.a.Mem().Bytes(back, 3*blk), want) {
			t.Fatal("scattered read landed wrong bytes")
		}
		if len(r.got[bRecv]) != 1 {
			t.Fatalf("%d receive completions, want 1 (the plain write must not consume a credit)", len(r.got[bRecv]))
		}
		if e := r.got[bRecv][0]; e.WRID != 11 || !e.HasImm || e.Imm != 99 || e.Bytes != 3*blk || e.Data != nil {
			t.Fatalf("immediate completion = %+v", e)
		}
		if r.qb.RecvCredits() != 1 {
			t.Fatalf("%d credits left, want 1", r.qb.RecvCredits())
		}
	})
}

// A write or read whose rkey does not cover the remote range completes with
// a "remote access error" and moves no byte — on the shared arena too,
// where source and target are physically one mapping.
func TestRegistrationViolation(t *testing.T) {
	eachBackend(t, nil, func(t *testing.T, r *rig) {
		const n = 4096
		src, sreg := r.region(r.a, n, 0xAB)
		// Only the first half of the target is registered.
		dst := r.b.Mem().MustAlloc(2 * n)
		dreg, err := r.b.Mem().Reg().Register(dst, n)
		if err != nil {
			t.Fatal(err)
		}
		before := append([]byte(nil), r.a.Mem().Bytes(src, n)...)
		sgl := []verbs.SGE{{Addr: src, Len: n, Key: sreg.LKey}}
		r.drive(func(p *simtime.Process) {
			for i, wr := range []verbs.SendWR{
				{Op: verbs.OpRDMAWrite, SGL: sgl, RemoteAddr: dst + n, RKey: dreg.RKey},
				{Op: verbs.OpRDMAWrite, SGL: sgl, RemoteAddr: dst, RKey: 12345},
				{Op: verbs.OpRDMARead, SGL: sgl, RemoteAddr: dst + n/2, RKey: dreg.RKey},
			} {
				wr.WRID = uint64(i + 1)
				if err := r.qa.PostSend(wr); err != nil {
					t.Fatalf("post %d: %v (the failure is the responder's to report)", i, err)
				}
			}
			r.await(p, aSend, 3)
		})
		for i, e := range r.got[aSend] {
			if e.Err == nil || !strings.Contains(e.Err.Error(), "remote access error") {
				t.Fatalf("completion %d = %+v, want a remote access error", i, e)
			}
		}
		for _, b := range r.b.Mem().Bytes(dst, 2*n) {
			if b != 0 {
				t.Fatal("a refused write leaked bytes into the target")
			}
		}
		if !bytes.Equal(r.a.Mem().Bytes(src, n), before) {
			t.Fatal("a refused read overwrote its scatter list")
		}
	})
}

// A key dies with its registration. Deregistering a region and registering
// the same bytes again reuses the region's slot of the table at once
// (internal/mem pins that) under a key of a new generation, and the old key
// names nothing: as a local key it is refused at post, as a remote key at
// landing, with a "remote access error" and no byte moved.
func TestStaleKey(t *testing.T) {
	eachBackend(t, nil, func(t *testing.T, r *rig) {
		const n = 512
		src, sreg := r.region(r.a, n, 0x3c)
		dst, dreg := r.region(r.b, n, 0)
		renew := func(h verbs.HCA, addr mem.Addr, old *mem.Region) *mem.Region {
			t.Helper()
			if err := h.Mem().Reg().Deregister(old); err != nil {
				t.Fatal(err)
			}
			reg, err := h.Mem().Reg().Register(addr, n)
			if err != nil || reg.LKey == old.LKey || reg.RKey == old.RKey {
				t.Fatalf("re-registration = %+v, %v, want keys of its own (old %+v)", reg, err, old)
			}
			return reg
		}
		sreg2, dreg2 := renew(r.a, src, sreg), renew(r.b, dst, dreg)
		write := func(lkey, rkey uint32) verbs.SendWR {
			return verbs.SendWR{Op: verbs.OpRDMAWrite, SGL: []verbs.SGE{{Addr: src, Len: n, Key: lkey}}, RemoteAddr: dst, RKey: rkey}
		}
		if err := r.qa.PostSend(write(sreg.LKey, dreg2.RKey)); err == nil {
			t.Error("a post under a stale local key was accepted")
		}
		if err := r.qa.PostSendList([]verbs.SendWR{write(sreg2.LKey, dreg2.RKey), write(sreg.LKey, dreg2.RKey)}); err == nil {
			t.Error("a list with a member under a stale local key was accepted")
		}
		r.drive(func(p *simtime.Process) {
			if err := r.qa.PostSend(write(sreg2.LKey, dreg.RKey)); err != nil {
				t.Fatalf("post: %v (a stale remote key is the responder's to report)", err)
			}
			r.await(p, aSend, 1)
			if e := r.got[aSend][0]; e.Err == nil || !strings.Contains(e.Err.Error(), "remote access error") {
				t.Errorf("completion = %+v, want a remote access error", e)
			}
			if !bytes.Equal(r.b.Mem().Bytes(dst, n), make([]byte, n)) {
				t.Error("a write under a stale remote key moved bytes")
			}
			if err := r.qa.PostSend(write(sreg2.LKey, dreg2.RKey)); err != nil {
				t.Fatal(err)
			}
			r.await(p, aSend, 2)
			if e := r.got[aSend][1]; e.Err != nil {
				t.Errorf("the write under the live keys completed with %v", e.Err)
			}
		})
		if !bytes.Equal(r.b.Mem().Bytes(dst, n), r.a.Mem().Bytes(src, n)) {
			t.Error("the write under the live keys did not land")
		}
	})
}

// An unregistered local buffer is refused when posted, and one bad
// descriptor refuses its whole list with no side effect at all.
func TestPostValidation(t *testing.T) {
	eachBackend(t, nil, func(t *testing.T, r *rig) {
		src, sreg := r.region(r.a, 64, 0x11)
		dst, dreg := r.region(r.b, 64, 0)
		good := verbs.SendWR{Op: verbs.OpRDMAWrite, SGL: []verbs.SGE{{Addr: src, Len: 64, Key: sreg.LKey}}, RemoteAddr: dst, RKey: dreg.RKey}
		bad := good
		bad.SGL = []verbs.SGE{{Addr: r.a.Mem().MustAlloc(64), Len: 64, Key: 9999}}
		for name, wr := range map[string]verbs.SendWR{
			"unregistered source":    bad,
			"read into unregistered": {Op: verbs.OpRDMARead, SGL: bad.SGL, RemoteAddr: dst, RKey: dreg.RKey},
			"negative length":        {Op: verbs.OpRDMAWrite, SGL: []verbs.SGE{{Addr: src, Len: -1, Key: sreg.LKey}}, RemoteAddr: dst, RKey: dreg.RKey},
			"target out of range":    {Op: verbs.OpRDMAWrite, SGL: good.SGL, RemoteAddr: rigMem, RKey: dreg.RKey},
			"send with a gather":     {Op: verbs.OpSend, SGL: good.SGL},
			"unknown opcode":         {Op: verbs.OpRecv},
		} {
			if err := r.qa.PostSend(wr); err == nil {
				t.Errorf("%s: post accepted", name)
			}
		}
		if err := r.qa.PostSendList([]verbs.SendWR{good, bad, good}); err == nil {
			t.Error("list with a bad descriptor accepted")
		}
		if c := r.a.Counters(); c.DescriptorsPosted != 0 || c.ListPosts != 0 {
			t.Fatalf("refused posts left side effects: %d descriptors, %d posts counted", c.DescriptorsPosted, c.ListPosts)
		}
		r.drive(func(*simtime.Process) {})
		if len(r.got[aSend]) != 0 || r.b.Mem().Bytes(dst, 1)[0] != 0 {
			t.Fatal("a refused post completed or moved data")
		}
	})
}

// MaxPostBatch bounds descriptors per doorbell and MaxSGE one descriptor's
// gather list; the two must not be conflated. A full batch of full-gather
// descriptors is accepted, one descriptor more is refused by name, and a
// single post is not a doorbell batch.
func TestMaxPostBatchDistinctFromMaxSGE(t *testing.T) {
	shrink := func(m *verbs.Model) { m.MaxSGE, m.MaxPostBatch = 4, 8 }
	eachBackend(t, shrink, func(t *testing.T, r *rig) {
		m := r.a.Model()
		src, sreg := r.region(r.a, 64<<10, 0x21)
		dst, dreg := r.region(r.b, 64<<10, 0)
		list := func(nWR, nSGE int) []verbs.SendWR {
			wrs := make([]verbs.SendWR, nWR)
			for i := range wrs {
				wrs[i] = verbs.SendWR{Op: verbs.OpRDMAWrite, RemoteAddr: dst, RKey: dreg.RKey}
				for s := 0; s < nSGE; s++ {
					wrs[i].SGL = append(wrs[i].SGL, verbs.SGE{Addr: src + mem.Addr(64*s), Len: 64, Key: sreg.LKey})
				}
			}
			return wrs
		}
		r.drive(func(p *simtime.Process) {
			if err := r.qa.PostSendList(list(m.MaxPostBatch, m.MaxSGE)); err != nil {
				t.Fatalf("full batch of full-gather descriptors refused: %v", err)
			}
			err := r.qa.PostSendList(list(m.MaxPostBatch+1, 1))
			if err == nil || !strings.Contains(err.Error(), "MaxPostBatch") {
				t.Fatalf("list past MaxPostBatch: err = %v, want a refusal naming the limit", err)
			}
			if err := r.qa.PostSend(list(1, m.MaxSGE)[0]); err != nil {
				t.Fatalf("single post refused: %v", err)
			}
			if err := r.qa.PostSendList(nil); err != nil {
				t.Fatalf("empty list: %v", err)
			}
			r.await(p, aSend, m.MaxPostBatch+1)
		})
		if c := r.a.Counters(); c.DescriptorsPosted != int64(m.MaxPostBatch+1) || c.ListPosts != 2 {
			t.Fatalf("counted %d descriptors in %d posts, want %d in 2", c.DescriptorsPosted, c.ListPosts, m.MaxPostBatch+1)
		}
	})
}

// Arrivals that find no credit wait, generate nothing, and drain in arrival
// order as credits are posted — each taking the oldest credit.
func TestCreditStallDrainsInArrivalOrder(t *testing.T) {
	eachBackend(t, nil, func(t *testing.T, r *rig) {
		const n = 4
		// A second queue pair carries the "all four have arrived" signal: a's
		// send completions imply delivery, and only b may touch b's queues.
		goA, goB := r.connect()
		goB.PostRecv(verbs.RecvWR{})
		early := -1
		r.hook[bRecv] = func(e verbs.CQE) {
			if e.QP != goB {
				return
			}
			early = len(r.got[bRecv]) - 1 // completions b saw before the signal's own
			for i := 0; i < n; i++ {
				r.qb.PostRecv(verbs.RecvWR{WRID: uint64(10 + i)})
			}
		}
		r.drive(func(p *simtime.Process) {
			for i := 0; i < n; i++ {
				if err := r.qa.PostSend(verbs.SendWR{Op: verbs.OpSend, Inline: []byte{byte(i)}}); err != nil {
					t.Fatal(err)
				}
			}
			r.await(p, aSend, n)
			if err := goA.PostSend(verbs.SendWR{Op: verbs.OpSend, Inline: []byte("go")}); err != nil {
				t.Fatal(err)
			}
		})
		if early != 0 {
			t.Fatalf("%d completions generated without a receive credit", early)
		}
		if len(r.got[bRecv]) != n+1 {
			t.Fatalf("%d receive completions, want %d", len(r.got[bRecv]), n+1)
		}
		for i, e := range r.got[bRecv][1:] {
			if e.QP != r.qb || e.WRID != uint64(10+i) || len(e.Data) != 1 || e.Data[0] != byte(i) {
				t.Fatalf("stalled arrival %d drained as %+v", i, e)
			}
		}
	})
}

// An immediate never overtakes data: when the receiver's completion for a
// write-with-immediate (or for a send posted after writes) is handled, every
// earlier byte on that queue pair has landed.
func TestImmediateNeverOvertakesData(t *testing.T) {
	eachBackend(t, nil, func(t *testing.T, r *rig) {
		const blk, blocks = 512, 32
		src, sreg := r.region(r.a, blk*blocks, 0x35)
		dst, dreg := r.region(r.b, blk*blocks, 0)
		want := append([]byte(nil), r.a.Mem().Bytes(src, blk*blocks)...)
		wrs := make([]verbs.SendWR, blocks)
		for i := range wrs {
			off := mem.Addr(i * blk)
			wrs[i] = verbs.SendWR{Op: verbs.OpRDMAWrite, SGL: []verbs.SGE{{Addr: src + off, Len: blk, Key: sreg.LKey}},
				RemoteAddr: dst + off, RKey: dreg.RKey}
		}
		half := blocks / 2
		wrs[half-1].Op, wrs[half-1].Imm = verbs.OpRDMAWriteImm, 1
		r.qb.PostRecv(verbs.RecvWR{})
		r.qb.PostRecv(verbs.RecvWR{})
		var seen []bool
		r.hook[bRecv] = func(e verbs.CQE) {
			landed := int64(blk * half)
			if e.Data != nil {
				landed = blk * blocks
			}
			seen = append(seen, bytes.Equal(r.b.Mem().Bytes(dst, landed), want[:landed]))
		}
		r.drive(func(p *simtime.Process) {
			if err := r.qa.PostSendList(wrs[:half]); err != nil {
				t.Fatal(err)
			}
			for _, wr := range wrs[half:] {
				if err := r.qa.PostSend(wr); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.qa.PostSend(verbs.SendWR{Op: verbs.OpSend, Inline: []byte("done")}); err != nil {
				t.Fatal(err)
			}
		})
		if len(seen) != 2 || !seen[0] || !seen[1] {
			t.Fatalf("data in place when the immediate / the trailing send was handled: %v, want [true true]", seen)
		}
	})
}

// The Inline payload of a channel send is read when it is posted; the gather
// list of a write is read when it is delivered, which is why its source must
// stay stable until the send completion.
func TestPayloadCapturePoints(t *testing.T) {
	eachBackend(t, nil, func(t *testing.T, r *rig) {
		src, sreg := r.region(r.a, 64, 0x40)
		dst, dreg := r.region(r.b, 64, 0)
		r.qb.PostRecv(verbs.RecvWR{})
		r.drive(func(p *simtime.Process) {
			inline := []byte("as posted")
			if err := r.qa.PostSend(verbs.SendWR{Op: verbs.OpSend, Inline: inline}); err != nil {
				t.Fatal(err)
			}
			copy(inline, "OVERWRITE")
			if !r.virtual {
				return // breaking the stability rule below is a data race where nodes really run concurrently
			}
			if err := r.qa.PostSend(verbs.SendWR{Op: verbs.OpRDMAWrite, SGL: []verbs.SGE{{Addr: src, Len: 64, Key: sreg.LKey}},
				RemoteAddr: dst, RKey: dreg.RKey}); err != nil {
				t.Fatal(err)
			}
			r.a.Mem().Bytes(src, 64)[0] = 0xEE
		})
		if got := string(r.got[bRecv][0].Data); got != "as posted" {
			t.Fatalf("inline payload delivered as %q: it was read after the post returned", got)
		}
		if r.virtual && r.b.Mem().Bytes(dst, 1)[0] != 0xEE {
			t.Fatal("the gather list was snapshotted at post, not read at delivery")
		}
	})
}

// CQE.Data names storage of the fabric's, valid until the handler returns:
// inside the handler it is the payload, and a handler that keeps the slice
// finds it overwritten once the fabric has reused the record it rode in. The
// two ping-pongs make the reuse certain on every backend: b's reply to the
// second ping is snapshotted into the record the first ping arrived in.
func TestRecvDataLifetime(t *testing.T) {
	eachBackend(t, nil, func(t *testing.T, r *rig) {
		pings := [2]string{"first ping...", "second ping.."}
		var kept []byte // the first ping's Data, kept past the handler's return
		var inHandler []string
		r.hook[bRecv] = func(e verbs.CQE) {
			inHandler = append(inHandler, string(e.Data))
			if kept == nil {
				kept = e.Data
			}
			e.QP.PostRecv(verbs.RecvWR{})
			if err := e.QP.PostSend(verbs.SendWR{Op: verbs.OpSend, Inline: []byte("pong pong pong")}); err != nil {
				t.Error(err)
			}
		}
		r.qa.PostRecv(verbs.RecvWR{})
		r.qa.PostRecv(verbs.RecvWR{})
		r.qb.PostRecv(verbs.RecvWR{})
		r.drive(func(p *simtime.Process) {
			for i, ping := range pings {
				if err := r.qa.PostSend(verbs.SendWR{Op: verbs.OpSend, Inline: []byte(ping)}); err != nil {
					t.Fatal(err)
				}
				r.await(p, aRecv, i+1)
			}
		})
		if len(inHandler) != 2 || inHandler[0] != pings[0] || inHandler[1] != pings[1] {
			t.Fatalf("payloads seen inside the handler: %q, want %q", inHandler, pings)
		}
		if string(kept) == pings[0] {
			t.Fatalf("Data kept past the handler's return still reads %q: the record's storage was not reused", kept)
		}
	})
}

// The fault injector's three hooks: a post fault refuses an RDMA post, a CQE
// fault completes it in error with no byte moved, a delay postpones the
// initiator's completion without touching delivery — and channel sends are
// exempt from all of it.
func TestFaultHooks(t *testing.T) {
	eachBackend(t, nil, func(t *testing.T, r *rig) {
		src, sreg := r.region(r.a, 512, 0x50)
		dst, dreg := r.region(r.b, 512, 0)
		write := verbs.SendWR{Op: verbs.OpRDMAWrite, SGL: []verbs.SGE{{Addr: src, Len: 512, Key: sreg.LKey}}, RemoteAddr: dst, RKey: dreg.RKey}
		for i := 0; i < 4; i++ {
			r.qb.PostRecv(verbs.RecvWR{})
		}
		send := func() {
			if err := r.qa.PostSend(verbs.SendWR{Op: verbs.OpSend, Inline: []byte("ctrl")}); err != nil {
				t.Fatalf("channel send under injection: %v", err)
			}
		}
		delays := fault.New(fault.Config{Seed: 1, DelayRate: 1, MaxDelay: 50 * simtime.Microsecond})
		var cqeErr error
		var plain, delayed simtime.Duration
		r.drive(func(p *simtime.Process) {
			r.inject(fault.New(fault.Config{Seed: 1, PostFailRate: 1}))
			if err := r.qa.PostSend(write); !fault.IsInjected(err) {
				t.Fatalf("post under PostFailRate 1: err = %v", err)
			}
			send()
			r.await(p, aSend, 1)

			r.inject(fault.New(fault.Config{Seed: 1, CQEErrorRate: 1}))
			if err := r.qa.PostSend(write); err != nil {
				t.Fatal(err)
			}
			send()
			r.await(p, aSend, 3)
			for _, e := range r.got[aSend][1:] {
				if e.Op == verbs.OpRDMAWrite {
					cqeErr = e.Err
				} else if e.Err != nil {
					t.Fatalf("channel send failed under CQE injection: %v", e.Err)
				}
			}
			dirty := r.virtual && r.b.Mem().Bytes(dst, 1)[0] != 0

			timeWrite := func(n int) simtime.Duration {
				t0 := p.Now()
				wr := write
				wr.Op, wr.Imm = verbs.OpRDMAWriteImm, 7
				if err := r.qa.PostSend(wr); err != nil {
					t.Fatal(err)
				}
				r.await(p, aSend, n)
				return p.Now().Sub(t0)
			}
			r.inject(nil)
			plain = timeWrite(4)
			r.inject(delays)
			delayed = timeWrite(5)
			if dirty {
				t.Error("a descriptor failed by CQE injection moved data")
			}
		})
		if !fault.IsInjected(cqeErr) {
			t.Fatalf("write under CQEErrorRate 1 completed with %v", cqeErr)
		}
		if delays.Stats().Delays != 1 {
			t.Fatalf("%d delays drawn for one successful write", delays.Stats().Delays)
		}
		if r.virtual {
			if delayed <= plain {
				t.Fatalf("delayed completion took %v, undelayed %v", delayed, plain)
			}
			// Both immediates were handled the same time after their post:
			// the delay sits on the completion path only.
			n := len(r.at[bRecv])
			ps, ds := r.at[aSend][3]-simtime.Time(plain), r.at[aSend][4]-simtime.Time(delayed)
			if r.at[bRecv][n-2]-ps != r.at[bRecv][n-1]-ds {
				t.Fatal("an injected completion delay moved the data's delivery")
			}
		}
	})
}

// initiator returns a queue pair of a's with its peer and a function that
// parks a's process until that pair's send queue has completed n entries,
// and returns them all: the rig's own pair and its handler-mode queue, or —
// poll — a second pair whose send queue is polled from the process.
func (r *rig) initiator(poll bool) (qa, qb verbs.QP, wait func(p *simtime.Process, n int) []verbs.CQE) {
	if !poll {
		return r.qa, r.qb, func(p *simtime.Process, n int) []verbs.CQE {
			r.await(p, aSend, n)
			return r.got[aSend]
		}
	}
	cq := r.a.NewCQ()
	qa, qb = r.a.Connect(r.b, cq, r.cq[aRecv], r.cq[bSend], r.cq[bRecv])
	var got []verbs.CQE
	return qa, qb, func(p *simtime.Process, n int) []verbs.CQE {
		for len(got) < n {
			got = append(got, cq.WaitPoll(p))
		}
		return got
	}
}

// quiet fails the test unless node a generated exactly cqes completion
// entries and every flight record of both nodes is back on its free list.
func (r *rig) quiet(cqes int64) {
	r.t.Helper()
	if got := r.a.Counters().Completions; got != cqes {
		r.t.Errorf("the initiator generated %d completion entries, want %d", got, cqes)
	}
	for _, h := range []verbs.HCA{r.a, r.b} {
		if live, _ := h.(*fabric.Node).Flights(); live != 0 {
			r.t.Errorf("node %s: %d flight records still out after the fabric went quiet", h.Name(), live)
		}
	}
}

// Selective signalling: an unsignaled descriptor that succeeds generates no
// send completion — the next signaled one on its queue pair completes after
// it and stands for it — while one that fails always completes, with its
// error and its own ID, and leaves its neighbours alone. The receiver's side
// of a send or an immediate does not change. Handler-mode and polled send
// queues see the same entries.
func TestSelectiveSignalling(t *testing.T) {
	const n, blk = 64, 512
	// tailSignaled is a Multi-W doorbell as core posts it, and the memory it
	// moves: src on a, dst on b.
	tailSignaled := func(r *rig) (wrs []verbs.SendWR, src, dst []byte) {
		wrs = writeList(r, n)
		for i := range wrs[:n-1] {
			wrs[i].Unsignaled = true
		}
		return wrs, r.a.Mem().Bytes(wrs[0].SGL[0].Addr, n*blk), r.b.Mem().Bytes(wrs[0].RemoteAddr, n*blk)
	}
	for _, c := range []struct {
		name string
		poll bool
		run  func(t *testing.T, r *rig, poll bool)
	}{
		{name: "list signaled at its tail", run: func(t *testing.T, r *rig, poll bool) {
			wrs, src, dst := tailSignaled(r)
			qp, _, wait := r.initiator(poll)
			r.drive(func(p *simtime.Process) {
				if err := qp.PostSendList(wrs); err != nil {
					t.Fatal(err)
				}
				got := wait(p, 1)
				// The one completion is the tail's, and by the time it is
				// seen every member's bytes are in place.
				if e := got[0]; e.WRID != n || e.Err != nil || e.Op != verbs.OpRDMAWrite || e.Bytes != blk {
					t.Errorf("completion = %+v, want the tail's", e)
				}
				if !bytes.Equal(dst, src) {
					t.Error("the tail completed before every member had landed")
				}
			})
			r.quiet(1)
		}},
		{name: "member with a stale rkey", run: func(t *testing.T, r *rig, poll bool) {
			// Member bad writes under a registration of its own block that is
			// pulled before the post, its slot of b's table already handed to
			// the next registration of the same bytes. Its error completion
			// comes after everything ahead of it has landed and before the
			// tail's; the list is a window of wrs until the tail completes,
			// and the poster's to rewrite from that moment.
			const bad = 20
			wrs, src, dst := tailSignaled(r)
			tab := r.b.Mem().Reg()
			own, err := tab.Register(wrs[bad].RemoteAddr, blk)
			if err != nil {
				t.Fatal(err)
			}
			wrs[bad].RKey = own.RKey
			if err := tab.Deregister(own); err != nil {
				t.Fatal(err)
			}
			if again, err := tab.Register(wrs[bad].RemoteAddr, blk); err != nil || again.RKey == own.RKey {
				t.Fatalf("re-registration = %+v, %v, want a key of its own", again, err)
			}
			scribble := func() {
				for i := range wrs {
					wrs[i] = verbs.SendWR{Op: verbs.OpRecv, WRID: 999, RKey: 999}
				}
			}
			r.hook[aSend] = func(e verbs.CQE) { // handler mode: the moment the entry is seen
				if e.WRID == n {
					scribble()
				} else if !bytes.Equal(dst[:bad*blk], src[:bad*blk]) {
					t.Errorf("member %d's error seen with members ahead of it still in flight", e.WRID)
				}
			}
			qp, _, wait := r.initiator(poll)
			r.drive(func(p *simtime.Process) {
				if err := qp.PostSendList(wrs); err != nil {
					t.Fatal(err)
				}
				got := wait(p, 2)
				if e := got[0]; e.WRID != bad+1 || e.Err == nil || !strings.Contains(e.Err.Error(), "remote access error") {
					t.Errorf("first completion = %+v, want member %d's remote access error", e, bad+1)
				}
				if e := got[1]; e.WRID != n || e.Err != nil {
					t.Errorf("second completion = %+v, want the tail's, clean", e)
				}
				scribble()
			})
			for i := 0; i < n; i++ {
				lo, hi := i*blk, (i+1)*blk
				if i == bad {
					if !bytes.Equal(dst[lo:hi], make([]byte, blk)) {
						t.Error("the refused member moved bytes")
					}
				} else if !bytes.Equal(dst[lo:hi], src[lo:hi]) {
					t.Fatalf("member %d did not land beside the refused one", i+1)
				}
			}
			r.quiet(2)
		}},
		{name: "unsignaled reads behind a signaled one", run: func(t *testing.T, r *rig, poll bool) {
			// The list runs b → a: each read scatters a block of b's into a's.
			wrs, local, remote := tailSignaled(r)
			for i := range remote {
				remote[i] = byte(i * 13)
			}
			for i := range wrs {
				wrs[i].Op = verbs.OpRDMARead
			}
			qp, _, wait := r.initiator(poll)
			r.drive(func(p *simtime.Process) {
				if err := qp.PostSendList(wrs); err != nil {
					t.Fatal(err)
				}
				if e := wait(p, 1)[0]; e.WRID != n || e.Err != nil {
					t.Errorf("completion = %+v, want the tail's", e)
				}
				if !bytes.Equal(local, remote) {
					t.Error("the last read completed before the reads ahead of it had landed")
				}
			})
			r.quiet(1)
		}},
		{name: "unsignaled send and immediate", run: func(t *testing.T, r *rig, poll bool) {
			wrs, src, dst := tailSignaled(r)
			imm := wrs[0]
			imm.Op, imm.Imm = verbs.OpRDMAWriteImm, 9
			qp, peer, _ := r.initiator(poll)
			for i := 0; i < 3; i++ {
				peer.PostRecv(verbs.RecvWR{WRID: uint64(70 + i)})
			}
			r.drive(func(p *simtime.Process) {
				for _, wr := range []verbs.SendWR{{Op: verbs.OpSend, Inline: []byte("quiet"), Imm: 8, Unsignaled: true}, imm} {
					if err := qp.PostSend(wr); err != nil {
						t.Fatal(err)
					}
				}
			})
			// The process waited for nothing: the fabric went quiet with both
			// delivered, two credits consumed, and no entry on a's side.
			if len(r.got[bRecv]) != 2 {
				t.Fatalf("%d receive completions, want 2", len(r.got[bRecv]))
			}
			if e := r.got[bRecv][0]; e.WRID != 70 || string(e.Data) != "quiet" || e.Imm != 8 {
				t.Errorf("the send arrived as %+v", e)
			}
			if e := r.got[bRecv][1]; e.WRID != 71 || !e.HasImm || e.Imm != 9 || e.Bytes != blk {
				t.Errorf("the immediate arrived as %+v", e)
			}
			if !bytes.Equal(dst[:blk], src[:blk]) {
				t.Error("the unsignaled write with immediate moved no data")
			}
			if peer.RecvCredits() != 1 {
				t.Errorf("%d credits left, want 1", peer.RecvCredits())
			}
			r.quiet(0)
		}},
		{name: "injected completion fault", run: func(t *testing.T, r *rig, poll bool) {
			wrs, _, dst := tailSignaled(r)
			r.inject(fault.New(fault.Config{Seed: 1, CQEErrorRate: 1}))
			qp, _, wait := r.initiator(poll)
			r.drive(func(p *simtime.Process) {
				if err := qp.PostSend(wrs[0]); err != nil {
					t.Fatal(err)
				}
				if e := wait(p, 1)[0]; e.WRID != 1 || !fault.IsInjected(e.Err) {
					t.Errorf("completion = %+v, want the unsignaled descriptor's injected error", e)
				}
			})
			if dst[0] != 0 {
				t.Error("a descriptor failed by CQE injection moved data")
			}
			r.quiet(1)
		}},
		{name: "every member signaled and delayed", run: func(t *testing.T, r *rig, poll bool) {
			// Every member draws a completion delay and its train's tail
			// serves it: each its own where every signaled descriptor ends a
			// train, and then trains may finish out of order; all of them at
			// the end where the whole post is one train, which completes in
			// posting order. Either way every member completes once, clean.
			wrs, src, dst := tailSignaled(r)
			for i := range wrs {
				wrs[i].Unsignaled = false
			}
			inj := fault.New(fault.Config{Seed: 5, DelayRate: 1, MaxDelay: 20 * simtime.Microsecond})
			r.inject(inj)
			qp, _, wait := r.initiator(poll)
			r.drive(func(p *simtime.Process) {
				if err := qp.PostSendList(wrs); err != nil {
					t.Fatal(err)
				}
				seen := map[uint64]bool{}
				for i, e := range wait(p, n) {
					if e.WRID < 1 || e.WRID > n || seen[e.WRID] || e.Err != nil || e.Bytes != blk {
						t.Fatalf("completion %d = %+v, want a member's, once and clean", i, e)
					}
					if seen[e.WRID] = true; !r.virtual && e.WRID != uint64(i+1) {
						t.Fatalf("completion %d = %+v: one train completed out of posting order", i, e)
					}
				}
				if !bytes.Equal(dst, src) {
					t.Error("the list completed before every member had landed")
				}
			})
			if got := inj.Stats().Delays; got != n {
				t.Errorf("%d delays drawn for %d landed writes", got, n)
			}
			r.quiet(n)
		}},
		{name: "injected faults inside a list", run: func(t *testing.T, r *rig, poll bool) {
			// Completion is in posting order for failures too: a member that
			// draws a fault reports it after everything posted ahead of it
			// has landed, and ahead of the tail, which reports last whether
			// it failed or not. The immediate in the middle cuts the list
			// into two trains where trains are cut at all.
			wrs, src, dst := tailSignaled(r)
			wrs[n/2].Op, wrs[n/2].Imm = verbs.OpRDMAWriteImm, 3
			qp, peer, wait := r.initiator(poll)
			peer.PostRecv(verbs.RecvWR{})
			failed := map[uint64]bool{}
			r.hook[aSend] = func(e verbs.CQE) { // handler mode: the moment the entry is seen
				if e.Err != nil {
					failed[e.WRID] = true
				}
				for i := 0; i < int(e.WRID); i++ {
					if lo, hi := i*blk, (i+1)*blk; !failed[uint64(i+1)] && !bytes.Equal(dst[lo:hi], src[lo:hi]) {
						t.Errorf("member %d completed with member %d, posted ahead of it, still in flight", e.WRID, i+1)
					}
				}
			}
			var errs int64
			r.drive(func(p *simtime.Process) {
				for _, rate := range []float64{0.25, 1} {
					inj := fault.New(fault.Config{Seed: 3, CQEErrorRate: rate})
					r.inject(inj)
					if err := qp.PostSendList(wrs); err != nil {
						t.Fatal(err)
					}
					drawn := inj.Stats().CQEFaults
					if drawn == 0 || rate < 1 && drawn == n {
						t.Fatalf("rate %v: %d of %d descriptors drew a fault", rate, drawn, n)
					}
					tailOK := int64(0)
					if rate < 1 {
						tailOK = 1 // seed 3 spares the tail at the lower rate
					}
					got := wait(p, int(errs+drawn+tailOK))[errs:]
					errs += drawn + tailOK
					for i, e := range got {
						if last := i == len(got)-1; last && e.WRID != n || (e.Err == nil) != (last && rate < 1) ||
							i > 0 && e.WRID <= got[i-1].WRID {
							t.Fatalf("rate %v: completion %d of %d = %+v, want the failed members in posting order, then the tail", rate, i, len(got), e)
						}
					}
				}
			})
			r.quiet(errs)
		}},
	} {
		for _, poll := range []bool{false, true} {
			mode := map[bool]string{false: "handler", true: "polled"}[poll]
			t.Run(c.name+"/"+mode, func(t *testing.T) {
				eachBackend(t, nil, func(t *testing.T, r *rig) { c.run(t, r, poll) })
			})
		}
	}
}
