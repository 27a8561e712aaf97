package verbs_test

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/simtime"
	"repro/internal/verbs"
)

// writeList builds n one-SGE 512-byte writes from a's registered memory
// into b's, the shape a Multi-W transfer posts.
func writeList(r *rig, n int) []verbs.SendWR {
	const blk = 512
	src, sreg := r.region(r.a, int64(n*blk), 0x61)
	dst, dreg := r.region(r.b, int64(n*blk), 0)
	wrs := make([]verbs.SendWR, n)
	for i := range wrs {
		off := mem.Addr(i * blk)
		wrs[i] = verbs.SendWR{WRID: uint64(i + 1), Op: verbs.OpRDMAWrite,
			SGL: []verbs.SGE{{Addr: src + off, Len: blk, Key: sreg.LKey}}, RemoteAddr: dst + off, RKey: dreg.RKey}
	}
	return wrs
}

// A warm list post of 64 writes, driven to its last completion handler,
// allocates nothing on the virtual-time backends: every train rides a
// recycled flight record over its window of the list from post to its tail's
// handler — or, the tail unsignaled, to its ack — the engine is handed
// pre-bound stage functions, and the payload is never staged.
func TestWarmListPostAllocatesNothing(t *testing.T) {
	for _, be := range backends[:2] { // sim, shm: AllocsPerRun needs one thread of execution
		t.Run(be.name, func(t *testing.T) {
			for _, signaled := range []int{64, 1} { // every descriptor, or the tail alone
				r := newRig(t, be, nil)
				wrs := writeList(r, 64)
				for i := range wrs[:len(wrs)-signaled] {
					wrs[i].Unsignaled = true
				}
				eng := r.a.Engine()
				round := func() {
					if err := r.qa.PostSendList(wrs); err != nil {
						t.Fatal(err)
					}
					if err := eng.Run(); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 4; i++ {
					round() // warm: record free list, event heap, the rig's completion log
				}
				done := len(r.got[aSend])
				r.cq[aSend].SetHandler(func(e verbs.CQE) {
					if e.Err != nil {
						t.Error(e.Err)
					}
					done++
				})
				if avg := testing.AllocsPerRun(50, round); avg != 0 {
					t.Fatalf("%d signaled: %.2f allocations per warm 64-descriptor list post, want 0", signaled, avg)
				}
				if want := (4 + 51) * signaled; done != want {
					t.Fatalf("%d signaled: %d completions handled, want %d", signaled, done, want)
				}
			}
		})
	}
}

// Ten thousand descriptors of every kind — list posts and single posts,
// writes with and without immediates, reads, sends that stall on credits —
// leave every flight record back on its node's free list, and the lists no
// longer than the posts in flight at the deepest moment needed. Run under
// -race this is also the hand-over check for the concurrent backend, where a
// record is written by the initiator's driver, then the responder's, then
// the initiator's again.
func TestRecordsAllComeHome(t *testing.T) {
	eachBackend(t, nil, func(t *testing.T, r *rig) {
		const listLen, rounds = 64, (10000 + 67) / (64 + 4)
		wrs := writeList(r, listLen)
		wrs[listLen-1].Op, wrs[listLen-1].Imm = verbs.OpRDMAWriteImm, 1
		read := wrs[0]
		read.Op = verbs.OpRDMARead
		// Half the list, the read and the second send are unsignaled: their
		// records go home without a completion to carry them. (wrs[1], posted
		// on its own below, is one of the signaled half.)
		for i := 0; i < listLen; i += 2 {
			wrs[i].Unsignaled = true
		}
		read.Unsignaled = true
		const signaled = listLen/2 + 2 // of a round's listLen+4 descriptors
		// b returns one credit per completion it handles; with two credits and
		// three arrivals a round, an arrival that outruns b's handlers stalls.
		r.qb.PostRecv(verbs.RecvWR{})
		r.qb.PostRecv(verbs.RecvWR{})
		r.hook[bRecv] = func(e verbs.CQE) { e.QP.PostRecv(verbs.RecvWR{}) }
		r.drive(func(p *simtime.Process) {
			for i := 1; i <= rounds; i++ {
				if err := r.qa.PostSendList(wrs); err != nil {
					t.Fatal(err)
				}
				for _, wr := range []verbs.SendWR{read, {Op: verbs.OpSend, Inline: []byte("a")}, wrs[1], {Op: verbs.OpSend, Inline: []byte("b"), Unsignaled: true}} {
					if err := r.qa.PostSend(wr); err != nil {
						t.Fatal(err)
					}
				}
				r.await(p, aSend, i*signaled)
				for _, e := range r.got[aSend][(i-1)*signaled:] {
					if e.Err != nil {
						t.Fatal(e.Err)
					}
				}
			}
		})
		if got, want := len(r.got[bRecv]), 3*rounds; got != want {
			t.Fatalf("%d arrivals handled, want %d", got, want)
		}
		for _, h := range []verbs.HCA{r.a, r.b} {
			live, free := h.(*fabric.Node).Flights()
			if live != 0 {
				t.Errorf("node %s: %d flight records still out after the fabric went quiet", h.Name(), live)
			}
			// A record is a train's: a round has at most one train per
			// signaled member of its list and its four single posts in
			// flight, plus b's three arrivals — not its 68 descriptors. A
			// free list that runs dry makes as many records as are out, so
			// it holds at most twice that peak.
			if peak := signaled + 8; free == 0 || free > 2*peak {
				t.Errorf("node %s: %d records on the free list, want 1..%d (twice one round's posts, reused)", h.Name(), free, 2*peak)
			}
		}
	})
}
