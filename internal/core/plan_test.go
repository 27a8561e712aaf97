package core

import (
	"bytes"
	"testing"

	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/mem"
)

// Transfer plans (plan.go): a warm message whose buffers, layouts and
// registrations are the previous one's walks nothing, and one whose are not
// is rebuilt. Every case below sends at least eight messages and requires
// each to arrive byte-identical to what the reference packer reads out of the
// send buffer, with a pattern of its own so that a stale window shows as
// stale bytes; under -tags dtdebug every plan hit is also rebuilt and
// compared field by field (debug_on.go).

// planWorld is a two-rank Multi-W world on backend with inj (nil: none).
func planWorld(t *testing.T, backend string, inj *fault.Injector) *testWorld {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scheme = SchemeMultiW
	return newWorldOn(t, backend, 2, cfg, 64<<20, inj)
}

// planMsg sends one message of dt from sbuf on rank from into rbuf on the
// other rank, stamped with seed, runs the world dry and fails the test unless
// it arrived byte-identical.
func planMsg(t *testing.T, w *testWorld, from int, dt *datatype.Type, sbuf, rbuf mem.Addr, seed byte) {
	t.Helper()
	to := 1 - from
	sent := fillMsg(w.eps[from], sbuf, dt, 1, seed)
	r := w.eps[to].Irecv(rbuf, 1, dt, from, 5)
	s := w.eps[from].Isend(sbuf, 1, dt, to, 5)
	if err := w.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Done() || !r.Done() || s.Err != nil || r.Err != nil || !bytes.Equal(readMsg(w.eps[to], rbuf, dt, 1), sent) {
		t.Fatalf("message %#x: send %v/%v, receive %v/%v, or the bytes differ", seed, s.Done(), s.Err, r.Done(), r.Err)
	}
	s.Free()
	r.Free()
}

// walks reads ep's OGR walks and Multi-W window builds.
func walks(ep *Endpoint) [2]int { return [2]int{ep.plans.ogrWalks, ep.plans.duals} }

// planned counts the windows ep holds under a key.
func planned(ep *Endpoint) (n int) {
	for i := range ep.plans.plans {
		if ep.plans.plans[i].key != (planKey{}) {
			n++
		}
	}
	return n
}

// After the first round trip, a warm one walks no layout for OGR and builds
// no descriptor window, on either rank.
func TestWarmMessageRebuildsNothing(t *testing.T) {
	dt := datatype.Must(datatype.TypeVector(512, 128, 256, datatype.Int32))
	for _, backend := range deterministic {
		t.Run(backend, func(t *testing.T) {
			w := planWorld(t, backend, nil)
			a, b, c := allocFor(w.eps[0], dt, 1), allocFor(w.eps[1], dt, 1), allocFor(w.eps[0], dt, 1)
			var first [2][2]int
			for k := 0; k < 8; k++ {
				planMsg(t, w, 0, dt, a, b, byte(2*k))
				planMsg(t, w, 1, dt, b, c, byte(2*k+1))
				if k == 0 {
					first = [2][2]int{walks(w.eps[0]), walks(w.eps[1])}
				}
			}
			// Rank 1 receives into b and sends from it: one grouping serves both.
			if want := [2][2]int{{2, 1}, {1, 1}}; first != want {
				t.Errorf("the first round trip walked (OGR, window) %v, want %v", first, want)
			}
			if got := [2][2]int{walks(w.eps[0]), walks(w.eps[1])}; got != first {
				t.Errorf("seven warm round trips walked (OGR, window) %v in all, %v of it after the first", got, first)
			}
			quiesced(t, w, 0, 0)
		})
	}
}

// A plan is posted again only while everything its window was built from
// holds; each case changes one thing between messages and counts the windows
// the sender had to build.
func TestPlanInvalidation(t *testing.T) {
	// dtB spans twice denseVec's extent: groups kept from denseVec would not
	// cover it.
	dtB := datatype.Must(datatype.TypeVector(batchRuns, 64, 512, datatype.Int32))
	// flush deregisters every idle region of ep's pin-down cache.
	flush := func(t *testing.T, ep *Endpoint) {
		ops, err := ep.userReg.Flush()
		if err != nil {
			t.Fatal(err)
		}
		ep.accountReg(ops)
	}
	for _, tc := range []struct {
		name string
		// msg sends message k; ogr and duals are the groupings the sender
		// walks and the windows it builds over the eight.
		msg        func(t *testing.T, w *testWorld, k int, sbuf, rbuf [2]mem.Addr)
		ogr, duals int
	}{
		{"FreeType and a new layout at its index", func(t *testing.T, w *testWorld, k int, sbuf, rbuf [2]mem.Addr) {
			dt := denseVec
			if k >= 4 {
				dt = dtB
			}
			if k == 4 {
				for _, ep := range w.eps {
					idx := ep.CommitType(denseVec)
					ep.FreeType(denseVec)
					if got := ep.CommitType(dtB); got != idx {
						t.Fatalf("rank %d committed the new layout at %d, want the freed index %d", ep.Rank(), got, idx)
					}
				}
			}
			planMsg(t, w, 0, dt, sbuf[0], rbuf[0], byte(k))
		}, 2, 2},
		{"receiver's region deregistered", func(t *testing.T, w *testWorld, k int, sbuf, rbuf [2]mem.Addr) {
			flush(t, w.eps[1])
			planMsg(t, w, 0, denseVec, sbuf[0], rbuf[0], byte(k))
		}, 1, 8},
		{"pin-down cache evicts a side's region", func(t *testing.T, w *testWorld, k int, sbuf, rbuf [2]mem.Addr) {
			if k == 0 {
				for _, ep := range w.eps {
					ep.userReg = mem.NewRegCache(ep.Mem().Reg(), 1<<20, true)
				}
			}
			// An unrelated megabyte through the cache pushes the idle message
			// region out: the sender's on even messages, the receiver's on odd.
			ep := w.eps[k%2]
			ev := ep.Counters().RegCacheEvictions
			big := ep.Mem().MustAlloc(1 << 20)
			r, ops, err := ep.userReg.Acquire(big, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			ep.accountReg(ops)
			ep.releaseUserRegions([]*mem.Region{r})
			if k > 0 && ep.Counters().RegCacheEvictions == ev {
				t.Fatalf("message %d: nothing was evicted", k)
			}
			planMsg(t, w, 0, denseVec, sbuf[0], rbuf[0], byte(k))
		}, 1, 8},
		{"another buffer on either side", func(t *testing.T, w *testWorld, k int, sbuf, rbuf [2]mem.Addr) {
			planMsg(t, w, 0, denseVec, sbuf[k%2], rbuf[k/2%2], byte(k))
		}, 2, 4},
	} {
		for _, backend := range deterministic {
			t.Run(backend+"/"+tc.name, func(t *testing.T) {
				w := planWorld(t, backend, nil)
				var sbuf, rbuf [2]mem.Addr
				for i := range sbuf {
					sbuf[i], rbuf[i] = allocFor(w.eps[0], dtB, 1), allocFor(w.eps[1], dtB, 1)
				}
				for k := 0; k < 8; k++ {
					tc.msg(t, w, k, sbuf, rbuf)
				}
				if got, want := walks(w.eps[0]), [2]int{tc.ogr, tc.duals}; got != want {
					t.Errorf("the sender walked (OGR, window) %v for eight messages, want %v", got, want)
				}
				quiesced(t, w, 0, 0)
			})
		}
	}
}

// While a plan's window is in flight it is not shared: a second message with
// its key builds into its own op's arena.
func TestPlanInFlightIsNotShared(t *testing.T) {
	for _, backend := range deterministic {
		t.Run(backend, func(t *testing.T) {
			w := planWorld(t, backend, nil)
			sbuf, rbuf := allocFor(w.eps[0], denseVec, 1), allocFor(w.eps[1], denseVec, 1)
			for k := 0; k < 4; k++ {
				sent := fillMsg(w.eps[0], sbuf, denseVec, 1, byte(k))
				var reqs []*Request
				for i := 0; i < 2; i++ {
					reqs = append(reqs, w.eps[1].Irecv(rbuf, 1, denseVec, 0, i), w.eps[0].Isend(sbuf, 1, denseVec, 1, i))
				}
				shared := false
				for w.eng.Step() {
					if ops := w.eps[0].peers[1].sends; len(ops) == 2 && ops[0].allPosted && ops[1].allPosted {
						own := ops[0]
						if own.plan != nil {
							own = ops[1]
						}
						if own.plan != nil || len(own.wrs.wrs) != batchRuns {
							t.Fatalf("two messages in flight: plans %p and %p, %d descriptors in the second's arena",
								ops[0].plan, ops[1].plan, len(own.wrs.wrs))
						}
						shared = true
					}
				}
				if !shared {
					t.Fatal("the two messages were never in flight together")
				}
				for _, r := range reqs {
					if !r.Done() || r.Err != nil {
						t.Fatalf("request done %v, err %v", r.Done(), r.Err)
					}
					r.Free()
				}
				if !bytes.Equal(readMsg(w.eps[1], rbuf, denseVec, 1), sent) {
					t.Fatal("the bytes differ")
				}
			}
			// The first pair's first message builds the plan; every later
			// first message posts it, and every second message builds its own.
			if got := w.eps[0].plans.duals; got != 1+4 {
				t.Errorf("the sender built %d windows for four pairs, want 5", got)
			}
			quiesced(t, w, 0, 0)
		})
	}
}

// A retry rewrites the window it re-rings (its failed members move to the
// front), so the plan that held it is dropped and the next message builds
// afresh: TestImmediateWaitsForRerungMember's message, ten times on the same
// buffers, under an injector that re-rings members of some windows and not of
// others. Were the compacted window posted again, runs of that message would
// keep the previous one's bytes.
func TestRerungWindowIsRebuilt(t *testing.T) {
	const runs, seed, msgs = 48, 3, 10
	dt := datatype.Must(datatype.TypeVector(runs, 128, 256, datatype.Int32))
	for _, backend := range deterministic {
		t.Run(backend, func(t *testing.T) {
			inj := fault.New(fault.Config{Seed: seed, CQEErrorRate: 0.01})
			w := planWorld(t, backend, inj)
			sbuf, rbuf := allocFor(w.eps[0], dt, 1), allocFor(w.eps[1], dt, 1)
			dropped, rebuilt := 0, 0
			for k := 0; k < msgs; k++ {
				before := w.eps[0].plans.duals
				sent := fillMsg(w.eps[0], sbuf, dt, 1, byte(k))
				r := w.eps[1].Irecv(rbuf, 1, dt, 0, 5)
				s := w.eps[0].Isend(sbuf, 1, dt, 1, 5)
				landed := func() bool { return bytes.Equal(readMsg(w.eps[1], rbuf, dt, 1), sent) }
				for w.eng.Step() {
					if r.Done() && !landed() {
						t.Fatalf("message %d: the receive completed with a run missing", k)
					}
				}
				if s.Err != nil || r.Err != nil || !r.Done() || !landed() {
					t.Fatalf("message %d: send %v, receive %v (done %v), bytes identical %v", k, s.Err, r.Err, r.Done(), landed())
				}
				s.Free()
				r.Free()
				if k > 0 && w.eps[0].plans.duals > before {
					rebuilt++
				}
				if planned(w.eps[0]) == 0 && k < msgs-1 {
					dropped++
				}
			}
			if dropped == 0 || rebuilt != dropped || w.eps[0].plans.duals == msgs {
				t.Fatalf("seed %d: %d windows dropped for a re-ring, %d rebuilt after the first, %d built in all; the case is some of each, and a rebuild only after a drop",
					seed, dropped, rebuilt, w.eps[0].plans.duals)
			}
			quiesced(t, w, 0, 0)
		})
	}
}
