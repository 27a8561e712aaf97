package core

import (
	"bytes"

	"testing"

	"repro/internal/datatype"
	"repro/internal/simtime"
)

func TestWaitAny(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PoolSize = 4 << 20
	w := newTestWorld(t, 2, cfg, 48<<20)
	big := datatype.Must(datatype.TypeContiguous(512<<10, datatype.Int32)) // slow
	small := datatype.Must(datatype.TypeContiguous(64, datatype.Int32))    // fast
	w.run(t, func(p *simtime.Process, ep *Endpoint) {
		if ep.Rank() == 0 {
			b1 := allocFor(ep, big, 1)
			b2 := allocFor(ep, small, 1)
			fillMsg(ep, b1, big, 1, 1)
			fillMsg(ep, b2, small, 1, 2)
			r1 := ep.Isend(b1, 1, big, 1, 1)
			r2 := ep.Isend(b2, 1, small, 1, 2)
			WaitAll(p, r1, r2)
		} else {
			b1 := allocFor(ep, big, 1)
			b2 := allocFor(ep, small, 1)
			r1 := ep.Irecv(b1, 1, big, 0, 1)
			r2 := ep.Irecv(b2, 1, small, 0, 2)
			// The small eager message must complete first.
			idx := WaitAny(p, r1, r2)
			if idx != 1 {
				t.Errorf("WaitAny returned %d, want 1 (the small message)", idx)
			}
			WaitAll(p, r1, r2)
		}
	})
}

func TestZeroSizeMessage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PoolSize = 4 << 20
	w := newTestWorld(t, 2, cfg, 32<<20)
	w.run(t, func(p *simtime.Process, ep *Endpoint) {
		buf := ep.Mem().MustAlloc(16)
		if ep.Rank() == 0 {
			if err := ep.Send(p, buf, 0, datatype.Byte, 1, 0); err != nil {
				t.Errorf("zero-size send: %v", err)
			}
		} else {
			req, err := ep.Recv(p, buf, 0, datatype.Byte, 0, 0)
			if err != nil {
				t.Errorf("zero-size recv: %v", err)
			}
			if req.Bytes != 0 {
				t.Errorf("zero-size recv bytes = %d", req.Bytes)
			}
		}
	})
}

// Exactly the eager threshold must take the rendezvous path; one byte less
// stays eager.
func TestEagerThresholdBoundary(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PoolSize = 4 << 20
	for _, tc := range []struct {
		bytes     int64
		wantEager bool
	}{
		{cfg.EagerThreshold - 1, true},
		{cfg.EagerThreshold, false},
	} {
		w := newTestWorld(t, 2, cfg, 32<<20)
		dt := datatype.Must(datatype.TypeContiguous(int(tc.bytes), datatype.Byte))
		w.run(t, func(p *simtime.Process, ep *Endpoint) {
			buf := allocFor(ep, dt, 1)
			if ep.Rank() == 0 {
				fillMsg(ep, buf, dt, 1, 9)
				ep.Send(p, buf, 1, dt, 1, 0)
			} else {
				ep.Recv(p, buf, 1, dt, 0, 0)
			}
		})
		c := w.eps[0].Counters()
		if tc.wantEager && (c.EagerSends != 1 || c.RendezvousSends != 0) {
			t.Errorf("%d bytes: eager=%d rndv=%d, want eager", tc.bytes, c.EagerSends, c.RendezvousSends)
		}
		if !tc.wantEager && (c.EagerSends != 0 || c.RendezvousSends != 1) {
			t.Errorf("%d bytes: eager=%d rndv=%d, want rendezvous", tc.bytes, c.EagerSends, c.RendezvousSends)
		}
	}
}

// The Multi-W layout cache must be maintained independently per peer.
func TestMultiWLayoutCachePerPeer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = SchemeMultiW
	cfg.PoolSize = 4 << 20
	vec := datatype.Must(datatype.TypeVector(64, 512, 1024, datatype.Int32)) // 128 KB
	w := newTestWorld(t, 3, cfg, 48<<20)
	w.run(t, func(p *simtime.Process, ep *Endpoint) {
		switch ep.Rank() {
		case 0:
			buf := allocFor(ep, vec, 1)
			fillMsg(ep, buf, vec, 1, 1)
			// Two sends to each receiver.
			for i := 0; i < 2; i++ {
				ep.Send(p, buf, 1, vec, 1, i)
				ep.Send(p, buf, 1, vec, 2, i)
			}
		default:
			buf := allocFor(ep, vec, 1)
			for i := 0; i < 2; i++ {
				ep.Recv(p, buf, 1, vec, 0, i)
			}
		}
	})
	// Each receiver ships its layout once; the sender hits its cache once
	// per receiver.
	for _, r := range []int{1, 2} {
		if got := w.eps[r].Counters().TypeLayoutsSent; got != 1 {
			t.Errorf("rank %d TypeLayoutsSent = %d, want 1", r, got)
		}
	}
	if got := w.eps[0].Counters().TypeCacheHits; got != 2 {
		t.Errorf("sender TypeCacheHits = %d, want 2", got)
	}
}

// Bidirectional simultaneous rendezvous traffic on one pair must not
// deadlock or corrupt.
func TestBidirectionalRendezvous(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBCSPUP, SchemeMultiW, SchemePRRS} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			cfg.PoolSize = 4 << 20
			vec := datatype.Must(datatype.TypeVector(256, 64, 128, datatype.Int32)) // 64 KB
			w := newTestWorld(t, 2, cfg, 48<<20)
			sent := make([][]byte, 2)
			got := make([][]byte, 2)
			w.run(t, func(p *simtime.Process, ep *Endpoint) {
				me := ep.Rank()
				peer := 1 - me
				out := allocFor(ep, vec, 1)
				in := allocFor(ep, vec, 1)
				sent[me] = fillMsg(ep, out, vec, 1, byte(0x40+me))
				rr := ep.Irecv(in, 1, vec, peer, 0)
				sr := ep.Isend(out, 1, vec, peer, 0)
				WaitAll(p, rr, sr)
				got[me] = readMsg(ep, in, vec, 1)
			})
			for me := 0; me < 2; me++ {
				if !bytes.Equal(got[me], sent[1-me]) {
					t.Fatalf("rank %d received corrupt data", me)
				}
			}
		})
	}
}

// Iprobe must distinguish communicator contexts at the core level.
func TestIprobeCtxIsolation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PoolSize = 4 << 20
	w := newTestWorld(t, 2, cfg, 32<<20)
	w.run(t, func(p *simtime.Process, ep *Endpoint) {
		if ep.Rank() == 0 {
			buf := ep.Mem().MustAlloc(64)
			r := ep.IsendCtx(7, buf, 64, datatype.Byte, 1, 3)
			r.Wait(p)
			return
		}
		p.Sleep(simtime.Millisecond)
		if _, ok := ep.IprobeCtx(0, AnySource, AnyTag); ok {
			t.Error("ctx-7 message visible in ctx 0")
		}
		st, ok := ep.IprobeCtx(7, AnySource, AnyTag)
		if !ok || st.Tag != 3 || st.Bytes != 64 {
			t.Errorf("ctx-7 probe = %+v ok=%v", st, ok)
		}
		buf := ep.Mem().MustAlloc(64)
		r := ep.IrecvCtx(7, buf, 64, datatype.Byte, 0, 3)
		r.Wait(p)
	})
}

// Every scheme must keep its pools balanced: after a burst of traffic all
// slots are back and nothing leaks.
func TestPoolBalanceAfterBurst(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBCSPUP, SchemeRWGUP, SchemePRRS} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			cfg.PoolSize = 1 << 20                                                   // 8 slots: force recycling
			vec := datatype.Must(datatype.TypeVector(512, 128, 256, datatype.Int32)) // 256 KB
			w := newTestWorld(t, 2, cfg, 64<<20)
			w.run(t, func(p *simtime.Process, ep *Endpoint) {
				buf := allocFor(ep, vec, 1)
				if ep.Rank() == 0 {
					fillMsg(ep, buf, vec, 1, 5)
					for i := 0; i < 10; i++ {
						ep.Send(p, buf, 1, vec, 1, 0)
					}
				} else {
					for i := 0; i < 10; i++ {
						ep.Recv(p, buf, 1, vec, 0, 0)
					}
				}
			})
			for _, ep := range w.eps {
				if got := ep.packPool.available(); got != ep.packPool.totalSlots() {
					t.Fatalf("rank %d pack pool leaked: %d/%d", ep.Rank(), got, ep.packPool.totalSlots())
				}
				if got := ep.unpackPool.available(); got != ep.unpackPool.totalSlots() {
					t.Fatalf("rank %d unpack pool leaked: %d/%d", ep.Rank(), got, ep.unpackPool.totalSlots())
				}
				if ep.activeSends != 0 || ep.activeRecvs != 0 {
					t.Fatalf("rank %d leaked ops: %s", ep.Rank(), ep.DebugState())
				}
				if ps := ep.PoolStats(); ps.LiveSendOps != 0 || ps.LiveRecvOps != 0 {
					t.Fatalf("rank %d leaked pooled ops: %+v", ep.Rank(), ps)
				}
				if ep.wrLive() != 0 {
					t.Fatalf("rank %d leaked %d completion records", ep.Rank(), ep.wrLive())
				}
			}
		})
	}
}

// User-buffer registrations must balance after traffic with the cache off.
func TestRegistrationBalance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = SchemeMultiW
	cfg.RegCache = false
	cfg.PoolSize = 4 << 20
	vec := datatype.Must(datatype.TypeVector(128, 512, 1024, datatype.Int32))
	w := newTestWorld(t, 2, cfg, 48<<20)
	w.run(t, func(p *simtime.Process, ep *Endpoint) {
		buf := allocFor(ep, vec, 1)
		if ep.Rank() == 0 {
			fillMsg(ep, buf, vec, 1, 1)
			for i := 0; i < 5; i++ {
				ep.Send(p, buf, 1, vec, 1, 0)
			}
		} else {
			for i := 0; i < 5; i++ {
				ep.Recv(p, buf, 1, vec, 0, 0)
			}
		}
	})
	for _, ep := range w.eps {
		c := ep.Counters()
		if c.Registrations == 0 {
			t.Fatalf("rank %d registered nothing", ep.Rank())
		}
		if c.Registrations != c.Deregistrations {
			t.Fatalf("rank %d: %d registrations vs %d deregistrations",
				ep.Rank(), c.Registrations, c.Deregistrations)
		}
	}
}
