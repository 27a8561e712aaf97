package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/mem"
	"repro/internal/shmfab"
	"repro/internal/simtime"
	"repro/internal/verbs"
)

// newFaultWorld is newTestWorld with a fault injector wired into the fabric
// before the endpoints are built (NewEndpoint hooks the registration caches
// only when the injector is already present).
func newFaultWorld(t *testing.T, n int, cfg Config, memSize int64, fc fault.Config) (*testWorld, *fault.Injector) {
	t.Helper()
	inj := fault.New(fc)
	return newWorldOn(t, "sim", n, cfg, memSize, inj), inj
}

// deterministic names the backends whose runs repeat event for event, so a
// seed pins which descriptor draws which fault.
var deterministic = []string{"sim", "shm"}

// newWorldOn builds an n-rank world on one of the deterministic backends,
// with inj (nil: no injector) attached.
func newWorldOn(t *testing.T, backend string, n int, cfg Config, memSize int64, inj *fault.Injector) *testWorld {
	t.Helper()
	eng := simtime.NewEngine()
	var add func(name string) verbs.HCA
	if backend == "shm" {
		fab := shmfab.New(eng, shmfab.DefaultModel(), n, memSize)
		fab.SetInjector(inj)
		add = func(name string) verbs.HCA { return fab.AddNode(name, nil) }
	} else {
		fab := ib.NewFabric(eng, ib.DefaultModel())
		fab.SetInjector(inj)
		add = func(name string) verbs.HCA { return fab.AddHCA(name, mem.NewMemory(name, memSize), nil) }
	}
	eps := make([]*Endpoint, n)
	for i := range eps {
		ep, err := NewEndpoint(i, add(fmt.Sprintf("n%d", i)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	ConnectPeers(eps)
	return &testWorld{eng: eng, eps: eps}
}

// checkNoLeaks asserts that after the run every endpoint has returned to its
// quiescent state: no in-flight ops, no dangling completion callbacks, and
// both staging pools back to full capacity.
func checkNoLeaks(t *testing.T, w *testWorld) {
	t.Helper()
	for _, ep := range w.eps {
		if ep.activeSends != 0 || ep.activeRecvs != 0 {
			t.Errorf("rank %d: leaked ops: %s", ep.Rank(), ep.DebugOps())
		}
		if ps := ep.PoolStats(); ps.LiveSendOps != 0 || ps.LiveRecvOps != 0 {
			t.Errorf("rank %d: pooled ops not recycled at quiescence: %+v", ep.Rank(), ps)
		}
		if ep.wrLive() != 0 {
			t.Errorf("rank %d: %d leaked completion records", ep.Rank(), ep.wrLive())
		}
		for _, pl := range []struct {
			name string
			pool *segPool
		}{{"pack", ep.packPool}, {"unpack", ep.unpackPool}} {
			if pl.pool.enabled && pl.pool.available() != pl.pool.totalSlots() {
				t.Errorf("rank %d: %s pool leaked slots: %d/%d free",
					ep.Rank(), pl.name, pl.pool.available(), pl.pool.totalSlots())
			}
			if pl.pool.pendingWaiters() != 0 {
				t.Errorf("rank %d: %s pool has %d stuck waiters", ep.Rank(), pl.name, pl.pool.pendingWaiters())
			}
		}
	}
}

var faultSchemes = []Scheme{SchemeGeneric, SchemeBCSPUP, SchemeRWGUP, SchemePRRS, SchemeMultiW}

// TestTransientFaultsByteIdentical runs every scheme under a moderate
// transient fault load (post failures, error CQEs, registration failures,
// delayed completions) and requires byte-identical delivery with no leaked
// resources — the retry machinery must fully mask the faults.
func TestTransientFaultsByteIdentical(t *testing.T) {
	fc := fault.Config{
		Seed:         42,
		PostFailRate: 0.05,
		CQEErrorRate: 0.08,
		RegFailRate:  0.05,
		DelayRate:    0.10,
		MaxDelay:     20 * simtime.Microsecond,
	}
	const msgs = 3
	var totalInjected int64
	for _, scheme := range faultSchemes {
		for _, sh := range testShapes() {
			t.Run(fmt.Sprintf("%v/%s", scheme, sh.name), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				cfg.PoolSize = 4 << 20
				w, inj := newFaultWorld(t, 2, cfg, 48<<20, fc)
				count := 160 // multi-segment rendezvous for every shape
				sent := make([][]byte, msgs)
				got := make([][]byte, msgs)
				w.run(t, func(p *simtime.Process, ep *Endpoint) {
					if ep.Rank() == 0 {
						reqs := make([]*Request, msgs)
						for m := 0; m < msgs; m++ {
							buf := allocFor(ep, sh.dt, count)
							sent[m] = fillMsg(ep, buf, sh.dt, count, byte(0x11*m+3))
							reqs[m] = ep.Isend(buf, count, sh.dt, 1, m)
						}
						for m, r := range reqs {
							r.Wait(p)
							if r.Err != nil {
								t.Errorf("send %d: %v", m, r.Err)
							}
						}
					} else {
						for m := 0; m < msgs; m++ {
							buf := allocFor(ep, sh.dt, count)
							req, err := ep.Recv(p, buf, count, sh.dt, 0, m)
							if err != nil {
								t.Errorf("recv %d: %v", m, err)
							}
							_ = req
							got[m] = readMsg(ep, buf, sh.dt, count)
						}
					}
				})
				for m := 0; m < msgs; m++ {
					if !bytes.Equal(sent[m], got[m]) {
						t.Errorf("message %d corrupted under transient faults", m)
					}
				}
				checkNoLeaks(t, w)
				totalInjected += inj.Stats().Total()
			})
		}
	}
	// Low-descriptor-count schemes (Generic posts one write per message) may
	// individually draw no fault, but across the matrix plenty must fire.
	if totalInjected == 0 {
		t.Error("injector never fired; test exercised nothing")
	}
}

// TestPermanentFaultAbortsCleanly forces every RDMA completion to fail
// permanently: both sides' requests must complete with an error (no rank may
// panic or hang), and no pool slots, registrations, or op state may leak.
func TestPermanentFaultAbortsCleanly(t *testing.T) {
	fc := fault.Config{
		Seed:          7,
		CQEErrorRate:  1.0,
		PermanentRate: 1.0,
	}
	for _, scheme := range faultSchemes {
		for _, sh := range testShapes() {
			t.Run(fmt.Sprintf("%v/%s", scheme, sh.name), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				cfg.PoolSize = 4 << 20
				w, _ := newFaultWorld(t, 2, cfg, 48<<20, fc)
				count := 160
				w.run(t, func(p *simtime.Process, ep *Endpoint) {
					if ep.Rank() == 0 {
						buf := allocFor(ep, sh.dt, count)
						fillMsg(ep, buf, sh.dt, count, 0x5A)
						if err := ep.Send(p, buf, count, sh.dt, 1, 7); err == nil {
							t.Error("send succeeded despite permanent faults")
						}
					} else {
						buf := allocFor(ep, sh.dt, count)
						if _, err := ep.Recv(p, buf, count, sh.dt, 0, 7); err == nil {
							t.Error("recv succeeded despite permanent faults")
						}
					}
				})
				checkNoLeaks(t, w)
				for _, ep := range w.eps {
					if ep.Counters().RequestsFailed == 0 {
						t.Errorf("rank %d: RequestsFailed not counted", ep.Rank())
					}
				}
			})
		}
	}
}

// TestPermanentRegistrationFaultAborts fails every registration permanently:
// the rendezvous must still resolve with errors on both sides (the sender
// announces the op before aborting so the receiver is not left waiting).
func TestPermanentRegistrationFaultAborts(t *testing.T) {
	fc := fault.Config{
		Seed:          11,
		RegFailRate:   1.0,
		PermanentRate: 1.0,
	}
	for _, scheme := range []Scheme{SchemeRWGUP, SchemePRRS, SchemeMultiW} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			cfg.PoolSize = 4 << 20
			sh := testShapes()[0] // vector
			w, _ := newFaultWorld(t, 2, cfg, 48<<20, fc)
			count := 160
			w.run(t, func(p *simtime.Process, ep *Endpoint) {
				if ep.Rank() == 0 {
					buf := allocFor(ep, sh.dt, count)
					fillMsg(ep, buf, sh.dt, count, 0x5A)
					if err := ep.Send(p, buf, count, sh.dt, 1, 7); err == nil {
						t.Error("send succeeded despite permanent registration faults")
					}
				} else {
					buf := allocFor(ep, sh.dt, count)
					if _, err := ep.Recv(p, buf, count, sh.dt, 0, 7); err == nil {
						t.Error("recv succeeded despite permanent registration faults")
					}
				}
			})
			checkNoLeaks(t, w)
		})
	}
}

// TestPermanentFaultLayoutCacheStaysCoherent replays several sequential
// Multi-W transfers under mixed permanent faults. When the sender aborts
// before the CTS arrives (pre-RTS registration failure), the receiver has
// already marked the layout as delivered to that peer — the CTS for the
// dead op must still be absorbed into the sender's layout cache, or the
// next transfer's layout-less CTS panics with a cache miss. The seed sweep
// covers the abort-then-reuse interleavings.
func TestPermanentFaultLayoutCacheStaysCoherent(t *testing.T) {
	sh := testShapes()[0]
	const count = 160
	const msgs = 3
	for seed := int64(1); seed <= 25; seed++ {
		fc := fault.Config{
			Seed:          seed,
			RegFailRate:   0.5,
			CQEErrorRate:  0.2,
			PermanentRate: 1.0,
		}
		cfg := DefaultConfig()
		cfg.Scheme = SchemeMultiW
		cfg.PoolSize = 4 << 20
		w, _ := newFaultWorld(t, 2, cfg, 48<<20, fc)
		sent := make([][]byte, msgs)
		got := make([][]byte, msgs)
		sendOK := make([]bool, msgs)
		recvOK := make([]bool, msgs)
		w.run(t, func(p *simtime.Process, ep *Endpoint) {
			for m := 0; m < msgs; m++ {
				buf := allocFor(ep, sh.dt, count)
				if ep.Rank() == 0 {
					sent[m] = fillMsg(ep, buf, sh.dt, count, byte(0x21*m+5))
					if err := ep.Send(p, buf, count, sh.dt, 1, m); err == nil {
						sendOK[m] = true
					}
				} else {
					if _, err := ep.Recv(p, buf, count, sh.dt, 0, m); err == nil {
						recvOK[m] = true
						got[m] = readMsg(ep, buf, sh.dt, count)
					}
				}
			}
		})
		for m := 0; m < msgs; m++ {
			if sendOK[m] != recvOK[m] {
				t.Errorf("seed %d msg %d: send ok=%v recv ok=%v (outcomes must agree)",
					seed, m, sendOK[m], recvOK[m])
			}
			if sendOK[m] && recvOK[m] && !bytes.Equal(sent[m], got[m]) {
				t.Errorf("seed %d: message %d corrupted", seed, m)
			}
		}
		checkNoLeaks(t, w)
	}
}

// TestLateReceiveAfterSenderAbort posts the receive only after the sender has
// already aborted (pre-RTS registration failure). The dead RTS must stay
// matchable so the late receive fails promptly with ErrRemoteAbort rather
// than deadlocking the simulation.
func TestLateReceiveAfterSenderAbort(t *testing.T) {
	fc := fault.Config{
		Seed:          3,
		RegFailRate:   1.0,
		PermanentRate: 1.0,
	}
	cfg := DefaultConfig()
	cfg.Scheme = SchemeMultiW // registers the user buffer before the RTS
	cfg.PoolSize = 4 << 20
	sh := testShapes()[0]
	w, _ := newFaultWorld(t, 2, cfg, 48<<20, fc)
	count := 160
	w.run(t, func(p *simtime.Process, ep *Endpoint) {
		if ep.Rank() == 0 {
			buf := allocFor(ep, sh.dt, count)
			fillMsg(ep, buf, sh.dt, count, 0x5A)
			if err := ep.Send(p, buf, count, sh.dt, 1, 7); err == nil {
				t.Error("send succeeded despite permanent registration faults")
			}
		} else {
			// Give the sender time to abort and for the RTS plus the failure
			// notice to arrive unmatched.
			p.Sleep(10 * simtime.Millisecond)
			buf := allocFor(ep, sh.dt, count)
			_, err := ep.Recv(p, buf, count, sh.dt, 0, 7)
			if !errors.Is(err, ErrRemoteAbort) {
				t.Errorf("late recv err = %v, want ErrRemoteAbort", err)
			}
		}
	})
	checkNoLeaks(t, w)
}

// TestTransientFaultsDeterministic repeats one fault-injected run with the
// same seed and requires identical virtual end times and retry counts: the
// injector must be the only source of randomness and fully reproducible.
func TestTransientFaultsDeterministic(t *testing.T) {
	fc := fault.Config{
		Seed:         99,
		PostFailRate: 0.05,
		CQEErrorRate: 0.08,
		DelayRate:    0.10,
		MaxDelay:     20 * simtime.Microsecond,
	}
	run := func() (simtime.Time, int64) {
		cfg := DefaultConfig()
		cfg.Scheme = SchemeBCSPUP
		cfg.PoolSize = 4 << 20
		sh := testShapes()[0]
		w, _ := newFaultWorld(t, 2, cfg, 48<<20, fc)
		count := 160
		w.run(t, func(p *simtime.Process, ep *Endpoint) {
			if ep.Rank() == 0 {
				buf := allocFor(ep, sh.dt, count)
				fillMsg(ep, buf, sh.dt, count, 0x5A)
				if err := ep.Send(p, buf, count, sh.dt, 1, 7); err != nil {
					t.Errorf("send: %v", err)
				}
			} else {
				buf := allocFor(ep, sh.dt, count)
				if _, err := ep.Recv(p, buf, count, sh.dt, 0, 7); err != nil {
					t.Errorf("recv: %v", err)
				}
			}
		})
		var retries int64
		for _, ep := range w.eps {
			retries += ep.Counters().FaultRetries
		}
		return w.eng.Now(), retries
	}
	t1, r1 := run()
	t2, r2 := run()
	if t1 != t2 || r1 != r2 {
		t.Errorf("fault runs diverged: end=(%v,%v) retries=(%d,%d)", t1, t2, r1, r2)
	}
}

// A frame or an immediate that names no op is tolerated on evidence, not on
// a mode: an endpoint that has aborted a transfer — here without any
// injector, the test pulls the send — drops each kind quietly, since the
// peer may have sent it before the failure notice reached it; the same frame
// on an endpoint that has never aborted anything is a protocol bug and
// panics, injector attached or not.
func TestStrayFrames(t *testing.T) {
	const unknown = 999
	frame := func(build func(f *ctrlWriter)) func(ep *Endpoint) {
		return func(ep *Endpoint) {
			var f ctrlWriter
			build(&f)
			ep.handleCtrl(1, f.buf)
		}
	}
	strays := []struct {
		name    string
		deliver func(ep *Endpoint)
	}{
		{"CTS", frame(func(f *ctrlWriter) {
			f.u8(kindCTS)
			f.u32(unknown)
			f.u8(uint8(SchemeBCSPUP))
			f.i64(64 << 10)
			f.i64(32 << 10)
			f.segRefs(nil)
		})},
		{"immediate", func(ep *Endpoint) { ep.handleImm(1, unknown, 512) }},
		{"SegReady", frame(func(f *ctrlWriter) {
			f.u8(kindSegReady)
			f.u32(unknown)
			f.u64(0x1000)
			f.u32(7)
			f.i64(512)
		})},
		{"Done", frame(func(f *ctrlWriter) {
			f.u8(kindDone)
			f.u32(unknown)
		})},
	}
	sh := testShapes()[0]
	for _, tc := range strays {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			w := newTestWorld(t, 2, cfg, 48<<20)
			sbuf, rbuf := allocFor(w.eps[0], sh.dt, 160), allocFor(w.eps[1], sh.dt, 160)
			r := w.eps[1].Irecv(rbuf, 160, sh.dt, 0, 1)
			s := w.eps[0].Isend(sbuf, 160, sh.dt, 1, 1)
			w.eps[0].abortSend(w.eps[0].peers[1].sends[0], errors.New("pulled by the test"))
			if err := w.eng.Run(); err != nil {
				t.Fatal(err)
			}
			if s.Err == nil || !errors.Is(r.Err, ErrRemoteAbort) {
				t.Fatalf("send %v, receive %v: want both failed", s.Err, r.Err)
			}
			tc.deliver(w.eps[0]) // RequestsFailed is its evidence
			tc.deliver(w.eps[1]) // and PeerAborts
			checkNoLeaks(t, w)

			fresh, _ := newFaultWorld(t, 2, cfg, 48<<20, fault.Config{Seed: 1})
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.name+" for unknown op 999") {
					t.Errorf("on an endpoint that never aborted: recovered %q, want the protocol-bug panic", msg)
				}
			}()
			tc.deliver(fresh.eps[0])
		})
	}
}
