package mpi

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/allocsite"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mem"
)

// MPI's handle rule: a wait that completes a request releases it, the way
// MPI_Wait sets it to MPI_REQUEST_NULL. These tests hold Wait, WaitAny and
// the blocking calls to it — nothing allocated, nothing left live, a handle
// listed twice released once, a released handle dead.

// releaseWorld is a fresh two-rank world for the tests below.
func releaseWorld(t *testing.T, backend string) *World {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Ranks = 2
	cfg.MemBytes = 48 << 20
	cfg.Core.PoolSize = 4 << 20
	cfg.Backend = backend
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// eagerWindowOp is one window of the benchmark's eager_stream shape, driven
// through Wait, Send and a user communicator's Recv alone: rank 0 sends 64
// 256-byte messages over 16 tags and waits for an ack; rank 1 posts half its
// receives, waits, posts the rest (which find their messages unexpected),
// waits and acks. Nobody frees a handle.
func eagerWindowOp(p *Proc, c *Comm) func() error {
	const window, tags = 64, 16
	dt := datatype.Must(datatype.TypeVector(64, 1, 4, datatype.Int32))
	var bufs [window]mem.Addr
	for j := range bufs {
		bufs[j] = p.Mem().MustAlloc(dt.Extent())
	}
	ack := p.Mem().MustAlloc(8)
	reqs := make([]*core.Request, 0, window+1)
	if p.Rank() == 0 {
		return func() error {
			reqs = reqs[:0]
			for j, b := range bufs {
				reqs = append(reqs, p.Isend(b, 1, dt, 1, j%tags))
			}
			if err := p.Wait(reqs...); err != nil {
				return err
			}
			_, err := c.Recv(ack, 1, datatype.Int32, 1, 0)
			return err
		}
	}
	return func() error {
		for half := 0; half < 2; half++ {
			reqs = reqs[:0]
			for j := half * window / 2; j < (half+1)*window/2; j++ {
				reqs = append(reqs, p.Irecv(bufs[j], 1, dt, 0, j%tags))
			}
			if err := p.Wait(reqs...); err != nil {
				return err
			}
		}
		return c.Send(ack, 1, datatype.Int32, 0, 0)
	}
}

// A warm eager window allocates nothing on any backend: the 65 handles a
// side takes per window come off its endpoint's free list and go back to it
// in the Wait that completes them. The count is process-wide and the lowest
// of three batches; a batch that allocates names the call sites.
func TestWarmWindowAllocatesNothing(t *testing.T) {
	if core.DebugRecords {
		t.Skip("the dtdebug build quarantines recycled records instead of reusing them")
	}
	const warm, windows, batches = 8, 8, 3
	for _, backend := range AllBackends {
		t.Run(backend, func(t *testing.T) {
			w := releaseWorld(t, backend)
			best, sites := uint64(math.MaxUint64), ""
			err := w.Run(func(p *Proc) error {
				c, err := p.World().Dup()
				if err != nil {
					return err
				}
				op := eagerWindowOp(p, c)
				batch := func() error {
					for i := 0; i < windows; i++ {
						if err := op(); err != nil {
							return err
						}
					}
					return p.Barrier()
				}
				for i := 0; i < warm; i++ {
					if err := batch(); err != nil {
						return err
					}
				}
				return bestBatch(p, batches, batch, &best, &sites)
			})
			if err != nil {
				t.Fatal(err)
			}
			if best != 0 {
				t.Errorf("a warm batch of %d 64-message windows allocates %d objects, want 0; at\n%s", windows, best, sites)
			}
			checkReleased(t, w)
		})
	}
}

// bestBatch runs batch n times on every rank and, on rank 0, keeps the
// lowest process-wide allocation count of a run and the call sites of the
// last run that allocated.
func bestBatch(p *Proc, n int, batch func() error, best *uint64, sites *string) error {
	for b := 0; b < n; b++ {
		var win *allocsite.Window
		if p.Rank() == 0 {
			win = allocsite.Open()
		}
		if err := batch(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			got, at := win.Close(10)
			*best = min(*best, got)
			if got > 0 {
				*sites = at
			}
		}
	}
	return nil
}

// checkReleased fails unless every handle every endpoint handed out has come
// back.
func checkReleased(t *testing.T, w *World) {
	t.Helper()
	for i, ep := range w.eps {
		if n := ep.PoolStats().LiveRequests; n != 0 {
			t.Errorf("rank %d: %d request handles live after the run, want 0", i, n)
		}
	}
}

// Every way a request completes in mpi releases it: Wait (nil entries
// skipped), WaitAny (its entry set to nil), Send and Recv on the world and
// on a user communicator, Sendrecv. The endpoints end with no live handle.
func TestWaitsReleaseEveryHandle(t *testing.T) {
	const msgs = 12
	dt := datatype.Must(datatype.TypeVector(64, 1, 4, datatype.Int32))     // eager
	big := datatype.Must(datatype.TypeVector(256, 16, 32, datatype.Int32)) // 16 KiB, rendezvous
	for _, backend := range AllBackends {
		t.Run(backend, func(t *testing.T) {
			w := releaseWorld(t, backend)
			err := w.Run(func(p *Proc) error {
				c, err := p.World().Dup()
				if err != nil {
					return err
				}
				peer := 1 - p.Rank()
				buf := p.Mem().MustAlloc(big.Extent())
				var sbufs, rbufs [msgs]mem.Addr
				for i := range sbufs {
					sbufs[i], rbufs[i] = p.Mem().MustAlloc(big.Extent()), p.Mem().MustAlloc(big.Extent())
				}
				// WaitAny over a list of eager and rendezvous messages each
				// way until every entry is nil.
				reqs := make([]*core.Request, 0, 2*msgs)
				for i := 0; i < msgs; i++ {
					typ := dt
					if i%3 == 0 {
						typ = big
					}
					reqs = append(reqs, p.Irecv(rbufs[i], 1, typ, peer, i), p.Isend(sbufs[i], 1, typ, peer, i))
				}
				for range reqs {
					i, err := p.WaitAny(reqs...)
					if err != nil {
						return err
					}
					if i < 0 || reqs[i] != nil {
						return fmt.Errorf("WaitAny returned %d and left %v in its place, want an index and nil", i, reqs)
					}
				}
				if i, err := p.WaitAny(reqs...); i != -1 || err != nil {
					return fmt.Errorf("WaitAny over nil entries = %d, %v; want -1, nil", i, err)
				}
				// Wait with nil entries among the live ones.
				r := p.Irecv(rbufs[1], 1, dt, peer, 99)
				s := p.Isend(sbufs[1], 1, dt, peer, 99)
				if err := p.Wait(nil, r, nil, s); err != nil {
					return err
				}
				// The blocking calls, in both orders, on both communicators.
				for i, comm := range []*Comm{p.World(), c} {
					if p.Rank() == i {
						if err := comm.Send(buf, 1, big, peer, 7); err != nil {
							return err
						}
						st, err := comm.Recv(buf, 1, big, peer, 8)
						if err != nil {
							return err
						}
						if st.Source != peer || st.Tag != 8 || st.Bytes != big.Size() {
							return fmt.Errorf("Recv envelope %+v, want source %d tag 8 bytes %d", st, peer, big.Size())
						}
					} else {
						if _, err := comm.Recv(buf, 1, big, peer, 7); err != nil {
							return err
						}
						if err := comm.Send(buf, 1, big, peer, 8); err != nil {
							return err
						}
					}
				}
				return p.Sendrecv(sbufs[0], 1, dt, peer, 5, rbufs[0], 1, dt, peer, 5)
			})
			if err != nil {
				t.Fatal(err)
			}
			checkReleased(t, w)
		})
	}
}

// A handle listed twice in one Wait is released once: the endpoint gets two
// handles back for the three entries, not three (in a reusing build a double
// release would put one handle on the free list twice and hand it to two
// later requests). WaitAny clears every entry that held the handle it
// released.
func TestWaitReleasesADuplicateOnce(t *testing.T) {
	dt := datatype.Must(datatype.TypeVector(64, 1, 4, datatype.Int32))
	w := releaseWorld(t, BackendSim)
	err := w.Run(func(p *Proc) error {
		peer := 1 - p.Rank()
		buf := p.Mem().MustAlloc(2 * dt.Extent())
		live := func() int { return p.Endpoint().PoolStats().LiveRequests }
		r := p.Irecv(buf, 1, dt, peer, 1)
		s := p.Isend(buf+mem.Addr(dt.Extent()), 1, dt, peer, 1)
		before := live()
		reqs := []*core.Request{r, s, r}
		if err := p.Wait(reqs...); err != nil {
			return err
		}
		if got := before - live(); got != 2 {
			return fmt.Errorf("Wait(r, s, r) released %d handles, want 2", got)
		}
		if reqs[0] != nil || reqs[1] != nil || reqs[2] != nil {
			return fmt.Errorf("Wait left %v, want every entry nil", reqs)
		}
		r = p.Irecv(buf, 1, dt, peer, 2)
		s = p.Isend(buf+mem.Addr(dt.Extent()), 1, dt, peer, 2)
		reqs = []*core.Request{r, s, r}
		for {
			i, err := p.WaitAny(reqs...)
			if err != nil {
				return err
			}
			if i < 0 {
				break
			}
			if i == 0 && reqs[2] != nil {
				return fmt.Errorf("WaitAny released r at 0 and left it at 2")
			}
		}
		if n := live(); n != 0 {
			return fmt.Errorf("%d handles live after the waits, want 0", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// In the dtdebug build a released handle is poisoned, so using it after the
// wait that completed it panics at the use instead of reading a later
// request's state: Done, and a second Wait, after Wait and after WaitAny.
func TestReleasedHandleIsPoisoned(t *testing.T) {
	if !core.DebugRecords {
		t.Skip("only the dtdebug build poisons released handles")
	}
	dt := datatype.Int32
	for _, c := range []struct {
		name string
		use  func(p *Proc, r *core.Request)
	}{
		{"Done", func(_ *Proc, r *core.Request) { r.Done() }},
		{"second Wait", func(p *Proc, r *core.Request) { _ = p.Wait(r) }},
	} {
		for _, wait := range []struct {
			name string
			f    func(p *Proc, r *core.Request) error
		}{
			{"Wait", func(p *Proc, r *core.Request) error { return p.Wait(r) }},
			{"WaitAny", func(p *Proc, r *core.Request) error { _, err := p.WaitAny(r); return err }},
		} {
			t.Run(wait.name+"/"+c.name, func(t *testing.T) {
				w := releaseWorld(t, BackendSim)
				err := w.Run(func(p *Proc) error {
					buf := p.Mem().MustAlloc(8)
					if p.Rank() == 0 {
						return p.Send(buf, 1, dt, 1, 0)
					}
					r := p.Irecv(buf, 1, dt, 0, 0)
					if err := wait.f(p, r); err != nil {
						return err
					}
					defer func() {
						if msg := fmt.Sprint(recover()); !strings.Contains(msg, "recycled request") {
							t.Errorf("%s after %s: panic %q, want one on the recycled request", c.name, wait.name, msg)
						}
					}()
					c.use(p, r)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
