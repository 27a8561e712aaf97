package mpi

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/allocsite"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mem"
)

// TestWarmMessageAllocatesOnlyHandles pins the allocation discipline of the
// whole message path (DESIGN.md §16): once an endpoint is warm, a message —
// eager, self or rendezvous under any scheme — costs the heap nothing, its
// two request handles included, which come off the endpoint's free list and
// go back to it; a collective costs nothing either. The two-rank rows drive
// the endpoints from outside the engine (post, run the engine dry, Free both
// handles as a wait would), so one AllocsPerRun iteration is one message
// from post to both completions. TestWarmWindowAllocatesNothing holds the
// mpi waits to the same.
func TestWarmMessageAllocatesOnlyHandles(t *testing.T) {
	if core.DebugRecords {
		t.Skip("the dtdebug build quarantines recycled records instead of reusing them")
	}
	const warm, runs = 8, 50
	eager := datatype.Must(datatype.TypeVector(64, 1, 4, datatype.Int32))       // 256 B
	sparse := datatype.Must(datatype.TypeVector(512, 128, 256, datatype.Int32)) // 256 KiB, 512 B runs

	type row struct {
		name   string
		scheme core.Scheme
		dt     *datatype.Type
		// post starts one message; it may run the engine in between to order
		// the arrival against the receive.
		post func(w *World, sbuf, rbuf [2]mem.Addr, dt *datatype.Type) (s, r *core.Request)
	}
	posted := func(w *World, sbuf, rbuf [2]mem.Addr, dt *datatype.Type) (s, r *core.Request) {
		r = w.eps[1].Irecv(rbuf[1], 1, dt, 0, 5)
		s = w.eps[0].Isend(sbuf[0], 1, dt, 1, 5)
		return s, r
	}
	unexpected := func(w *World, sbuf, rbuf [2]mem.Addr, dt *datatype.Type) (s, r *core.Request) {
		s = w.eps[0].Isend(sbuf[0], 1, dt, 1, 5)
		if err := w.eng.Run(); err != nil {
			panic(err)
		}
		r = w.eps[1].Irecv(rbuf[1], 1, dt, 0, 5)
		return s, r
	}
	self := func(w *World, sbuf, rbuf [2]mem.Addr, dt *datatype.Type) (s, r *core.Request) {
		r = w.eps[0].Irecv(rbuf[0], 1, dt, 0, 5)
		s = w.eps[0].Isend(sbuf[0], 1, dt, 0, 5)
		return s, r
	}
	rows := []row{
		{"eager-posted", core.SchemeAuto, eager, posted},
		{"eager-unexpected", core.SchemeAuto, eager, unexpected},
		{"self", core.SchemeAuto, eager, self},
		{"rndv-unexpected", core.SchemeBCSPUP, sparse, unexpected},
	}
	for _, s := range []core.Scheme{core.SchemeGeneric, core.SchemeBCSPUP, core.SchemeRWGUP,
		core.SchemePRRS, core.SchemeMultiW} {
		rows = append(rows, row{"rndv-" + s.String(), s, sparse, posted})
	}

	for _, backend := range []string{BackendSim, BackendSHM} {
		for _, rw := range rows {
			t.Run(backend+"/"+rw.name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Ranks = 2
				cfg.MemBytes = 64 << 20
				cfg.Backend = backend
				cfg.Core.Scheme = rw.scheme
				w, err := NewWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var sbuf, rbuf [2]mem.Addr
				for i := range sbuf {
					m := w.eps[i].Mem()
					sbuf[i] = m.MustAlloc(rw.dt.Extent() + 64)
					rbuf[i] = m.MustAlloc(rw.dt.Extent() + 64)
				}
				one := func() {
					s, r := rw.post(w, sbuf, rbuf, rw.dt)
					if err := w.eng.Run(); err != nil {
						panic(err)
					}
					if !s.Done() || !r.Done() || s.Err != nil || r.Err != nil {
						panic(fmt.Sprintf("message did not complete: send %v/%v recv %v/%v",
							s.Done(), s.Err, r.Done(), r.Err))
					}
					s.Free()
					r.Free()
				}
				for i := 0; i < warm; i++ {
					one()
				}
				if got := testing.AllocsPerRun(runs, one); got != 0 {
					t.Errorf("warm message allocates %.0f objects, want 0", got)
				}
				for i, ep := range w.eps {
					if ps := ep.PoolStats(); ps.LiveSendOps != 0 || ps.LiveRecvOps != 0 || ps.LiveRequests != 0 {
						t.Errorf("rank %d not quiescent: %+v", i, ps)
					}
				}
			})
		}

		t.Run(backend+"/alltoall+barrier", func(t *testing.T) {
			fig10 := fig10Struct()
			cfg := ScaledConfig(8)
			cfg.Backend = backend
			cfg.Core.Scheme = core.SchemeAuto
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got float64
			err = w.Run(func(p *Proc) error {
				n := p.Size()
				sb := p.Mem().MustAlloc(int64(n) * fig10.Extent())
				rb := p.Mem().MustAlloc(int64(n) * fig10.Extent())
				var opErr error
				op := func() {
					if err := p.Alltoall(sb, 1, fig10, rb, 1, fig10); err != nil {
						opErr = err
					}
					if err := p.Barrier(); err != nil {
						opErr = err
					}
				}
				for i := 0; i < warm; i++ {
					op()
				}
				if p.Rank() == 0 {
					got = testing.AllocsPerRun(runs, op)
				} else {
					for i := 0; i < runs+1; i++ { // AllocsPerRun's own warm-up call
						op()
					}
				}
				return opErr
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != 0 {
				t.Errorf("warm 8-rank Alltoall+Barrier allocates %.0f objects per op, want 0", got)
			}
		})
	}
}

// A warm 8-rank Alltoall+Barrier of the Figure 10 struct under Auto — the
// benchmark's struct_alltoall, 56 rendezvous transfers at once — allocates
// nothing on the backends whose ranks run concurrently or share one arena:
// staged CTS frames of every size through one fabric buffer pool, arrival
// records and descriptor records whose lists grew during warm-up, and on rt
// drivers that park on a primed sudog cache.
func TestWarmAlltoallAllocatesNothing(t *testing.T) {
	if core.DebugRecords {
		t.Skip("the dtdebug build quarantines recycled records instead of reusing them")
	}
	const warm, ops, batches = 50, 200, 3
	fig10 := fig10Struct()
	for _, backend := range []string{BackendSHM, BackendRT} {
		t.Run(backend, func(t *testing.T) {
			cfg := ScaledConfig(8)
			cfg.Backend = backend
			cfg.Core.Scheme = core.SchemeAuto
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			best, sites := uint64(math.MaxUint64), ""
			err = w.Run(func(p *Proc) error {
				n := p.Size()
				sb := p.Mem().MustAlloc(int64(n) * fig10.Extent())
				rb := p.Mem().MustAlloc(int64(n) * fig10.Extent())
				run := func(k int) error {
					for i := 0; i < k; i++ {
						if err := p.Alltoall(sb, 1, fig10, rb, 1, fig10); err != nil {
							return err
						}
						if err := p.Barrier(); err != nil {
							return err
						}
					}
					return nil
				}
				if err := run(warm); err != nil {
					return err
				}
				return bestBatch(p, batches, func() error { return run(ops) }, &best, &sites)
			})
			if err != nil {
				t.Fatal(err)
			}
			if best != 0 {
				t.Errorf("%d warm Alltoall+Barriers allocate %d objects, want 0; at\n%s", ops, best, sites)
			}
		})
	}
}

// TestShortWarmupAlltoallAllocatesNothing is the same exchange shaped like
// the benchmark's struct_alltoall leg: 5 warm-up ops, then one window of
// 1 000, counted once. Allocations made late by a peer that reached a new
// peak after warm-up show here, where the lowest of three batches after a
// long warm-up hides them. Sites allocsite counts as the runtime's
// (an OS thread starting, a timer heap) are printed, not failed.
func TestShortWarmupAlltoallAllocatesNothing(t *testing.T) {
	if core.DebugRecords {
		t.Skip("the dtdebug build quarantines recycled records instead of reusing them")
	}
	const warm, ops = 5, 1000
	fig10 := fig10Struct()
	for _, backend := range []string{BackendSHM, BackendRT} {
		t.Run(backend, func(t *testing.T) {
			cfg := ScaledConfig(8)
			cfg.Backend = backend
			cfg.Core.Scheme = core.SchemeAuto
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var all, own uint64
			var sites string
			err = w.Run(func(p *Proc) error {
				n := p.Size()
				sb := p.Mem().MustAlloc(int64(n) * fig10.Extent())
				rb := p.Mem().MustAlloc(int64(n) * fig10.Extent())
				run := func(k int) error {
					for i := 0; i < k; i++ {
						if err := p.Alltoall(sb, 1, fig10, rb, 1, fig10); err != nil {
							return err
						}
						if err := p.Barrier(); err != nil {
							return err
						}
					}
					return nil
				}
				if err := run(warm); err != nil {
					return err
				}
				var win *allocsite.Window
				if p.Rank() == 0 {
					win = allocsite.Open()
				}
				err := run(ops)
				if p.Rank() == 0 {
					all, own, sites = win.Close(10)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if own != 0 {
				t.Errorf("%d Alltoall+Barriers after %d warm-up ops allocate %d objects, %d at the program's own sites; at\n%s", ops, warm, all, own, sites)
			} else if all != 0 {
				t.Logf("%d objects, all at the runtime's sites:\n%s", all, sites)
			}
		})
	}
}

// fig10Struct is the paper's Figure 10 struct: blocks of 1, 2, 4, … 2048
// integers, each followed by a one-integer gap.
func fig10Struct() *datatype.Type {
	var lens []int
	var displs []int64
	var types []*datatype.Type
	pos := int64(0)
	for b := 1; b <= 2048; b *= 2 {
		lens = append(lens, b)
		displs = append(displs, pos)
		types = append(types, datatype.Int32)
		pos += int64(b)*4 + 4
	}
	return datatype.Must(datatype.TypeStruct(lens, displs, types))
}

// Hand packing, MPI_Pack and MPI_Unpack, allocates nothing once warm, at
// count 1 (the packer walks the type's unit in place) and at count 3 (its
// cursor holds the repeat): a process keeps one packer and one unpacker and
// binds them per call. The count is process-wide, the lowest of three
// batches; a batch that allocates names the call sites.
func TestHandPackAllocatesNothing(t *testing.T) {
	const warm, calls, batches = 4, 64, 3
	dt := datatype.Must(datatype.TypeVector(256, 1, 4, datatype.Int32))
	for _, backend := range AllBackends {
		for _, count := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/count%d", backend, count), func(t *testing.T) {
				w := releaseWorld(t, backend)
				best, sites := uint64(math.MaxUint64), ""
				err := w.Run(func(p *Proc) error {
					if p.Rank() != 0 {
						return nil
					}
					src, dst := allocFor(p, dt, count), allocFor(p, dt, count)
					buf := make([]byte, PackSize(count, dt))
					batch := func() error {
						for i := 0; i < calls; i++ {
							if _, err := p.Pack(src, count, dt, buf, 0); err != nil {
								return err
							}
							if _, err := p.Unpack(buf, 0, dst, count, dt); err != nil {
								return err
							}
						}
						return nil
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
					t.Errorf("a warm batch of %d packs and unpacks allocates %d objects, want 0; at\n%s", calls, best, sites)
				}
			})
		}
	}
}
