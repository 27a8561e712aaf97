package mpi

import (
	"math/rand"
	"testing"

	"repro/internal/allocsite"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mem"
)

// TestPeerLayoutsDoNotLeak streams Multi-W messages to a receiver that
// commits and frees a fresh datatype for every one of them, so the sender
// decodes a never-seen peer layout per message. Those layouts belong to the
// sender's layout cache, which replaces the entry of a reused index: they
// must not take type indices or registry entries on the sender, which holds
// none — its own type needs no index to be sent. The payload check pins that
// a program built from a cache entry walks the layout the receiver meant.
func TestPeerLayoutsDoNotLeak(t *testing.T) {
	const msgs, blocks, blockInts = 200, 32, 512 // 64 KiB a message: rendezvous
	sendType := datatype.Must(datatype.TypeContiguous(blocks*blockInts, datatype.Int32))
	for _, backend := range AllBackends {
		t.Run(backend, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Ranks = 2
			cfg.MemBytes = 64 << 20
			cfg.Backend = backend
			cfg.Core.Scheme = core.SchemeMultiW
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(p *Proc) error {
				if p.Rank() == 0 {
					buf := p.Mem().MustAlloc(sendType.Extent())
					b := p.Mem().Bytes(buf, sendType.Extent())
					for i := range b {
						b[i] = byte(i * 7)
					}
					for i := 0; i < msgs; i++ {
						if err := p.Send(buf, 1, sendType, 1, i); err != nil {
							return err
						}
					}
					return nil
				}
				lens, displs := make([]int, blocks), make([]int, blocks)
				for i := range lens {
					lens[i] = blockInts
				}
				span := int64(blocks*(blockInts+msgs)) * 4
				buf := p.Mem().MustAlloc(span)
				for i := 0; i < msgs; i++ {
					// Message i leaves a gap of i+1 integers between blocks: a
					// different layout every time, on a reused type index.
					for j := range displs {
						displs[j] = j * (blockInts + i + 1)
					}
					dt := datatype.Must(datatype.TypeIndexed(lens, displs, datatype.Int32))
					p.Endpoint().CommitType(dt)
					if _, err := p.Recv(buf, 1, dt, 0, i); err != nil {
						return err
					}
					p.Endpoint().FreeType(dt)
					got := p.Mem().Bytes(buf, span)
					for j, d := range displs {
						for _, k := range []int{0, blockInts*4 - 1} {
							if want := byte((j*blockInts*4 + k) * 7); got[d*4+k] != want {
								t.Errorf("message %d block %d byte %d: got %#x, want %#x", i, j, k, got[d*4+k], want)
								return nil
							}
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := w.Endpoint(0).TypeStats(), (core.TypeStats{}); got != want {
				t.Errorf("sender tables after %d peer layouts: %+v, want %+v", msgs, got, want)
			}
			if got, want := w.Endpoint(1).TypeStats(), (core.TypeStats{Slots: 1}); got != want {
				t.Errorf("receiver tables after %d freed types: %+v, want %+v", msgs, got, want)
			}
			if sent := w.Endpoint(1).Counters().TypeLayoutsSent; sent != msgs {
				t.Errorf("receiver shipped %d layouts, want %d (one per fresh type)", sent, msgs)
			}
		})
	}
}

// TestFreeTypeDuringTransfer frees a datatype on both sides while its message
// is still in flight. A count-1 program of an indexed type shares the type's
// own run table rather than copying it; the table is immutable and the
// program keeps it reachable, so dropping the endpoint's index must not
// disturb the walk an op already bound (under -tags dtdebug
// a recycled record would panic, a disturbed table would corrupt the payload).
func TestFreeTypeDuringTransfer(t *testing.T) {
	const blocks, blockInts, gap = 256, 64, 3 // 64 KiB: rendezvous
	lens, displs := make([]int, blocks), make([]int, blocks)
	for i := range lens {
		lens[i], displs[i] = blockInts, i*(blockInts+gap)
	}
	span := int64(blocks*(blockInts+gap)) * 4
	for _, backend := range AllBackends {
		for _, scheme := range []core.Scheme{core.SchemeGeneric, core.SchemeBCSPUP, core.SchemeRWGUP, core.SchemePRRS, core.SchemeMultiW} {
			t.Run(backend+"/"+scheme.String(), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Ranks = 2
				cfg.MemBytes = 64 << 20
				cfg.Backend = backend
				cfg.Core.Scheme = scheme
				w, err := NewWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				err = w.Run(func(p *Proc) error {
					buf := p.Mem().MustAlloc(span)
					b := p.Mem().Bytes(buf, span)
					for round := 0; round < 3; round++ {
						// A fresh type a round, so each is compiled in the op.
						dt := datatype.Must(datatype.TypeIndexed(lens, displs, datatype.Int32))
						p.Endpoint().CommitType(dt)
						var r *core.Request
						if p.Rank() == 0 {
							for i := range b {
								b[i] = byte(i*3 + round)
							}
							r = p.Isend(buf, 1, dt, 1, round)
						} else {
							clear(b)
							r = p.Irecv(buf, 1, dt, 0, round)
						}
						p.Endpoint().FreeType(dt)
						if err := p.Wait(r); err != nil {
							return err
						}
						if p.Rank() == 1 {
							for i := range b {
								want := byte(0)
								if i/4%(blockInts+gap) < blockInts {
									want = byte(i*3 + round)
								}
								if b[i] != want {
									t.Errorf("round %d byte %d: got %#x, want %#x", round, i, b[i], want)
									return nil
								}
							}
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestColdLayoutAllocatesOnlyWhatItKeeps holds a message on a never-seen
// layout — the benchmark's cold_layouts op, scaled down — to the objects
// that outlive it. Every trip builds, commits, sends both ways and frees a
// fresh indexed type in each of the three block-length classes (16, 256 and
// 2 048 ints: BC-SPUP, RWG-UP and Multi-W under Auto), on buffers no earlier
// registration covers. What may stay is the user's type (it and one slab
// for its run table), a peer layout the sender's cache keeps (the entry,
// which holds the decoded type, and one slab), and the region of each
// registration miss. A compiled program, a loop node or a cache record made
// per message shows as an excess, with its call sites.
//
// As in the benchmark, whose slab is three times the pin-down cache, every
// miss evicts: each rank first fills its user cache to its 64 MiB capacity
// with idle 16 KiB window registrations, so the cache's tables never grow
// to hold a new region. The warm-up trips fill the sender's Multi-W plan
// slots (eight), whose windows are then reused at the size they have.
func TestColdLayoutAllocatesOnlyWhatItKeeps(t *testing.T) {
	if core.DebugRecords {
		t.Skip("the dtdebug build quarantines recycled records instead of reusing them")
	}
	const (
		warm, trips = 8, 8
		payloadInts = 16 << 10  // 64 KiB a message: rendezvous
		slotBytes   = 128 << 10 // a message's extent stays below one slot
		pinCache    = 64 << 20  // the user pin-down cache's capacity
		fillBytes   = 16 << 10
	)
	classes := [3]int{16, 256, 2048}
	// The argument lists of every type, drawn before any window opens.
	type args struct{ lens, displs []int }
	var lists [warm + trips][3]args
	rng := rand.New(rand.NewSource(1))
	for k := range lists {
		for c, mean := range classes {
			a := &lists[k][c]
			for pos := 0; len(a.lens) < payloadInts/mean; {
				l := mean/2 + rng.Intn(mean)
				for _, bl := range [2]int{l, 2*mean - l} {
					a.lens, a.displs = append(a.lens, bl), append(a.displs, pos)
					pos += bl + 1 + rng.Intn(mean/2)
				}
			}
		}
	}
	kept := func(w *World) (regs, layouts int64) {
		for i := 0; i < w.Size(); i++ {
			ctr := w.Endpoint(i).Counters()
			regs += ctr.Registrations
			layouts += ctr.TypeLayoutsSent
		}
		return regs, layouts
	}
	for _, backend := range AllBackends {
		// One run from a fresh world: the objects of the window, the
		// program's own, their sites, and what the kept objects are.
		run := func(t *testing.T) (all, own uint64, sites string, regs, layout int64) {
			cfg := DefaultConfig()
			cfg.Ranks = 2
			cfg.MemBytes = 2*pinCache + 2*(warm+trips)*3*slotBytes
			cfg.Backend = backend
			cfg.Core.Scheme = core.SchemeAuto
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(p *Proc) error {
				me, ep := p.Rank(), p.Endpoint()
				fill := p.Mem().MustAlloc(pinCache)
				for off := mem.Addr(0); off < pinCache; off += fillBytes {
					_, r, err := ep.ExposeWindow(fill+off, fillBytes)
					if err != nil {
						return err
					}
					ep.CloseWindow(r)
				}
				slab := p.Mem().MustAlloc(2 * (warm + trips) * 3 * slotBytes)
				// Message c of trip k pings through slot 3k+c and pongs through
				// the same slot of the slab's second half.
				slot := func(k, c, half int) mem.Addr {
					return slab + mem.Addr(((half*(warm+trips)+k)*3+c)*slotBytes)
				}
				trip := func(k int) error {
					for c := range classes {
						dt, err := datatype.TypeIndexed(lists[k][c].lens, lists[k][c].displs, datatype.Int32)
						if err != nil {
							return err
						}
						ep.CommitType(dt)
						if me == 0 {
							if err := p.Send(slot(k, c, 0), 1, dt, 1, c); err != nil {
								return err
							}
							_, err = p.Recv(slot(k, c, 1), 1, dt, 1, c)
						} else {
							if _, err := p.Recv(slot(k, c, 0), 1, dt, 0, c); err != nil {
								return err
							}
							err = p.Send(slot(k, c, 1), 1, dt, 0, c)
						}
						if err != nil {
							return err
						}
						ep.FreeType(dt)
					}
					return nil
				}
				// The barrier's own type takes its index before the cold types
				// start cycling through theirs.
				if err := p.Barrier(); err != nil {
					return err
				}
				for k := 0; k < warm; k++ {
					if err := trip(k); err != nil {
						return err
					}
				}
				// Both ranks stand still while rank 0 reads the counters and
				// opens the window, and again while it closes it.
				var win *allocsite.Window
				if err := p.Barrier(); err != nil {
					return err
				}
				if me == 0 {
					regs, layout = kept(w)
					win = allocsite.Open()
				}
				if err := p.Barrier(); err != nil {
					return err
				}
				for k := warm; k < warm+trips; k++ {
					if err := trip(k); err != nil {
						return err
					}
				}
				if err := p.Barrier(); err != nil {
					return err
				}
				if me == 0 {
					all, own, sites = win.Close(20)
					r, l := kept(w)
					regs, layout = r-regs, l-layout
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if layout != 2*trips {
				t.Fatalf("%d peer layouts decoded in %d trips, want two a trip (the Multi-W class, both ways)", layout, trips)
			}
			return all, own, sites, regs, layout
		}
		t.Run(backend, func(t *testing.T) {
			// On rt a window now and then catches a stray runtime object
			// (a sudog cache refill): up to three runs from fresh state, so
			// a per-message object, which every run shows, still fails.
			for attempt := 1; ; attempt++ {
				all, own, sites, regs, layout := run(t)
				budget := uint64(2*2*3*trips + 2*layout + regs)
				if own <= budget {
					t.Logf("%d objects against a budget of %d (%d registrations), run %d", own, budget, regs, attempt)
					return
				}
				if attempt == 3 {
					t.Fatalf("%d trips of 6 cold messages allocate %d objects (%d at the program's sites), want at most %d: 2 per type (%d), 2 per decoded layout (%d), 1 per registration (%d); at\n%s",
						trips, all, own, budget, 2*3*trips, layout, regs, sites)
				}
			}
		})
	}
}
