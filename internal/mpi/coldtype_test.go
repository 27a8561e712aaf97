package mpi

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datatype"
)

// TestPeerLayoutsDoNotLeak streams Multi-W messages to a receiver that
// commits and frees a fresh datatype for every one of them, so the sender
// decodes a never-seen peer layout per message. Those layouts belong to the
// sender's layout cache, which replaces the entry of a reused index: they
// must not take type indices, registry entries or program-cache slots on the
// sender, whose tables stay as small as its one live type needs. The payload
// check pins that a program compiled from a cache entry walks the layout the
// receiver meant.
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
			if got, want := w.Endpoint(0).TypeStats(), (core.TypeStats{Slots: 1, Committed: 1, Programs: 1}); got != want {
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
// program keeps it reachable, so dropping the endpoint's index and cached
// programs must not disturb the walk an op already bound (under -tags dtdebug
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
