package mpi

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/fault"
)

// TestAbortPathPoolBalance soaks the abort path on every backend: a ring of
// rendezvous messages under permanent-heavy fault injection, so a large
// fraction of transfers die mid-protocol through finalizeSendAbort /
// finalizeRecvAbort and the QoS drain, interleaved with eager and self
// messages that ride the same announce queues and matching index.
// Afterwards every pooled record of every endpoint must be back on its free
// list — send and receive ops, arrival records, eager buffers, completion
// records, and the request handles, which every Wait hands back — so an object
// leaked by an abort continuation (a pin never released, a retire skipped,
// a payload buffer dropped with its arrival) shows up here as a nonzero live
// count. Run under -race this also pins that recycling never races the
// fabric's completion delivery.
func TestAbortPathPoolBalance(t *testing.T) {
	vec := datatype.Must(datatype.TypeVector(256, 64, 128, datatype.Int32)) // 64 KiB sparse: rendezvous
	small := datatype.Must(datatype.TypeVector(16, 1, 2, datatype.Int32))   // 64 B: eager
	for _, backend := range AllBackends {
		t.Run(backend, func(t *testing.T) {
			for _, scheme := range []core.Scheme{core.SchemeBCSPUP, core.SchemePRRS, core.SchemeMultiW} {
				t.Run(scheme.String(), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Ranks = 4
					cfg.MemBytes = 64 << 20
					cfg.Backend = backend
					cfg.Core.Scheme = scheme
					cfg.Fault = fault.New(fault.Config{
						Seed:          int64(7 + len(backend) + int(scheme)),
						PostFailRate:  0.02,
						CQEErrorRate:  0.05,
						RegFailRate:   0.05,
						PermanentRate: 0.6,
					})
					w, err := NewWorld(cfg)
					if err != nil {
						t.Fatal(err)
					}
					const msgs = 30
					err = w.Run(func(p *Proc) error {
						buf := p.Mem().MustAlloc(vec.Extent() + 64)
						sbuf := p.Mem().MustAlloc(small.Extent() + 64)
						next := (p.Rank() + 1) % p.Size()
						prev := (p.Rank() - 1 + p.Size()) % p.Size()
						for i := 0; i < msgs; i++ {
							reqs := []*core.Request{
								p.Isend(sbuf, 1, small, next, msgs+i), // lands unexpected: its receive is posted last
								p.Isend(buf, 1, vec, next, i),
								p.Irecv(buf, 1, vec, prev, i),
								p.Isend(sbuf, 1, small, p.Rank(), 2*msgs+i),
								p.Irecv(sbuf, 1, small, p.Rank(), 2*msgs+i),
								p.Irecv(sbuf, 1, small, prev, msgs+i),
							}
							// Injected faults legitimately fail either side of
							// a rendezvous; the assertion is pool balance, not
							// delivery. Wait releases every handle, failed
							// ones included.
							_ = p.Wait(reqs...)
						}
						return nil
					})
					if err != nil {
						t.Fatalf("world did not quiesce: %v", err)
					}
					injected := cfg.Fault.Stats().Total()
					if injected == 0 {
						t.Fatal("fault injector fired zero faults; soak exercised nothing")
					}
					for i := 0; i < w.Size(); i++ {
						ps := w.Endpoint(i).PoolStats()
						if ps.LiveSendOps != 0 || ps.LiveRecvOps != 0 ||
							ps.ActiveSends != 0 || ps.ActiveRecvs != 0 ||
							ps.LiveInbound != 0 || ps.LiveBufs != 0 || ps.LiveRequests != 0 || ps.LiveWRs != 0 {
							t.Errorf("rank %d leaked pooled records after %d injected faults: %+v",
								i, injected, ps)
						}
					}
				})
			}
		})
	}
}
