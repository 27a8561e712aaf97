package mpi

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/mem"
)

// A warm message costs engine events per post, not per descriptor: a
// doorbell batch of unsignaled writes behind one signaled tail is one
// delivery event, one ack event where an ack has a flight time, and one
// completion dispatch; a control send posted unsignaled is its delivery and
// the receiver's dispatch. The counts are read from the engine's own
// sequence counter and pinned, so a kernel or protocol change that puts an
// event back on every descriptor (1 545 and 1 031 events for this Multi-W
// message, 6 and 5 for the eager one, before selective signalling) fails
// here and not in a wall-clock number. An attached injector that never fires
// changes nothing about what is posted (the descriptor counts are compared)
// and one thing about when: the immediate leaves the last doorbell for a post
// of its own (core's release rule) — that post's events and no others.
func TestEventsPerMessage(t *testing.T) {
	eager := datatype.Must(datatype.TypeVector(64, 1, 4, datatype.Int32))       // 256 B
	sparse := datatype.Must(datatype.TypeVector(512, 128, 256, datatype.Int32)) // 256 KiB, 512 B runs
	type row struct {
		backend, name string
		scheme        core.Scheme
		dt            *datatype.Type
		want          int64
	}
	for _, c := range []row{
		// Delivery and receive dispatch of the frame, the sender's pack
		// charge and the receiver's unpack charge ending.
		{BackendSim, "eager", core.SchemeAuto, eager, 4},
		{BackendSHM, "eager", core.SchemeAuto, eager, 4},
		// RTS and CTS (2 each), 512 writes in 8 doorbells (deliver, ack,
		// dispatch; shared memory has no ack flight), the immediate's
		// receive dispatch.
		{BackendSim, "Multi-W", core.SchemeMultiW, sparse, 2 + 2 + 8*3 + 1},
		{BackendSHM, "Multi-W", core.SchemeMultiW, sparse, 2 + 2 + 8*2 + 1},
	} {
		t.Run(c.backend+"/"+c.name, func(t *testing.T) { warmMessageEvents(t, c.backend, c.scheme, c.dt, nil, c.want) })
	}
	for _, c := range []row{
		{BackendSim, "eager", core.SchemeAuto, eager, 4},
		{BackendSHM, "eager", core.SchemeAuto, eager, 4},
		// As above, and the immediate's own post behind the eighth doorbell.
		{BackendSim, "Multi-W", core.SchemeMultiW, sparse, 2 + 2 + 8*3 + 1 + 3},
		{BackendSHM, "Multi-W", core.SchemeMultiW, sparse, 2 + 2 + 8*2 + 1 + 2},
	} {
		t.Run(c.backend+"/"+c.name+"/zero-rate injector", func(t *testing.T) {
			warmMessageEvents(t, c.backend, c.scheme, c.dt, fault.New(fault.Config{Seed: 1}), c.want)
		})
	}
}

// A process resumes once per wait, not once per completion: a warm window of
// 64 eager messages, each side waiting on its whole window with one WaitAll,
// schedules its messages' four events each, the two process starts of
// World.Run and one resume per WaitAll. Before the endpoint waiter each side
// resumed at every one of its 64 completions — the pack ends on the sender,
// the unpack ends on the receiver, each at an instant of its own — and the
// window cost 386 events instead of 260.
func TestEventsPerWindow(t *testing.T) {
	const window, tags = 64, 16
	eager := datatype.Must(datatype.TypeVector(64, 1, 4, datatype.Int32)) // 256 B
	for _, backend := range []string{BackendSim, BackendSHM} {
		t.Run(backend, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Ranks = 2
			cfg.MemBytes = 64 << 20
			cfg.Backend = backend
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var bufs [2][window]mem.Addr
			for r := range bufs {
				for j := range bufs[r] {
					bufs[r][j] = w.eps[r].Mem().MustAlloc(eager.Extent())
				}
			}
			var events int64
			for i := 0; i < 3; i++ { // the third window is warm
				e0 := w.eng.Scheduled()
				err := w.Run(func(p *Proc) error {
					reqs := make([]*core.Request, window)
					for j := range reqs {
						if p.Rank() == 0 {
							reqs[j] = p.Isend(bufs[0][j], 1, eager, 1, j%tags)
						} else {
							reqs[j] = p.Irecv(bufs[1][j], 1, eager, 0, j%tags)
						}
					}
					return p.Wait(reqs...)
				})
				if err != nil {
					t.Fatal(err)
				}
				events = w.eng.Scheduled() - e0
			}
			if want := int64(window*4 + 2 + 2); events != want {
				t.Errorf("a warm 64-message window scheduled %d engine events, want %d (4 per message, 2 starts, 1 resume per WaitAll)",
					events, want)
			}
		})
	}
}

// warmMessageEvents sends one message three times in a fresh two-rank world
// and holds the third to want engine events and to its layout's descriptors.
func warmMessageEvents(t *testing.T, backend string, scheme core.Scheme, dt *datatype.Type, inj *fault.Injector, want int64) {
	cfg := DefaultConfig()
	cfg.Ranks = 2
	cfg.MemBytes = 64 << 20
	cfg.Backend = backend
	cfg.Core.Scheme = scheme
	cfg.Fault = inj
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sbuf := w.eps[0].Mem().MustAlloc(dt.Extent() + 64)
	rbuf := w.eps[1].Mem().MustAlloc(dt.Extent() + 64)
	var events, descs int64
	for i := 0; i < 3; i++ { // the third message is warm
		e0, d0 := w.eng.Scheduled(), w.eps[0].Counters().DescriptorsPosted
		r := w.eps[1].Irecv(rbuf, 1, dt, 0, 5)
		s := w.eps[0].Isend(sbuf, 1, dt, 1, 5)
		if err := w.eng.Run(); err != nil {
			t.Fatal(err)
		}
		if !s.Done() || !r.Done() || s.Err != nil || r.Err != nil {
			t.Fatalf("message did not complete: send %v/%v recv %v/%v", s.Done(), s.Err, r.Done(), r.Err)
		}
		events, descs = w.eng.Scheduled()-e0, w.eps[0].Counters().DescriptorsPosted-d0
	}
	if events != want {
		t.Errorf("a warm message scheduled %d engine events, want %d", events, want)
	}
	// The eager frame; or the RTS and one write per 512-byte run.
	if wantDescs := dt.Size()/512 + 1; descs != wantDescs {
		t.Errorf("a warm message posted %d descriptors, want %d with or without an injector", descs, wantDescs)
	}
	// A flight record is a train's, not a descriptor's: what three messages
	// leave on a node's free list follows the posts one had in flight (8
	// doorbells and a few control sends), not its 513 descriptors.
	for _, h := range w.hcas {
		if live, free := h.(*fabric.Node).Flights(); live != 0 || free > 64 {
			t.Errorf("node %s: %d flight records out, %d on the free list, want 0 and at most 64", h.Name(), live, free)
		}
	}
}
