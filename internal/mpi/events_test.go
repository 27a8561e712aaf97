package mpi

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datatype"
)

// A warm message costs engine events per post, not per descriptor: a
// doorbell batch of unsignaled writes behind one signaled tail is one
// delivery event, one ack event where an ack has a flight time, and one
// completion dispatch; a control send posted unsignaled is its delivery and
// the receiver's dispatch. The counts are read from the engine's own
// sequence counter and pinned, so a kernel or protocol change that puts an
// event back on every descriptor (1 545 and 1 031 events for this Multi-W
// message, 6 and 5 for the eager one, before selective signalling) fails
// here and not in a wall-clock number.
func TestEventsPerMessage(t *testing.T) {
	eager := datatype.Must(datatype.TypeVector(64, 1, 4, datatype.Int32))       // 256 B
	sparse := datatype.Must(datatype.TypeVector(512, 128, 256, datatype.Int32)) // 256 KiB, 512 B runs
	for _, c := range []struct {
		backend, name string
		scheme        core.Scheme
		dt            *datatype.Type
		want          int64
	}{
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
		t.Run(c.backend+"/"+c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Ranks = 2
			cfg.MemBytes = 64 << 20
			cfg.Backend = c.backend
			cfg.Core.Scheme = c.scheme
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sbuf := w.eps[0].Mem().MustAlloc(c.dt.Extent() + 64)
			rbuf := w.eps[1].Mem().MustAlloc(c.dt.Extent() + 64)
			var events int64
			for i := 0; i < 3; i++ { // the third message is warm
				e0 := w.eng.Scheduled()
				r := w.eps[1].Irecv(rbuf, 1, c.dt, 0, 5)
				s := w.eps[0].Isend(sbuf, 1, c.dt, 1, 5)
				if err := w.eng.Run(); err != nil {
					t.Fatal(err)
				}
				if !s.Done() || !r.Done() || s.Err != nil || r.Err != nil {
					t.Fatalf("message did not complete: send %v/%v recv %v/%v", s.Done(), s.Err, r.Done(), r.Err)
				}
				events = w.eng.Scheduled() - e0
			}
			if events != c.want {
				t.Errorf("a warm message scheduled %d engine events, want %d", events, c.want)
			}
		})
	}
}
