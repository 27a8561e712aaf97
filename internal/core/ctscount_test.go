package core

import (
	"math"
	"testing"

	"repro/internal/datatype"
	"repro/internal/simtime"
)

// TestCTSCountOutOfRange forges the Multi-W reply of a receiver whose count
// no buffer could hold — the one number in the frame that went unchecked into
// Compile, whose count × size product then wrapped. The send must fail with
// an error before anything is compiled or walked from the claim, the layout
// the frame carried must still be cached (the receiver has marked it shipped
// and will not send it again), and every pooled record must come back.
func TestCTSCountOutOfRange(t *testing.T) {
	dt := datatype.Must(datatype.TypeIndexed([]int{1, 1, 1}, []int{0, 3, 7}, datatype.Int32)) // 12 B in a 32 B extent
	const count = 1000
	for _, tc := range []struct {
		name   string
		rCount uint64
		ok     bool
	}{
		{"exact", count, true},
		{"zero", 0, false},
		{"negative-after-cast", 1 << 63, false},
		{"1<<62", 1 << 62, false},
		{"MaxInt", math.MaxInt, false},
		{"extent-product-wraps", math.MaxInt64/32 + 1, false},
		{"largest-that-fits", math.MaxInt64 / 32, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := countFits(dt, tc.rCount); got != tc.ok {
				t.Fatalf("countFits(%d) = %v, want %v", tc.rCount, got, tc.ok)
			}
			if tc.ok {
				return
			}
			cfg := DefaultConfig()
			cfg.Scheme = SchemeMultiW
			w := newTestWorld(t, 2, cfg, 48<<20)
			var sendErr, recvErr error
			w.run(t, func(p *simtime.Process, ep *Endpoint) {
				buf := allocFor(ep, dt, count)
				if ep.Rank() == 1 {
					// Post only after the sender has given up: the queued
					// RTS is dead by then and the receive fails promptly.
					p.Sleep(simtime.Millisecond)
					r := ep.Irecv(buf, count, dt, 0, 0)
					r.Wait(p)
					recvErr = r.Err
					r.Free()
					return
				}
				r := ep.Isend(buf, count, dt, 1, 0)
				p.Sleep(100 * simtime.Microsecond)
				var f ctrlWriter
				f.u8(kindCTS)
				f.u32(ep.nextOp)
				f.u8(uint8(SchemeMultiW))
				f.i64(dt.Size() * count)
				f.u64(uint64(buf))
				f.u64(tc.rCount)
				f.u32(0) // the receiver's type index
				f.u32(1) // and version
				f.u8(1)
				f.layout(dt)
				f.regRefs(nil)
				ep.handleCtrl(1, f.buf)
				r.Wait(p)
				sendErr = r.Err
				r.Free()
				if l := ep.layouts.lookup(1, 0, 1); l == nil {
					t.Error("the refused frame's layout was not absorbed into the cache")
				} else if l.progs.one.p != nil {
					t.Errorf("a program was compiled from the refused count: %s", l.progs.one.p)
				}
			})
			if sendErr == nil || recvErr == nil {
				t.Fatalf("send error %v, receive error %v; want both to fail", sendErr, recvErr)
			}
			checkNoLeaks(t, w)
			for _, ep := range w.eps {
				ps := ep.PoolStats()
				ps.FreeSendOps, ps.FreeRecvOps = 0, 0 // parked records are not live ones
				if ps != (PoolStats{}) {
					t.Errorf("rank %d: pool did not drain: %+v", ep.Rank(), ep.PoolStats())
				}
			}
		})
	}
}
