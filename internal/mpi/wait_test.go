package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mem"
)

// waitArm is how a rank waits on a list of its requests: with one Wait,
// which parks once, or one request at a time, which is what Wait did before
// the endpoint waiter and resumes once per completion. Either way every
// request is released, and the first error in list order returned.
type waitArm struct {
	name string
	wait func(p *Proc, reqs []*core.Request) error
}

var waitArms = []waitArm{
	{"WaitAll", func(p *Proc, reqs []*core.Request) error { return p.Wait(reqs...) }},
	{"per-request", func(p *Proc, reqs []*core.Request) error {
		var err error
		for _, r := range reqs {
			if e := p.Wait(r); err == nil {
				err = e
			}
		}
		return err
	}},
}

// waitRun is what one run of an exchange leaves: the cluster clock at the
// end and, per rank, every byte its receive buffers held after each round
// and the instant and index of every WaitAny return.
type waitRun struct {
	clock int64
	data  [][]byte
	anys  [][]int64
}

// waitExchange is one seeded exchange run under a wait arm.
type waitExchange struct {
	name  string
	ranks int
	body  func(p *Proc, arm waitArm, data *[]byte, anys *[]int64) error
}

// A process resuming once per wait instead of once per completion changes
// no virtual instant: the last completion wakes it where the last of the
// one-at-a-time waits did, and the resumes in between did nothing. The same
// seeded exchanges — a 64-message eager window each way, an 8-rank Alltoall
// of the Figure 10 struct, a WaitAny soak in the traffic runner's style —
// run once through WaitAll and once request by request; on sim and shm they
// must end at the same clock, deliver the same bytes and take every WaitAny
// return at the same instant. Every run must leave its endpoints drained, and
// on rt (under make race) deliver what sim delivered.
func TestWaitArmsAgree(t *testing.T) {
	for _, x := range []waitExchange{
		{"window", 2, windowExchange},
		{"alltoall", 8, alltoallExchange},
		{"waitany-soak", 4, soakExchange},
	} {
		t.Run(x.name, func(t *testing.T) {
			ref := runWaitExchange(t, x, BackendSim, waitArms[0])
			for _, backend := range []string{BackendSim, BackendSHM} {
				base := runWaitExchange(t, x, backend, waitArms[0])
				for _, arm := range waitArms[1:] {
					got := runWaitExchange(t, x, backend, arm)
					if got.clock != base.clock {
						t.Errorf("%s/%s: ends at %d ns, WaitAll at %d", backend, arm.name, got.clock, base.clock)
					}
					for r := range got.data {
						if !bytes.Equal(got.data[r], base.data[r]) {
							t.Errorf("%s/%s: rank %d received different bytes", backend, arm.name, r)
						}
						if fmt.Sprint(got.anys[r]) != fmt.Sprint(base.anys[r]) {
							t.Errorf("%s/%s: rank %d WaitAny returns %v, WaitAll arm %v", backend, arm.name, r, got.anys[r], base.anys[r])
						}
					}
				}
				for r := range base.data {
					if !bytes.Equal(base.data[r], ref.data[r]) {
						t.Errorf("%s: rank %d received different bytes than on sim", backend, r)
					}
				}
			}
			if testing.Short() {
				return
			}
			for _, arm := range waitArms {
				got := runWaitExchange(t, x, BackendRT, arm)
				for r := range got.data {
					if !bytes.Equal(got.data[r], ref.data[r]) {
						t.Errorf("rt/%s: rank %d received different bytes than on sim", arm.name, r)
					}
				}
			}
		})
	}
}

// runWaitExchange runs x on a fresh world and checks that every endpoint is
// drained afterwards: nothing live, nothing active, every handle released by
// the wait that completed it.
func runWaitExchange(t *testing.T, x waitExchange, backend string, arm waitArm) waitRun {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Ranks = x.ranks
	cfg.MemBytes = 48 << 20
	cfg.Core.PoolSize = 4 << 20
	cfg.Backend = backend
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := waitRun{data: make([][]byte, x.ranks), anys: make([][]int64, x.ranks)}
	if err := w.Run(func(p *Proc) error {
		return x.body(p, arm, &run.data[p.Rank()], &run.anys[p.Rank()])
	}); err != nil {
		t.Fatalf("%s/%s: %v", backend, arm.name, err)
	}
	run.clock = w.ClockNs()
	for i, ep := range w.eps {
		ps := ep.PoolStats()
		ps.FreeSendOps, ps.FreeRecvOps = 0, 0 // the free lists keep what they warmed up with
		if ps != (core.PoolStats{}) {
			t.Errorf("%s/%s: rank %d not drained: %+v", backend, arm.name, i, ps)
		}
	}
	return run
}

// fillSeeded writes deterministic bytes over n bytes at a.
func fillSeeded(m *mem.Memory, a mem.Addr, n int64, rng *rand.Rand) {
	rng.Read(m.Bytes(a, n))
}

// windowExchange: three windows of 64 eager 256-byte messages each way over
// 16 tags. Half of each window's receives are posted before the sends and
// waited on first; the other half is posted after that, so it finds its
// messages in the unexpected queue.
func windowExchange(p *Proc, arm waitArm, data *[]byte, _ *[]int64) error {
	const window, tags = 64, 16
	dt := datatype.Must(datatype.TypeVector(64, 1, 4, datatype.Int32))
	m, peer := p.Mem(), 1-p.Rank()
	rng := rand.New(rand.NewSource(int64(1 + p.Rank())))
	var sbuf, rbuf [window]mem.Addr
	for j := range sbuf {
		sbuf[j], rbuf[j] = m.MustAlloc(dt.Extent()), m.MustAlloc(dt.Extent())
	}
	for round := 0; round < 3; round++ {
		for _, a := range sbuf {
			fillSeeded(m, a, dt.Extent(), rng)
		}
		var first, rest []*core.Request
		for j := 0; j < window/2; j++ {
			first = append(first, p.Irecv(rbuf[j], 1, dt, peer, j%tags))
		}
		for j := range sbuf {
			rest = append(rest, p.Isend(sbuf[j], 1, dt, peer, j%tags))
		}
		if err := arm.wait(p, first); err != nil {
			return err
		}
		for j := window / 2; j < window; j++ {
			rest = append(rest, p.Irecv(rbuf[j], 1, dt, peer, j%tags))
		}
		if err := arm.wait(p, rest); err != nil {
			return err
		}
		for _, a := range rbuf {
			*data = append(*data, m.Bytes(a, dt.Extent())...)
		}
	}
	return nil
}

// alltoallExchange: two rounds of an 8-rank Alltoall of the Figure 10 struct
// under Auto, posted as Comm.Alltoall posts it.
func alltoallExchange(p *Proc, arm waitArm, data *[]byte, _ *[]int64) error {
	dt := fig10Struct()
	n, me, ext := p.Size(), p.Rank(), dt.Extent()
	m := p.Mem()
	sb, rb := m.MustAlloc(int64(n)*ext), m.MustAlloc(int64(n)*ext)
	rng := rand.New(rand.NewSource(int64(100 + me)))
	at := func(base mem.Addr, i int) mem.Addr { return base + mem.Addr(int64(i)*ext) }
	for round := 0; round < 2; round++ {
		fillSeeded(m, sb, int64(n)*ext, rng)
		var reqs []*core.Request
		for i := 0; i < n; i++ {
			src := (me + i) % n
			reqs = append(reqs, p.Irecv(at(rb, src), 1, dt, src, round))
		}
		for i := 0; i < n; i++ {
			dst := (me + i) % n
			reqs = append(reqs, p.Isend(at(sb, dst), 1, dt, dst, round))
		}
		if err := arm.wait(p, reqs); err != nil {
			return err
		}
		*data = append(*data, m.Bytes(rb, int64(n)*ext)...)
	}
	return nil
}

// soakExchange: rounds of seeded random traffic between four ranks — eager,
// single-segment and multi-segment rendezvous messages, every ordered pair
// drawing its own count — each rank driving its round with WaitAny over what
// is outstanding, as the traffic runner does, until half has completed, then
// waiting for the rest under the arm.
func soakExchange(p *Proc, arm waitArm, data *[]byte, anys *[]int64) error {
	const rounds, most = 4, 3
	types := []*datatype.Type{
		datatype.Must(datatype.TypeVector(64, 1, 4, datatype.Int32)),      // 256 B, eager
		datatype.Must(datatype.TypeVector(256, 16, 32, datatype.Int32)),   // 16 KiB
		datatype.Must(datatype.TypeVector(512, 128, 256, datatype.Int32)), // 256 KiB
	}
	n, me, m := p.Size(), p.Rank(), p.Mem()
	sched := rand.New(rand.NewSource(7)) // the same schedule on every rank
	fill := rand.New(rand.NewSource(int64(200 + me)))
	var bufs []mem.Addr
	buf := func(i int) mem.Addr {
		for len(bufs) <= i {
			bufs = append(bufs, m.MustAlloc(types[2].Extent()))
		}
		return bufs[i]
	}
	for round := 0; round < rounds; round++ {
		var reqs []*core.Request
		var rbufs []mem.Addr
		var rtypes []*datatype.Type
		nb := 0
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				k := sched.Intn(most + 1)
				for tag := 0; tag < k; tag++ {
					dt := types[sched.Intn(len(types))]
					switch me {
					case dst:
						a := buf(nb)
						nb++
						reqs = append(reqs, p.Irecv(a, 1, dt, src, round*most+tag))
						rbufs, rtypes = append(rbufs, a), append(rtypes, dt)
					case src:
						a := buf(nb)
						nb++
						fillSeeded(m, a, dt.Extent(), fill)
						reqs = append(reqs, p.Isend(a, 1, dt, dst, round*most+tag))
					}
				}
			}
		}
		// WaitAny releases what it completed and leaves nil in its place,
		// which is dropped; the arm releases the rest.
		out := reqs
		for len(out) > len(reqs)/2 {
			i, err := p.WaitAny(out...)
			if err != nil {
				return err
			}
			*anys = append(*anys, p.w.ClockNs(), int64(i))
			out = append(out[:i], out[i+1:]...)
		}
		if err := arm.wait(p, out); err != nil {
			return err
		}
		for i, a := range rbufs {
			*data = append(*data, m.Bytes(a, rtypes[i].Extent())...)
		}
	}
	return nil
}
