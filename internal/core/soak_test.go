package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/qos"
	"repro/internal/simtime"
)

// The soak test: random traffic — mixed schemes per world, random datatypes,
// random sizes spanning eager and rendezvous, random posting order (receives
// before or after sends), multiple concurrent messages per pair — must
// always deliver exactly the sent bytes, in order per (source, tag), with
// balanced resources afterwards.
func TestRandomTrafficSoak(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		schemes := []Scheme{SchemeGeneric, SchemeBCSPUP, SchemeRWGUP,
			SchemePRRS, SchemeMultiW, SchemeAuto}
		cfg := DefaultConfig()
		cfg.Scheme = schemes[rng.Intn(len(schemes))]
		cfg.PoolSize = int64(rng.Intn(3)+1) << 20
		if rng.Intn(4) == 0 {
			cfg.RegCache = false
		}
		nRanks := rng.Intn(2) + 2 // 2..3
		w := newTestWorld(t, nRanks, cfg, 64<<20)

		// Plan: a set of messages (src, dst, tag, type, count) known to all.
		type msg struct {
			src, dst, tag int
			dt            *datatype.Type
			count         int
			payload       []byte
		}
		types := []*datatype.Type{
			datatype.Must(datatype.TypeVector(32, 4, 16, datatype.Int32)),
			datatype.Must(datatype.TypeContiguous(512, datatype.Int32)),
			datatype.Must(datatype.TypeStruct(
				[]int{1, 5, 9}, []int64{0, 8, 40},
				[]*datatype.Type{datatype.Int32, datatype.Int32, datatype.Int32})),
		}
		nMsgs := rng.Intn(8) + 3
		var plan []msg
		for i := 0; i < nMsgs; i++ {
			src := rng.Intn(nRanks)
			dst := rng.Intn(nRanks)
			if dst == src {
				dst = (dst + 1) % nRanks
			}
			plan = append(plan, msg{
				src: src, dst: dst, tag: rng.Intn(3),
				dt:    types[rng.Intn(len(types))],
				count: rng.Intn(40) + 1,
			})
		}
		received := make([][]byte, len(plan))
		recvBufs := make([]mem.Addr, len(plan))
		jitter := make([]simtime.Duration, nRanks)
		for i := range jitter {
			jitter[i] = simtime.Duration(rng.Int63n(1000))
		}
		ok := true

		w.run(t, func(p *simtime.Process, ep *Endpoint) {
			p.Sleep(jitter[ep.Rank()])
			var reqs []*Request
			var recvIdx []int
			for i, m := range plan {
				if m.dst == ep.Rank() {
					buf := allocFor(ep, m.dt, m.count)
					recvBufs[i] = buf
					reqs = append(reqs, ep.Irecv(buf, m.count, m.dt, m.src, m.tag))
					recvIdx = append(recvIdx, i)
				}
			}
			for i, m := range plan {
				if m.src == ep.Rank() {
					buf := allocFor(ep, m.dt, m.count)
					plan[i].payload = fillMsg(ep, buf, m.dt, m.count, byte(i+1))
					reqs = append(reqs, ep.Isend(buf, m.count, m.dt, m.dst, m.tag))
				}
			}
			WaitAll(p, reqs...)
			for _, i := range recvIdx {
				received[i] = readMsg(ep, recvBufs[i], plan[i].dt, plan[i].count)
			}
		})

		for i, m := range plan {
			if m.payload == nil || received[i] == nil {
				return false
			}
			if !bytes.Equal(m.payload, received[i]) {
				ok = false
			}
		}
		// Resource balance.
		for _, ep := range w.eps {
			if ep.activeSends != 0 || ep.activeRecvs != 0 || ep.wrLive() != 0 {
				return false
			}
			if ep.packPool.enabled && ep.packPool.available() != ep.packPool.totalSlots() {
				return false
			}
			if ep.unpackPool.enabled && ep.unpackPool.available() != ep.unpackPool.totalSlots() {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The fault soak: one short pass of random traffic under transient fault
// injection runs by default with every `go test`. The retry machinery must
// keep delivery byte-identical and resources balanced no matter where the
// injector lands its faults — with the admission gate off and, since an
// abort must release what a parked transfer waits for, with it on.
func TestRandomTrafficFaultSoak(t *testing.T) {
	f := func(seed int64) bool {
		return randomTrafficFaultSoak(t, seed, false) && randomTrafficFaultSoak(t, seed, true)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSoakRegressionSeeds replays soak inputs that once exposed real bugs.
// 7015782731170911169: P-RRS plan where a transient registration fault put
// one message's RTS into retry backoff and a later same-tag eager send
// overtook it, matching the wrong (smaller) receive — "message truncated".
// Fixed by the per-destination announce queue in endpoint.go.
func TestSoakRegressionSeeds(t *testing.T) {
	for _, seed := range []int64{7015782731170911169} {
		if !randomTrafficFaultSoak(t, seed, false) || !randomTrafficFaultSoak(t, seed, true) {
			t.Errorf("regression seed %d failed", seed)
		}
	}
}

// randomTrafficFaultSoak is the soak property for one seed, named so a
// failing input reported by testing/quick can be replayed directly. gated
// turns service mode on: the admission gate, for transfers from 16 KiB up.
func randomTrafficFaultSoak(t *testing.T, seed int64, gated bool) bool {
	{
		rng := rand.New(rand.NewSource(seed))
		schemes := []Scheme{SchemeGeneric, SchemeBCSPUP, SchemeRWGUP,
			SchemePRRS, SchemeMultiW, SchemeAuto}
		cfg := DefaultConfig()
		cfg.Scheme = schemes[rng.Intn(len(schemes))]
		cfg.PoolSize = int64(rng.Intn(3)+1) << 20
		if gated {
			pol := qos.DefaultPolicy()
			pol.BulkThreshold = 16 << 10
			cfg.QoS = &pol
		}
		fc := fault.Config{
			Seed:         rng.Int63(),
			PostFailRate: 0.04,
			CQEErrorRate: 0.06,
			RegFailRate:  0.04,
			DelayRate:    0.08,
			MaxDelay:     15 * simtime.Microsecond,
		}
		w, _ := newFaultWorld(t, 2, cfg, 64<<20, fc)

		types := []*datatype.Type{
			datatype.Must(datatype.TypeVector(32, 4, 16, datatype.Int32)),
			datatype.Must(datatype.TypeContiguous(512, datatype.Int32)),
		}
		type msg struct {
			src, dst, tag int
			dt            *datatype.Type
			count         int
			payload       []byte
		}
		nMsgs := rng.Intn(4) + 2
		var plan []msg
		for i := 0; i < nMsgs; i++ {
			src := rng.Intn(2)
			plan = append(plan, msg{
				src: src, dst: 1 - src, tag: rng.Intn(3),
				dt:    types[rng.Intn(len(types))],
				count: rng.Intn(40) + 1,
			})
		}
		received := make([][]byte, len(plan))
		recvBufs := make([]mem.Addr, len(plan))
		w.run(t, func(p *simtime.Process, ep *Endpoint) {
			var reqs []*Request
			var recvIdx []int
			for i, m := range plan {
				if m.dst == ep.Rank() {
					buf := allocFor(ep, m.dt, m.count)
					recvBufs[i] = buf
					reqs = append(reqs, ep.Irecv(buf, m.count, m.dt, m.src, m.tag))
					recvIdx = append(recvIdx, i)
				}
			}
			for i, m := range plan {
				if m.src == ep.Rank() {
					buf := allocFor(ep, m.dt, m.count)
					plan[i].payload = fillMsg(ep, buf, m.dt, m.count, byte(i+1))
					reqs = append(reqs, ep.Isend(buf, m.count, m.dt, m.dst, m.tag))
				}
			}
			WaitAll(p, reqs...)
			for _, r := range reqs {
				if r.Err != nil {
					t.Errorf("transient-fault soak request failed: %v", r.Err)
				}
			}
			for _, i := range recvIdx {
				received[i] = readMsg(ep, recvBufs[i], plan[i].dt, plan[i].count)
			}
		})

		for i, m := range plan {
			if m.payload == nil || received[i] == nil || !bytes.Equal(m.payload, received[i]) {
				return false
			}
		}
		for _, ep := range w.eps {
			if ep.activeSends != 0 || ep.activeRecvs != 0 || ep.wrLive() != 0 {
				return false
			}
			if ep.packPool.enabled && ep.packPool.available() != ep.packPool.totalSlots() {
				return false
			}
			if ep.unpackPool.enabled && ep.unpackPool.available() != ep.unpackPool.totalSlots() {
				return false
			}
			if gated && ep.gate.Parked() != 0 {
				return false
			}
		}
		return true
	}
}

// Determinism: the same plan run twice produces identical virtual end times.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() simtime.Time {
		cfg := DefaultConfig()
		cfg.Scheme = SchemeBCSPUP
		cfg.PoolSize = 2 << 20
		w := newTestWorld(t, 2, cfg, 48<<20)
		vec := datatype.Must(datatype.TypeVector(128, 32, 64, datatype.Int32))
		w.run(t, func(p *simtime.Process, ep *Endpoint) {
			buf := allocFor(ep, vec, 4)
			if ep.Rank() == 0 {
				fillMsg(ep, buf, vec, 4, 1)
				for i := 0; i < 5; i++ {
					ep.Send(p, buf, 4, vec, 1, i)
				}
			} else {
				for i := 0; i < 5; i++ {
					ep.Recv(p, buf, 4, vec, 0, i)
				}
			}
		})
		return w.eng.Now()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic end times: %v vs %v", a, b)
	}
	if a == 0 {
		t.Fatal("no time elapsed")
	}
}
