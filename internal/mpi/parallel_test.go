package mpi

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/mem"
)

// parallelWorld returns a 2-rank configuration running the parallel segment
// engine: worker-pool packing with one shard per 8 KB.
func parallelWorld(backend string, scheme core.Scheme, workers int) Config {
	cfg := DefaultConfig()
	cfg.Ranks = 2
	cfg.MemBytes = 128 << 20
	cfg.Backend = backend
	cfg.RTTimeout = 2 * time.Minute
	cfg.Core.Scheme = scheme
	cfg.Core.PackWorkers = workers
	cfg.Core.ParShardBytes = 8 << 10
	return cfg
}

// TestWorkerCountConformance is the parallel engine's determinism contract
// at the MPI layer: on the simulator, the delivered bytes are identical for
// every worker count — sharding fans out only the copies, never the layout
// walk — and on the real-time fabric every worker count delivers correctly.
func TestWorkerCountConformance(t *testing.T) {
	dt, err := datatype.TypeVector(256, 96, 160, datatype.Int32) // 96 KB, 384 B runs
	if err != nil {
		t.Fatal(err)
	}
	const count = 2
	want := confPattern(dt.Size()*int64(count), 11)
	schemes := []core.Scheme{core.SchemeGeneric, core.SchemeBCSPUP, core.SchemePRRS}
	for _, backend := range AllBackends {
		for _, scheme := range schemes {
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/w%d", backend, scheme, workers), func(t *testing.T) {
					w, err := NewWorld(parallelWorld(backend, scheme, workers))
					if err != nil {
						t.Fatal(err)
					}
					var got []byte
					err = w.Run(func(p *Proc) error {
						buf := confAlloc(p, dt, count)
						if p.Rank() == 0 {
							confFill(p, buf, dt, count, 11)
							return p.Send(buf, count, dt, 1, 3)
						}
						if _, err := p.Recv(buf, count, dt, 0, 3); err != nil {
							return err
						}
						got = confGather(p, buf, dt, count)
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s on %s with %d workers delivered wrong bytes",
							scheme, backend, workers)
					}
				})
			}
		}
	}
}

// TestWorkerCountVirtualTimeSerialInvariant pins the guard's safety property:
// on the simulator the shards run on the serial executor, so the virtual
// completion time of a transfer is a pure function of the configuration —
// two identical four-worker runs agree to the nanosecond.
func TestWorkerCountVirtualTimeSerialInvariant(t *testing.T) {
	dt, err := datatype.TypeVector(128, 64, 128, datatype.Int32) // 32 KB
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (virtual float64, sum []byte) {
		w, err := NewWorld(parallelWorld(BackendSim, core.SchemeBCSPUP, workers))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(p *Proc) error {
			buf := confAlloc(p, dt, 1)
			if p.Rank() == 0 {
				confFill(p, buf, dt, 1, 9)
				t0 := p.Now()
				if err := p.Send(buf, 1, dt, 1, 0); err != nil {
					return err
				}
				virtual = p.Now().Sub(t0).Micros()
				return nil
			}
			if _, err := p.Recv(buf, 1, dt, 0, 0); err != nil {
				return err
			}
			sum = confGather(p, buf, dt, 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return virtual, sum
	}
	v1, b1 := run(4)
	v2, b2 := run(4)
	if v1 != v2 {
		t.Fatalf("same configuration, different virtual times: %v vs %v", v1, v2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("same configuration, different bytes")
	}
}

// TestParallelFaultSoak floods one sender with concurrent messages while
// the parallel engine (four workers) runs under fault injection, on every
// backend. Transient faults must heal invisibly: every message must land with
// the right bytes. Run with -race (the repository's `make test` does) this is
// also the data-race soak for the worker pool under a dry pack pool.
func TestParallelFaultSoak(t *testing.T) {
	dt, err := datatype.TypeVector(128, 96, 160, datatype.Int32) // 48 KB messages
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 8
	for _, backend := range AllBackends {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", backend, seed), func(t *testing.T) {
				cfg := parallelWorld(backend, core.SchemeBCSPUP, 4)
				cfg.Core.PoolSize = 1 << 20 // small pool: force waiter parking
				cfg.Fault = fault.New(fault.Config{
					Seed:         seed,
					PostFailRate: 0.03,
					CQEErrorRate: 0.03,
					RegFailRate:  0.02,
				})
				w, err := NewWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := make([][]byte, msgs)
				err = w.Run(func(p *Proc) error {
					if p.Rank() == 0 {
						reqs := make([]*core.Request, msgs)
						for m := 0; m < msgs; m++ {
							buf := confAlloc(p, dt, 1)
							confFill(p, buf, dt, 1, byte(m+1))
							reqs[m] = p.Isend(buf, 1, dt, 1, m)
						}
						return p.Wait(reqs...)
					}
					reqs := make([]*core.Request, msgs)
					bufs := make([]mem.Addr, msgs)
					for m := 0; m < msgs; m++ {
						bufs[m] = confAlloc(p, dt, 1)
						reqs[m] = p.Irecv(bufs[m], 1, dt, 0, m)
					}
					if err := p.Wait(reqs...); err != nil {
						return err
					}
					for m := 0; m < msgs; m++ {
						got[m] = confGather(p, bufs[m], dt, 1)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for m := 0; m < msgs; m++ {
					if !bytes.Equal(got[m], confPattern(dt.Size(), byte(m+1))) {
						t.Fatalf("message %d corrupted under faults", m)
					}
				}
			})
		}
	}
}
