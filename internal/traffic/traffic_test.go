package traffic

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/qos"
	"repro/internal/stats"
	"repro/internal/trace"
)

func testSpec() Spec {
	return Spec{
		Seed:       7,
		Ranks:      4,
		Comms:      2,
		EagerFlows: 6,
		BulkFlows:  3,
		Msgs:       4,
		EagerBytes: 1 << 10,
		BulkBytes:  128 << 10,
		ClosedFrac: 0.5,
		GapNs:      20_000,
	}
}

func testWorld(t *testing.T, backend string, ranks int, mut func(*mpi.Config)) *mpi.World {
	t.Helper()
	cfg := mpi.DefaultConfig()
	cfg.Ranks = ranks
	cfg.MemBytes = 64 << 20
	cfg.Backend = backend
	cfg.RTTimeout = 2 * time.Minute
	if mut != nil {
		mut(&cfg)
	}
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w
}

func TestFlowsDeterministic(t *testing.T) {
	a := testSpec().Flows()
	b := testSpec().Flows()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different flows:\n%v\n%v", a, b)
	}
	s2 := testSpec()
	s2.Seed = 8
	if reflect.DeepEqual(a, s2.Flows()) {
		t.Fatalf("different seeds produced identical flows")
	}
	for _, f := range a {
		if f.Src == f.Dst {
			t.Fatalf("flow %d is a self-message", f.ID)
		}
		if f.Comm < 0 || f.Comm >= 2 {
			t.Fatalf("flow %d comm %d out of range", f.ID, f.Comm)
		}
	}
}

// runSoak executes one mixed soak and returns the aggregate counters plus
// per-class latency dumps.
func runSoak(t *testing.T, backend string, spec Spec, mut func(*mpi.Config)) (stats.Counters, BucketDump, BucketDump, *Runner) {
	t.Helper()
	reg := stats.NewRegistry()
	w := testWorld(t, backend, spec.Ranks, mut)
	r := NewRunner(spec, reg)
	if err := r.Run(w); err != nil {
		t.Fatalf("soak on %s: %v", backend, err)
	}
	return AggregateCounters(w),
		DumpHistogram(reg.Histogram(HistEager)),
		DumpHistogram(reg.Histogram(HistBulk)),
		r
}

func TestSoakRunsOnBothBackends(t *testing.T) {
	for _, backend := range mpi.AllBackends {
		t.Run(backend, func(t *testing.T) {
			qp := qos.DefaultPolicy()
			ctr, eager, bulk, r := runSoak(t, backend, testSpec(), func(c *mpi.Config) {
				c.Core.QoS = &qp
			})
			spec := testSpec()
			wantEager := int64(spec.EagerFlows * spec.Msgs)
			wantBulk := int64(spec.BulkFlows * spec.Msgs)
			if eager.N != wantEager || bulk.N != wantBulk {
				t.Fatalf("latency samples: eager %d (want %d) bulk %d (want %d)",
					eager.N, wantEager, bulk.N, wantBulk)
			}
			if ef, bf := r.Failures(); ef != 0 || bf != 0 {
				t.Fatalf("failures: eager %d bulk %d", ef, bf)
			}
			if ctr.EagerSends == 0 || ctr.RendezvousSends == 0 {
				t.Fatalf("implausible counters: %s", ctr.String())
			}
		})
	}
}

func TestSoakSimDeterministic(t *testing.T) {
	qp := qos.DefaultPolicy()
	mut := func(c *mpi.Config) { c.Core.QoS = &qp }
	ctr1, e1, b1, _ := runSoak(t, mpi.BackendSim, testSpec(), mut)
	ctr2, e2, b2, _ := runSoak(t, mpi.BackendSim, testSpec(), mut)
	if ctr1.String() != ctr2.String() {
		t.Fatalf("counters drifted across identical sim soaks:\n%s\n%s", ctr1.String(), ctr2.String())
	}
	if !reflect.DeepEqual(e1, e2) || !reflect.DeepEqual(b1, b2) {
		t.Fatalf("latency histograms drifted across identical sim soaks")
	}
}

// TestCrippledPoolAdmission is the admission-control fault path: a segpool
// with a single slot forces bulk transfers to park while eager traffic keeps
// flowing. Parks must show up in the counters and as qos-park trace marks,
// and the eager class must see zero failures.
func TestCrippledPoolAdmission(t *testing.T) {
	spec := Spec{
		Ranks: 2,
		Explicit: []Flow{
			{ID: 0, Src: 0, Dst: 1, Comm: 0, Count: 3, Bytes: 256 << 10, Bulk: true, GapNs: 2_000},
			{ID: 1, Src: 0, Dst: 1, Comm: 0, Count: 3, Bytes: 256 << 10, Bulk: true, GapNs: 2_000},
			{ID: 2, Src: 0, Dst: 1, Comm: 0, Count: 3, Bytes: 256 << 10, Bulk: true, GapNs: 2_000},
			{ID: 3, Src: 0, Dst: 1, Comm: 0, Count: 16, Bytes: 512, Closed: true},
			{ID: 4, Src: 1, Dst: 0, Comm: 0, Count: 16, Bytes: 512, Closed: true},
		},
	}
	for _, backend := range mpi.AllBackends {
		t.Run(backend, func(t *testing.T) {
			rec := trace.New()
			reg := stats.NewRegistry()
			w := testWorld(t, backend, 2, func(c *mpi.Config) {
				c.Trace = rec
				// One 128 KiB slot: a second concurrent bulk transfer sees
				// zero free slots and must park at admission.
				c.Core.PoolSize = c.Core.SegmentSize
				c.Core.QoS = &qos.Policy{BulkThreshold: 64 << 10, MinFreeSlots: 1}
			})
			r := NewRunner(spec, reg)
			if err := r.Run(w); err != nil {
				t.Fatalf("crippled soak on %s: %v", backend, err)
			}
			ctr := AggregateCounters(w)
			if ctr.QoSParked == 0 {
				t.Fatalf("expected bulk parks under a one-slot pool; counters: %s", ctr.String())
			}
			if ef, bf := r.Failures(); ef != 0 || bf != 0 {
				t.Fatalf("failures under admission pressure: eager %d bulk %d", ef, bf)
			}
			var parks int
			for _, ev := range rec.Events() {
				if ev.Name == "qos-park" {
					parks++
				}
			}
			if parks == 0 {
				t.Fatalf("no qos-park trace instants recorded (QoSParked=%d)", ctr.QoSParked)
			}
		})
	}
}

// A transfer that dies under injected faults still counts against its class:
// the runner reads the error WaitAny returns, because the request it
// completed has been released by then. Every RDMA completion fails for good,
// so every bulk message fails on both sides and records no latency, while
// the eager flow beside it, which posts no RDMA, delivers everything.
func TestFailedFlowsAreCounted(t *testing.T) {
	const bulkMsgs, eagerMsgs = 3, 4
	spec := Spec{Ranks: 2, Explicit: []Flow{
		{ID: 0, Src: 0, Dst: 1, Count: bulkMsgs, Bytes: 64 << 10, Bulk: true, Closed: true},
		{ID: 1, Src: 1, Dst: 0, Count: eagerMsgs, Bytes: 512, Closed: true},
	}}
	for _, backend := range mpi.AllBackends {
		t.Run(backend, func(t *testing.T) {
			w := testWorld(t, backend, 2, func(c *mpi.Config) {
				c.Fault = fault.New(fault.Config{Seed: 1, CQEErrorRate: 1, PermanentRate: 1})
			})
			reg := stats.NewRegistry()
			r := NewRunner(spec, reg)
			if err := r.Run(w); err != nil {
				t.Fatalf("faulted soak on %s: %v", backend, err)
			}
			if ef, bf := r.Failures(); ef != 0 || bf != 2*bulkMsgs {
				t.Errorf("failures: eager %d bulk %d, want 0 and %d (both sides of every bulk message)", ef, bf, 2*bulkMsgs)
			}
			if n := reg.Histogram(HistBulk).Count(); n != 0 {
				t.Errorf("%d bulk latencies recorded, want none: every bulk message failed", n)
			}
			if n := reg.Histogram(HistEager).Count(); n != eagerMsgs {
				t.Errorf("%d eager latencies recorded, want %d", n, eagerMsgs)
			}
		})
	}
}

// TestAnnounceOrderManyComms stresses the per-destination announce queue:
// many concurrent flows between one rank pair, spread over several
// communicators and tags, each with multiple same-tag messages in flight.
// Every payload carries (flowID, seq); MPI non-overtaking demands that the
// k-th receive of a flow always observes seq k.
func TestAnnounceOrderManyComms(t *testing.T) {
	const nComms = 4
	var flows []Flow
	for c := 0; c < nComms; c++ {
		for i := 0; i < 3; i++ {
			// Same-pair eager flows with several messages in flight.
			flows = append(flows, Flow{
				ID: len(flows), Src: 0, Dst: 1, Comm: c,
				Count: 10, Bytes: 768, GapNs: 1_500, Stamp: true,
			})
		}
		// One rendezvous-size flow per comm so RTS announces interleave
		// with the eager ones in the same per-destination queue.
		flows = append(flows, Flow{
			ID: len(flows), Src: 0, Dst: 1, Comm: c,
			Count: 4, Bytes: 64 << 10, Bulk: true, GapNs: 3_000, Stamp: true,
		})
	}
	spec := Spec{Ranks: 2, Comms: nComms, Explicit: flows}
	for _, backend := range mpi.AllBackends {
		t.Run(backend, func(t *testing.T) {
			w := testWorld(t, backend, 2, nil)
			r := NewRunner(spec, stats.NewRegistry())
			r.OnSend = func(f Flow, k int, payload []byte) {
				binary.LittleEndian.PutUint32(payload[0:4], uint32(f.ID))
				binary.LittleEndian.PutUint32(payload[4:8], uint32(k))
			}
			r.OnRecv = func(f Flow, k int, payload []byte) error {
				id := binary.LittleEndian.Uint32(payload[0:4])
				seq := binary.LittleEndian.Uint32(payload[4:8])
				if int(id) != f.ID || int(seq) != k {
					return fmt.Errorf("flow %d msg %d: got payload (flow %d, seq %d)", f.ID, k, id, seq)
				}
				return nil
			}
			if err := r.Run(w); err != nil {
				t.Fatalf("announce stress on %s: %v", backend, err)
			}
			if ef, bf := r.Failures(); ef != 0 || bf != 0 {
				t.Fatalf("failures: eager %d bulk %d", ef, bf)
			}
		})
	}
}
