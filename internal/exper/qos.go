package exper

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/qos"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// The QoS sweep measures what the service-mode layer (internal/qos) buys
// under heavy mixed traffic: closed-loop Multi-W bulk streams into one
// destination rank flood its inbox with RDMA-write doorbell batches, while a
// latency-sensitive eager stream to the same rank measures per-message
// injection-to-delivery latency. With QoS off the eager class queues behind
// whole Multi-W descriptor floods; with lanes + per-peer windows on, a bulk
// transfer never occupies more than a descriptor window per doorbell and a
// byte window in flight, so eager p99 collapses.
//
// rt rows are the measurement that matters (the contention is a wall-clock
// artifact of concurrent delivery); sim rows are included for completeness
// and are deterministic, so guarded. The soak golden (SOAK_traffic.json) is
// the other sim-side regression net for this subsystem.
const (
	qosRanks      = 4
	qosBulkBytes  = 512 << 10 // per bulk message; 64 B runs -> ~8k descriptors
	qosBulkMsgs   = 20
	qosEagerBytes = 2 << 10
	qosEagerMsgs  = 1000
	// qosWarmup discards the startup transient: the first Multi-W message
	// per bulk flow pays one-time buffer registration and layout flattening
	// (~5 ms each on rt), during which early eager messages queue as
	// unexpected and drain in a burst. Those samples measure setup cost,
	// not steady-state queueing, on both configurations.
	qosWarmup     = 150
	qosBulkWarmup = 2
)

// QoSPolicy is the sweep's enabled-mode policy: bulk at 64 KiB, four
// descriptors per doorbell, 128 KiB in flight per peer, and admission
// pressure at one free staging slot.
func QoSPolicy() qos.Policy {
	return qos.Policy{
		BulkThreshold: 64 << 10,
		DescWindow:    4,
		ByteWindow:    128 << 10,
		MinFreeSlots:  1,
	}
}

// qosFlows is the contention mix: two closed-loop bulk senders keep rank 0's
// inbox saturated for longer than the whole eager run takes in either
// configuration, so every eager sample measures per-message latency UNDER
// bulk load. The eager stream is closed-loop too (one message in flight):
// its latency is then pure delivery delay behind the bulk descriptor
// backlog, with no self-queueing.
func qosFlows() []traffic.Flow {
	return []traffic.Flow{
		{ID: 0, Src: 2, Dst: 0, Count: qosBulkMsgs, Bytes: qosBulkBytes, Bulk: true, Closed: true, Warmup: qosBulkWarmup},
		{ID: 1, Src: 3, Dst: 0, Count: qosBulkMsgs, Bytes: qosBulkBytes, Bulk: true, Closed: true, Warmup: qosBulkWarmup},
		{ID: 2, Src: 1, Dst: 0, Count: qosEagerMsgs, Bytes: qosEagerBytes, Closed: true, Warmup: qosWarmup},
	}
}

// QoSRow is one (backend, qos, class) latency measurement in microseconds.
type QoSRow struct {
	Backend string  `json:"backend"`
	QoS     bool    `json:"qos"`
	Class   string  `json:"class"`
	N       int64   `json:"n"`
	P50US   float64 `json:"p50_us"`
	P99US   float64 `json:"p99_us"`
	MaxUS   float64 `json:"max_us"`
}

// QoSDoc is the BENCH_qos.json document.
type QoSDoc struct {
	Benchmark   string   `json:"benchmark"`
	Workload    string   `json:"workload"`
	Note        string   `json:"note"`
	Improvement float64  `json:"rt_eager_p99_improvement,omitempty"`
	SimRows     []QoSRow `json:"sim_rows"`
	RTRows      []QoSRow `json:"rt_rows"`
}

// qosSweep runs the contention workload with the service layer off and on,
// on each requested backend ("sim", "rt"): one row per (backend, qos, class).
func qosSweep(backends []string, _ Options) (Doc, error) {
	doc := &QoSDoc{
		Benchmark: "qos-service-mode",
		Workload: fmt.Sprintf("%d ranks; 2 closed-loop Multi-W bulk streams (%d x %d KB, 64 B runs) + 1 eager stream (%d x %d B), all into rank 0",
			qosRanks, qosBulkMsgs, qosBulkBytes>>10, qosEagerMsgs, qosEagerBytes),
		Note: "sim_rows are deterministic (guarded by `make guard`); rt_rows are wall-clock and machine-dependent: " +
			"the target is eager p99 at least 2x better with lanes+windows on.",
		SimRows: []QoSRow{},
		RTRows:  []QoSRow{},
	}
	for _, backend := range backends {
		part := &doc.SimRows
		if backend == mpi.BackendRT {
			part = &doc.RTRows
		}
		for _, enabled := range []bool{false, true} {
			cfg := worldConfig(qosRanks, core.SchemeMultiW, 256<<20, func(c *mpi.Config) {
				c.Backend = backend
				c.RTTimeout = 2 * time.Minute
			})
			if enabled {
				pol := QoSPolicy()
				cfg.Core.QoS = &pol
			}
			w, err := mpi.NewWorld(cfg)
			if err != nil {
				return nil, err
			}
			reg := stats.NewRegistry()
			r := traffic.NewRunner(traffic.Spec{Ranks: qosRanks, Explicit: qosFlows()}, reg)
			if err := r.Run(w); err != nil {
				return nil, fmt.Errorf("qos sweep: qos=%v on %s: %w", enabled, backend, err)
			}
			if ef, bf := r.Failures(); ef != 0 || bf != 0 {
				return nil, fmt.Errorf("qos sweep: qos=%v on %s: %d eager / %d bulk failures",
					enabled, backend, ef, bf)
			}
			for _, cl := range []struct{ class, hist string }{
				{"eager", traffic.HistEager},
				{"bulk", traffic.HistBulk},
			} {
				hist := reg.Histogram(cl.hist)
				*part = append(*part, QoSRow{
					Backend: backend,
					QoS:     enabled,
					Class:   cl.class,
					N:       hist.Count(),
					P50US:   float64(hist.Quantile(0.50)) / 1e3,
					P99US:   float64(hist.Quantile(0.99)) / 1e3,
					MaxUS:   float64(hist.Quantile(1)) / 1e3,
				})
			}
		}
	}
	doc.Improvement = eagerP99Improvement(doc.RTRows)
	return doc, nil
}

// eagerP99Improvement returns how much the eager class's p99 improves with
// the service layer on (off/on ratio; >1 is better with QoS). Zero when
// either row is missing.
func eagerP99Improvement(rows []QoSRow) float64 {
	var off, on float64
	for _, r := range rows {
		if r.Class != "eager" {
			continue
		}
		if r.QoS {
			on = r.P99US
		} else {
			off = r.P99US
		}
	}
	if off == 0 || on == 0 {
		return 0
	}
	return off / on
}

// Table renders the rows as an aligned text table.
func (d *QoSDoc) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# qos service mode: %-8s %5s %7s %8s %12s %12s %12s\n",
		"backend", "qos", "class", "msgs", "p50 us", "p99 us", "max us")
	for _, r := range concat(d.SimRows, d.RTRows) {
		fmt.Fprintf(&b, "%20s %5v %7s %8d %12.2f %12.2f %12.2f\n",
			r.Backend, r.QoS, r.Class, r.N, r.P50US, r.P99US, r.MaxUS)
	}
	if d.Improvement > 0 {
		fmt.Fprintf(&b, "rt eager p99 improvement with QoS: %.2fx (target >= 2x)\n", d.Improvement)
	}
	return b.String()
}

// --- Traffic soak golden -----------------------------------------------------

// The soak runs two phases on the simulator with the service layer on:
// first the mixed heavy phase (bulk + eager over several communicators),
// then an eager-only cooldown. Registry gauge high-waters are windowed per
// phase with ResetHighs — the cooldown phase's pool high-water must read 0,
// not the mixed phase's peak. Everything is deterministic, so the document
// is byte-identical across reruns and the guard compares all of it.

// soakSpec returns the soak's phase specs.
func soakSpecs() (mixed, cooldown traffic.Spec) {
	mixed = traffic.Spec{
		Seed:       11,
		Ranks:      8,
		Comms:      3,
		EagerFlows: 10,
		BulkFlows:  5,
		Msgs:       6,
		EagerBytes: 2 << 10,
		BulkBytes:  256 << 10,
		ClosedFrac: 0.5,
		GapNs:      30_000,
	}
	cooldown = traffic.Spec{
		Seed:       12,
		Ranks:      8,
		Comms:      2,
		EagerFlows: 8,
		BulkFlows:  0,
		Msgs:       6,
		EagerBytes: 1 << 10,
		ClosedFrac: 1,
	}
	return mixed, cooldown
}

// SoakPhase is one phase's snapshot in the golden document.
type SoakPhase struct {
	Name     string `json:"name"`
	Counters string `json:"counters"`

	// Windowed gauge high-waters (ResetHighs runs between phases).
	PoolPackHigh   int64 `json:"pool_pack_high"`
	PoolUnpackHigh int64 `json:"pool_unpack_high"`
	RegPagesHigh   int64 `json:"reg_pages_high"`
}

// SoakDoc is the SOAK_traffic.json document.
type SoakDoc struct {
	Benchmark string             `json:"benchmark"`
	Note      string             `json:"note"`
	Phases    []SoakPhase        `json:"phases"`
	EagerLat  traffic.BucketDump `json:"eager_lat_ns"`
	BulkLat   traffic.BucketDump `json:"bulk_lat_ns"`
}

// soakSweep executes the two-phase sim soak and returns the golden document.
func soakSweep([]string, Options) (Doc, error) {
	reg := stats.NewRegistry()
	doc := &SoakDoc{
		Benchmark: "traffic-soak",
		Note: "sim backend, QoS on; deterministic and byte-identical across reruns (make soak-guard). " +
			"Gauge high-waters are windowed per phase: the eager-only cooldown must not inherit the mixed phase's pool peak.",
	}
	mixed, cooldown := soakSpecs()
	for _, ph := range []struct {
		name string
		spec traffic.Spec
	}{{"mixed", mixed}, {"eager-cooldown", cooldown}} {
		cfg := mpi.DefaultConfig()
		cfg.Ranks = ph.spec.Ranks
		cfg.Metrics = reg
		pol := QoSPolicy()
		cfg.Core.QoS = &pol
		w, err := mpi.NewWorld(cfg)
		if err != nil {
			return nil, err
		}
		r := traffic.NewRunner(ph.spec, reg)
		if err := r.Run(w); err != nil {
			return nil, fmt.Errorf("soak phase %s: %w", ph.name, err)
		}
		if ef, bf := r.Failures(); ef != 0 || bf != 0 {
			return nil, fmt.Errorf("soak phase %s: %d eager / %d bulk failures", ph.name, ef, bf)
		}
		ctr := traffic.AggregateCounters(w)
		doc.Phases = append(doc.Phases, SoakPhase{
			Name:           ph.name,
			Counters:       ctr.String(),
			PoolPackHigh:   reg.Gauge("pool_used/pack").High(),
			PoolUnpackHigh: reg.Gauge("pool_used/unpack").High(),
			RegPagesHigh:   reg.Gauge("registered_pages").High(),
		})
		reg.ResetHighs()
	}
	doc.EagerLat = traffic.DumpHistogram(reg.Histogram(traffic.HistEager))
	doc.BulkLat = traffic.DumpHistogram(reg.Histogram(traffic.HistBulk))
	return doc, nil
}

// Table lists each phase's windowed gauge high-waters.
func (d *SoakDoc) Table() string {
	var b strings.Builder
	for _, ph := range d.Phases {
		fmt.Fprintf(&b, "phase %-16s pool highs pack=%d unpack=%d regpages=%d\n",
			ph.Name, ph.PoolPackHigh, ph.PoolUnpackHigh, ph.RegPagesHigh)
	}
	return b.String()
}
