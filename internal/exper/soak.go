package exper

import (
	"fmt"
	"strings"

	"repro/internal/mpi"
	"repro/internal/qos"
	"repro/internal/stats"
	"repro/internal/traffic"
)

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
		pol := qos.DefaultPolicy()
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
