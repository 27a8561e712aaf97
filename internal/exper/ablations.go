package exper

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/ib"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/pack"
	"repro/internal/pario"
)

// The ablations quantify the design choices DESIGN.md calls out beyond the
// paper's own figures: segment size, the registration grouping strategy,
// the pin-down cache, and the improved Eager path of Section 7.1.

// AblationSegmentSize sweeps the BC-SPUP segment size for a 1 MB vector
// message; the paper notes "tuning on the segment size is quite important"
// (Section 7.2).
func AblationSegmentSize() *Result {
	r := &Result{
		Name:        "ablation-segsize",
		Title:       "BC-SPUP latency vs segment size (1 MB vector message)",
		XLabel:      "segment KB",
		YLabel:      "one-way latency (us)",
		SeriesOrder: []string{"BC-SPUP"},
	}
	dt := VectorType(2048) // 1 MB
	for _, segKB := range []int64{16, 32, 64, 128, 256, 512, 1024} {
		cfg := worldConfig(2, core.SchemeBCSPUP, expMem2, func(c *mpi.Config) {
			c.Core.SegmentSize = segKB << 10
		})
		r.Add(segKB, map[string]float64{
			"BC-SPUP": mustSim(PingPongLatency(cfg, dt, 1, latWarmup, latIters)),
		})
	}
	return r
}

// AblationOGR compares the modeled registration cost of the three strategies
// of Section 5.4.1 — register each block, register the covering region, and
// Optimistic Group Registration — on the vector workload.
func AblationOGR() *Result {
	r := &Result{
		Name:        "ablation-ogr",
		Title:       "Registration strategy cost for the vector message buffer",
		XLabel:      "columns",
		YLabel:      "modeled registration cost (us)",
		SeriesOrder: []string{"per-block", "cover-all", "OGR"},
	}
	model := ib.DefaultModel()
	cost := mem.RegCost{Base: int64(model.RegBase), PerPage: int64(model.RegPerPage)}
	for _, x := range vectorColumns {
		dt := VectorType(x)
		// Lay the message out at a representative base address.
		blocks, _ := pack.ProgramBlocks(mem.Addr(1<<20), datatype.Compile(dt, 1), 0)
		perBlock := mem.TotalCost(mem.GroupRegions(blocks, mem.RegCost{}), cost)
		coverAll := mem.TotalCost(mem.CoverAll(blocks), cost)
		ogr := mem.TotalCost(mem.GroupRegions(blocks, cost), cost)
		r.Add(int64(x), map[string]float64{
			"per-block": float64(perBlock) / 1e3,
			"cover-all": float64(coverAll) / 1e3,
			"OGR":       float64(ogr) / 1e3,
		})
	}
	r.Notes = append(r.Notes,
		"OGR must never exceed the better of the two fixed strategies")
	return r
}

// AblationPindown measures the pin-down cache's effect on a buffer-reusing
// contiguous rendezvous ping-pong.
func AblationPindown() *Result {
	r := &Result{
		Name:        "ablation-pindown",
		Title:       "Pin-down cache effect on contiguous rendezvous latency",
		XLabel:      "KB",
		YLabel:      "one-way latency (us)",
		SeriesOrder: []string{"cache on", "cache off"},
	}
	for _, kb := range []int64{16, 64, 256, 1024} {
		dt := ContigType(kb << 10)
		on := worldConfig(2, core.SchemeGeneric, expMem2, nil)
		off := worldConfig(2, core.SchemeGeneric, expMem2, func(c *mpi.Config) {
			c.Core.RegCache = false
		})
		r.Add(kb, map[string]float64{
			"cache on":  mustSim(PingPongLatency(on, dt, 1, latWarmup, latIters)),
			"cache off": mustSim(PingPongLatency(off, dt, 1, latWarmup, latIters)),
		})
	}
	return r
}

// AblationEagerPath isolates the Section 7.1 improvement: packing directly
// into the Eager protocol's internal buffers versus the generic four-copy
// small-message path (Figure 7 versus Figure 1).
func AblationEagerPath() *Result {
	r := &Result{
		Name:        "ablation-eager",
		Title:       "Small datatype messages: direct pack into eager buffers vs generic path",
		XLabel:      "columns",
		YLabel:      "one-way latency (us)",
		SeriesOrder: []string{"generic 4-copy", "direct 2-copy"},
	}
	for _, x := range []int{1, 2, 4, 8, 15} { // all below the eager threshold
		dt := VectorType(x)
		gen := worldConfig(2, core.SchemeGeneric, expMem2, nil)
		dir := worldConfig(2, core.SchemeBCSPUP, expMem2, nil)
		r.Add(int64(x), map[string]float64{
			"generic 4-copy": mustSim(PingPongLatency(gen, dt, 1, latWarmup, latIters)),
			"direct 2-copy":  mustSim(PingPongLatency(dir, dt, 1, latWarmup, latIters)),
		})
	}
	return r
}

// AblationAuto compares the Auto scheme selector against each fixed scheme
// across heterogeneous workloads, verifying it tracks the best fixed choice.
func AblationAuto() *Result {
	r := &Result{
		Name:        "ablation-auto",
		Title:       "Dynamic scheme selection vs fixed schemes (latency, mixed workloads)",
		XLabel:      "workload#",
		YLabel:      "one-way latency (us)",
		SeriesOrder: []string{"Generic", "BC-SPUP", "RWG-UP", "Multi-W", "Auto"},
	}
	type wl struct {
		name  string
		dt    *datatype.Type
		count int
	}
	cases := []wl{
		{"tiny-blocks", VectorType(8), 1},     // 4 KB eager
		{"small-blocks", VectorType(64), 1},   // 32 KB, 256 B blocks
		{"mid-blocks", VectorType(512), 1},    // 256 KB, 2 KB blocks
		{"large-blocks", VectorType(2048), 1}, // 1 MB, 8 KB blocks
		{"contig", ContigType(512 << 10), 1},  // 512 KB contiguous
		{"struct", StructType(16384), 1},      // mixed block sizes
	}
	for i, c := range cases {
		point := map[string]float64{}
		for _, s := range []struct {
			name   string
			scheme core.Scheme
		}{
			{"Generic", core.SchemeGeneric},
			{"BC-SPUP", core.SchemeBCSPUP},
			{"RWG-UP", core.SchemeRWGUP},
			{"Multi-W", core.SchemeMultiW},
			{"Auto", core.SchemeAuto},
		} {
			cfg := worldConfig(2, s.scheme, expMem2, nil)
			point[s.name] = mustSim(PingPongLatency(cfg, c.dt, c.count, latWarmup, latIters))
		}
		r.Add(int64(i), point)
		r.Notes = append(r.Notes, fmt.Sprintf("workload %d = %s", i, c.name))
	}
	return r
}

// AblationSensitivity sweeps the copy-bandwidth/link-bandwidth ratio — the
// single parameter the paper's conclusions hinge on ("InfiniBand provides
// comparable bandwidth to system memory copy bandwidth") — and reports each
// scheme's large-message latency. The qualitative ordering (Generic worst,
// Multi-W best) must hold across the sweep; only the margins move.
func AblationSensitivity() *Result {
	r := &Result{
		Name:        "ablation-sensitivity",
		Title:       "Scheme latency vs copy bandwidth (1 MB vector, link fixed at 0.86 GB/s)",
		XLabel:      "copy MB/s",
		YLabel:      "one-way latency (us)",
		SeriesOrder: []string{"Generic", "BC-SPUP", "RWG-UP", "Multi-W"},
	}
	dt := VectorType(2048)
	for _, copyGBps := range []float64{0.4, 0.6, 0.86, 1.3, 2.0} {
		point := map[string]float64{}
		for _, s := range newSchemeSeries {
			if s.scheme == core.SchemePRRS {
				continue
			}
			cfg := worldConfig(2, s.scheme, expMem2, func(c *mpi.Config) {
				c.Model.CopyGBps = copyGBps
			})
			point[s.name] = mustSim(PingPongLatency(cfg, dt, 1, latWarmup, latIters))
		}
		r.Add(int64(copyGBps*1000), point)
	}
	r.Notes = append(r.Notes,
		"x-axis is the modeled pack/unpack bandwidth in MB/s (decimal)")
	return r
}

// AblationOneSided compares one-sided Put (this reproduction's RMA
// extension) against two-sided datatype sends: Put needs no rendezvous
// handshake because the origin holds both layouts, so it should undercut
// even Multi-W by roughly the handshake round trip.
func AblationOneSided() *Result {
	r := &Result{
		Name:        "ablation-onesided",
		Title:       "One-sided Put vs two-sided send (vector layouts both ends)",
		XLabel:      "columns",
		YLabel:      "one-way completion (us)",
		SeriesOrder: []string{"Send Generic", "Send Multi-W", "Put"},
	}
	for _, x := range []int{64, 256, 1024, 2048} {
		dt := VectorType(x)
		point := map[string]float64{}
		point["Send Generic"] = mustSim(PingPongLatency(
			worldConfig(2, core.SchemeGeneric, expMem2, nil), dt, 1, latWarmup, latIters))
		point["Send Multi-W"] = mustSim(PingPongLatency(
			worldConfig(2, core.SchemeMultiW, expMem2, nil), dt, 1, latWarmup, latIters))
		point["Put"] = mustSim(PutLatency(
			worldConfig(2, core.SchemeMultiW, expMem2, nil), dt, latWarmup, latIters))
		r.Add(int64(x), point)
	}
	return r
}

// AblationParIO compares the pack-based and RDMA-based noncontiguous I/O
// paths of the pario subsystem (the paper's closing application domain and
// its PVFS-over-InfiniBand companion work): a client writes and reads back
// vector-layout views of a server-hosted file.
func AblationParIO() *Result {
	r := &Result{
		Name:        "ablation-pario",
		Title:       "Noncontiguous file I/O: pack-based vs RDMA gather/scatter",
		XLabel:      "columns",
		YLabel:      "write+read time (us)",
		SeriesOrder: []string{"pack", "rdma"},
	}
	for _, x := range []int{64, 256, 1024, 2048} {
		dt := VectorType(x)
		point := map[string]float64{}
		for _, mode := range []pario.Mode{pario.ModePack, pario.ModeRDMA} {
			cfg := worldConfig(2, core.SchemeBCSPUP, expMem2, nil)
			point[mode.String()] = mustSim(ParIOTime(cfg, dt, mode, latWarmup, latIters))
		}
		r.Add(int64(x), point)
	}
	return r
}
