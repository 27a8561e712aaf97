package exper

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/simtime"
)

// The scale sweep makes world size a first-class axis: the paper's Alltoall
// experiment (Section 8.3) says derived-datatype schemes pay off inside
// collectives, and the MPICH2-over-InfiniBand design argument says per-peer
// state and matching must stay O(1)-per-peer or bookkeeping drowns the NIC.
// This sweep is the regression harness for both claims:
//
//   - "alltoall": a personalized exchange of 2 KB derived-type blocks, all
//     above the eager threshold, so every block routes through the rendezvous
//     scheme under test. Run per (ranks, scheme, layout) up to 256 ranks;
//     the winners table in BENCH_scale.json records which scheme wins each
//     (ranks, layout) cell.
//   - "halo": the examples/haloexchange 2-D ghost-cell exchange (vector
//     columns + contiguous rows) on square process grids up to 32 x 32 =
//     1024 ranks. Sparse traffic, huge world: this is the row that would
//     not finish if ConnectPeers, arena sizing, or credit budgets scaled
//     per-world instead of per-peer.
//   - "alltoall-eager": 1024 ranks x 512 B contiguous blocks — over a
//     million messages through one world. This row is the matching-stress
//     canary: with the old linear postedRecvs/unexpected scans it was
//     O(messages x peers) and effectively never finished; with the
//     per-(src, tag) index it completes in seconds of host time.
//
// Sim rows are bit-for-bit deterministic and guarded (`dtbench guard scale`);
// rt rows are wall-clock spot-checks (<= 64 ranks, per the real-time
// fabric's host-thread budget) and exempt from the guard.
const (
	scaleEagerThreshold = 1 << 10 // rendezvous blocks start at 1 KB
	scaleAlltoallCount  = 2       // counts per peer: 2 x 1 KB type = 2 KB blocks
	scaleHaloTile       = 256     // 2 KB halo edges: rendezvous
	scaleHaloSteps      = 2
	scaleEagerBlock     = 128 // int32s: 512 B blocks, below the threshold
)

// scaleRankAxis is the world sizes of the sweep's alltoall leg. The halo
// leg uses the square sizes {64, 256, 1024}; the eager leg runs at 1024.
var scaleRankAxis = []int{2, 16, 64, 256, 1024}

// scaleSchemes are the rendezvous schemes the sweep compares.
var scaleSchemes = []core.Scheme{core.SchemeGeneric, core.SchemeBCSPUP, core.SchemeMultiW}

// ScaleRow is one (backend, pattern, ranks, scheme, layout) measurement.
// Sim rows fill VirtualMS; rt rows fill WallMS.
type ScaleRow struct {
	Backend    string  `json:"backend"`
	Pattern    string  `json:"pattern"` // alltoall | halo | alltoall-eager
	Ranks      int     `json:"ranks"`
	Scheme     string  `json:"scheme"`
	Layout     string  `json:"layout"` // vector | contig | grid2d
	BlockBytes int64   `json:"block_bytes"`
	Msgs       int64   `json:"msgs"`       // eager + rendezvous sends, world total
	EagerMsgs  int64   `json:"eager_msgs"` // includes collective control traffic
	RndvMsgs   int64   `json:"rndv_msgs"`
	VirtualMS  float64 `json:"virtual_ms,omitempty"` // sim: modeled exchange time
	WallMS     float64 `json:"wall_ms,omitempty"`    // rt: host wall-clock
}

// ScaleWinner records which scheme had the lowest modeled time for one
// (ranks, layout) cell of the alltoall leg — the sweep's answer to "which
// scheme wins where", per the paper's Section 8.3 discussion.
type ScaleWinner struct {
	Ranks     int     `json:"ranks"`
	Layout    string  `json:"layout"`
	Scheme    string  `json:"scheme"`
	VirtualMS float64 `json:"virtual_ms"`
}

// scaleLayouts returns the sweep's block layouts: a strided vector and a
// contiguous control with the same 1 KB type size.
func scaleLayouts() []struct {
	name string
	dt   *datatype.Type
} {
	vec := datatype.Must(datatype.TypeVector(32, 8, 24, datatype.Int32))
	ctg := datatype.Must(datatype.TypeContiguous(256, datatype.Int32))
	return []struct {
		name string
		dt   *datatype.Type
	}{{"vector", vec}, {"contig", ctg}}
}

// scaleWorldConfig builds one sweep point's world from the rank-scaled
// budgets, with the eager threshold pinned so block routing is explicit.
func scaleWorldConfig(backend string, n int, scheme core.Scheme) mpi.Config {
	cfg := mpi.ScaledConfig(n)
	cfg.Backend = backend
	cfg.RTTimeout = 2 * time.Minute
	cfg.Core.Scheme = scheme
	cfg.Core.EagerThreshold = scaleEagerThreshold
	return cfg
}

// worldSends sums the protocol send counters over all endpoints.
func worldSends(w *mpi.World, n int) (eager, rndv int64) {
	for i := 0; i < n; i++ {
		c := w.Endpoint(i).Counters()
		eager += c.EagerSends
		rndv += c.RendezvousSends
	}
	return eager, rndv
}

// scaleRun builds one sweep point's world, runs body on every rank and fills
// in what the row measures: the window rank 0 saw between body's start and
// stop calls, and the world's send counters.
func scaleRun(row ScaleRow, scheme core.Scheme, body func(p *mpi.Proc, start, stop func()) error) (ScaleRow, error) {
	row.Scheme = scheme.String()
	w, err := mpi.NewWorld(scaleWorldConfig(row.Backend, row.Ranks, scheme))
	if err != nil {
		return row, err
	}
	var virtual simtime.Duration
	var wall time.Duration
	err = w.Run(func(p *mpi.Proc) error {
		var t0 simtime.Time
		var w0 time.Time
		return body(p, func() { t0, w0 = p.Now(), time.Now() }, func() {
			if p.Rank() == 0 {
				virtual, wall = p.Now().Sub(t0), time.Since(w0)
			}
		})
	})
	if err != nil {
		return row, fmt.Errorf("scale %s n=%d %s/%s on %s: %w", row.Pattern, row.Ranks, scheme, row.Layout, row.Backend, err)
	}
	row.EagerMsgs, row.RndvMsgs = worldSends(w, row.Ranks)
	row.Msgs = row.EagerMsgs + row.RndvMsgs
	if row.Backend == mpi.BackendSim {
		row.VirtualMS = float64(virtual) / 1e6
	} else {
		row.WallMS = ms(wall)
	}
	return row, nil
}

// scaleAlltoall times one personalized exchange of derived-type blocks.
func scaleAlltoall(backend string, n int, scheme core.Scheme, layout string, dt *datatype.Type) (ScaleRow, error) {
	row := ScaleRow{
		Backend:    backend,
		Pattern:    "alltoall",
		Ranks:      n,
		Layout:     layout,
		BlockBytes: dt.Size() * scaleAlltoallCount,
	}
	return scaleRun(row, scheme, func(p *mpi.Proc, start, stop func()) error {
		sbuf := allocFor(p, dt, n*scaleAlltoallCount)
		rbuf := allocFor(p, dt, n*scaleAlltoallCount)
		fillBuf(p, sbuf, dt, n*scaleAlltoallCount, byte(p.Rank()))
		if err := p.Barrier(); err != nil {
			return err
		}
		start()
		if err := p.Alltoall(sbuf, scaleAlltoallCount, dt, rbuf, scaleAlltoallCount, dt); err != nil {
			return err
		}
		if err := p.Barrier(); err != nil {
			return err
		}
		stop()
		return nil
	})
}

// scaleEagerAlltoall is the 1024-rank matching-stress row: a full exchange
// of sub-threshold contiguous blocks, over a million eager messages.
func scaleEagerAlltoall(backend string, n int) (ScaleRow, error) {
	dt := datatype.Must(datatype.TypeContiguous(scaleEagerBlock, datatype.Int32))
	row := ScaleRow{
		Backend:    backend,
		Pattern:    "alltoall-eager",
		Ranks:      n,
		Layout:     "contig",
		BlockBytes: dt.Size(),
	}
	return scaleRun(row, core.SchemeBCSPUP, func(p *mpi.Proc, start, stop func()) error {
		sbuf := allocFor(p, dt, n)
		rbuf := allocFor(p, dt, n)
		fillBuf(p, sbuf, dt, n, byte(p.Rank()))
		start()
		if err := p.Alltoall(sbuf, 1, dt, rbuf, 1, dt); err != nil {
			return err
		}
		stop()
		return nil
	})
}

// scaleHalo times the 2-D ghost-cell exchange from examples/haloexchange on
// a px x px process grid: float64 column halos as strided vectors, row halos
// contiguous, both above the eager threshold at the sweep's tile size.
func scaleHalo(backend string, px int, scheme core.Scheme) (ScaleRow, error) {
	n := px * px
	tile := scaleHaloTile
	w := tile + 2
	rowBytes := int64(w) * 8
	colType := datatype.Must(datatype.TypeVector(tile, 1, w, datatype.Float64))
	rowType := datatype.Must(datatype.TypeContiguous(tile, datatype.Float64))

	row := ScaleRow{
		Backend:    backend,
		Pattern:    "halo",
		Ranks:      n,
		Layout:     "grid2d",
		BlockBytes: int64(tile) * 8,
	}
	return scaleRun(row, scheme, func(p *mpi.Proc, start, stop func()) error {
		rank := p.Rank()
		gx, gy := rank%px, rank/px
		grid := p.Mem().MustAlloc(int64(w) * rowBytes)
		at := func(r, c int) mem.Addr { return grid + mem.Addr(int64(r)*rowBytes+int64(c)*8) }
		nbr := func(dx, dy int) int {
			nx, ny := gx+dx, gy+dy
			if nx < 0 || nx >= px || ny < 0 || ny >= px {
				return -1
			}
			return ny*px + nx
		}
		west, east := nbr(-1, 0), nbr(1, 0)
		north, south := nbr(0, -1), nbr(0, 1)
		if err := p.Barrier(); err != nil {
			return err
		}
		start()
		for step := 0; step < scaleHaloSteps; step++ {
			var reqs []*core.Request
			if west >= 0 {
				reqs = append(reqs, p.Irecv(at(1, 0), 1, colType, west, 0))
			}
			if east >= 0 {
				reqs = append(reqs, p.Irecv(at(1, tile+1), 1, colType, east, 0))
			}
			if north >= 0 {
				reqs = append(reqs, p.Irecv(at(0, 1), 1, rowType, north, 1))
			}
			if south >= 0 {
				reqs = append(reqs, p.Irecv(at(tile+1, 1), 1, rowType, south, 1))
			}
			if west >= 0 {
				reqs = append(reqs, p.Isend(at(1, 1), 1, colType, west, 0))
			}
			if east >= 0 {
				reqs = append(reqs, p.Isend(at(1, tile), 1, colType, east, 0))
			}
			if north >= 0 {
				reqs = append(reqs, p.Isend(at(1, 1), 1, rowType, north, 1))
			}
			if south >= 0 {
				reqs = append(reqs, p.Isend(at(tile, 1), 1, rowType, south, 1))
			}
			if err := p.Wait(reqs...); err != nil {
				return err
			}
		}
		if err := p.Barrier(); err != nil {
			return err
		}
		stop()
		return nil
	})
}

// ScaleDoc is the BENCH_scale.json document, the deterministic sim rows
// apart from the machine-dependent rt rows.
type ScaleDoc struct {
	Benchmark string        `json:"benchmark"`
	Workload  string        `json:"workload"`
	Note      string        `json:"note"`
	Winners   []ScaleWinner `json:"winners"`
	SimRows   []ScaleRow    `json:"sim_rows"`
	RTRows    []ScaleRow    `json:"rt_rows"`
}

// scaleSweep runs the scale sweep on the requested backends ("sim", "rt").
//
// The sim leg covers the full design: alltoall at {2, 16, 64} ranks over
// scheme x layout, alltoall at 256 ranks over schemes on the vector layout
// (the layout axis is settled by 64 ranks; the big world tracks the
// non-contiguous case), halo at {64, 256, 1024} ranks over schemes, and the
// 1024-rank eager matching-stress row. The rt leg spot-checks the real-time
// fabric at small worlds: alltoall at {2, 16} and halo at 64 ranks.
func scaleSweep(backends []string, _ Options) (Doc, error) {
	doc := &ScaleDoc{
		Benchmark: "scale-sweep",
		Workload: fmt.Sprintf("alltoall: %d x 1 KB derived-type blocks per peer; halo: %d^2-cell tiles, %d steps; eager: %d B blocks at 1024 ranks",
			scaleAlltoallCount, scaleHaloTile, scaleHaloSteps, scaleEagerBlock*4),
		Note:    "sim_rows are deterministic (guarded by `make scale-guard`); rt_rows are wall-clock and machine-dependent; winners summarize the alltoall leg",
		SimRows: []ScaleRow{},
		RTRows:  []ScaleRow{},
	}
	add := func(r ScaleRow, err error) error {
		if err != nil {
			return err
		}
		if r.Backend == mpi.BackendSim {
			doc.SimRows = append(doc.SimRows, r)
		} else {
			doc.RTRows = append(doc.RTRows, r)
		}
		// Big worlds hold their arenas through finalizers; run them now so
		// dead mappings unmap before the next world builds instead of
		// stacking tens of gigabytes of faulted pages across the sweep.
		runtime.GC()
		runtime.GC()
		return nil
	}
	for _, backend := range backends {
		if backend == mpi.BackendSim {
			for _, n := range scaleRankAxis {
				for _, scheme := range scaleSchemes {
					for _, lay := range scaleLayouts() {
						if n > 64 && (n > 256 || lay.name != "vector") {
							continue
						}
						// Multi-W posts one RDMA write per run: at 256 ranks
						// the vector leg is 4M descriptors for a row whose
						// outcome (Multi-W loses past small worlds) the 16-
						// and 64-rank cells already show. Cap it at 64.
						if n > 64 && scheme == core.SchemeMultiW {
							continue
						}
						if err := add(scaleAlltoall(backend, n, scheme, lay.name, lay.dt)); err != nil {
							return nil, err
						}
					}
				}
			}
			for _, px := range []int{8, 16, 32} {
				for _, scheme := range scaleSchemes {
					if err := add(scaleHalo(backend, px, scheme)); err != nil {
						return nil, err
					}
				}
			}
			if err := add(scaleEagerAlltoall(backend, 1024)); err != nil {
				return nil, err
			}
			continue
		}
		for _, n := range []int{2, 16} {
			lay := scaleLayouts()[0]
			if err := add(scaleAlltoall(backend, n, core.SchemeBCSPUP, lay.name, lay.dt)); err != nil {
				return nil, err
			}
		}
		if err := add(scaleHalo(backend, 8, core.SchemeBCSPUP)); err != nil {
			return nil, err
		}
	}
	doc.Winners = scaleWinners(doc.SimRows)
	return doc, nil
}

// scaleWinners reduces the sim alltoall rows to the lowest-time scheme per
// (ranks, layout) cell.
func scaleWinners(sim []ScaleRow) []ScaleWinner {
	type cell struct {
		ranks  int
		layout string
	}
	best := map[cell]ScaleRow{}
	for _, r := range sim {
		if r.Pattern != "alltoall" {
			continue
		}
		c := cell{r.Ranks, r.Layout}
		if b, ok := best[c]; !ok || r.VirtualMS < b.VirtualMS {
			best[c] = r
		}
	}
	winners := make([]ScaleWinner, 0, len(best))
	for c, r := range best {
		winners = append(winners, ScaleWinner{Ranks: c.ranks, Layout: c.layout, Scheme: r.Scheme, VirtualMS: r.VirtualMS})
	}
	sort.Slice(winners, func(i, j int) bool {
		if winners[i].Ranks != winners[j].Ranks {
			return winners[i].Ranks < winners[j].Ranks
		}
		return winners[i].Layout < winners[j].Layout
	})
	return winners
}

// Table renders the rows as an aligned text table.
func (d *ScaleDoc) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# scale sweep: %-8s %-15s %6s %-8s %-7s %10s %9s %9s %12s %10s\n",
		"backend", "pattern", "ranks", "scheme", "layout", "block B", "eager", "rndv", "virtual ms", "wall ms")
	for _, r := range concat(d.SimRows, d.RTRows) {
		fmt.Fprintf(&b, "%22s %-15s %6d %-8s %-7s %10d %9d %9d %12s %10s\n",
			r.Backend, r.Pattern, r.Ranks, r.Scheme, r.Layout, r.BlockBytes,
			r.EagerMsgs, r.RndvMsgs, cell(r.VirtualMS, "%.3f"), cell(r.WallMS, "%.3f"))
	}
	for _, w := range d.Winners {
		fmt.Fprintf(&b, "# winner %4d ranks / %-7s: %s (%.3f ms)\n", w.Ranks, w.Layout, w.Scheme, w.VirtualMS)
	}
	return b.String()
}
