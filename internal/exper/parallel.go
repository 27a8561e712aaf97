package exper

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
)

// The parallelism sweep measures the parallel segment engine (the paper's
// pipelining argument of Figures 7-9, extended to a worker axis): one
// large-vector BC-SPUP message is ping-ponged at worker counts 1, 2, 4, 8.
//
// Sim rows carry virtual time only: they are bit-for-bit deterministic (the
// sim executor runs shards sequentially while the cost model prices the
// fan-out), so the guard can demand a byte-identical regeneration. RT rows
// carry wall time: they measure the real concurrent implementation on the
// host and are machine-dependent, so the guard ignores them.
const (
	parCols     = 2048     // 128 x 2048 int32 vector: 1 MB payload, 8 KB runs
	parIters    = 30       // timed ping-pong round trips
	parWarmup   = 2        // untimed round trips before the clock starts
	parSegSize  = 32 << 10 // small segments: a 32-step pipeline
	parShardMin = 8 << 10  // one shard per 8 KB run, so a segment splits 4 ways
)

// parWorkerAxis is the sweep's worker counts.
var parWorkerAxis = []int{1, 2, 4, 8}

// ParallelRow is one (backend, workers) measurement. Sim rows fill only the
// virtual fields; rt rows only the wall fields.
type ParallelRow struct {
	Backend     string  `json:"backend"`
	Workers     int     `json:"workers"`
	Bytes       int64   `json:"bytes"`
	Iters       int     `json:"iters"`
	WallMS      float64 `json:"wall_ms,omitempty"`      // rt: timed-loop wall time
	MBps        float64 `json:"mbps,omitempty"`         // rt: wall payload bandwidth
	VirtualUS   float64 `json:"virtual_us,omitempty"`   // sim: one-way latency
	VirtualMBps float64 `json:"virtual_mbps,omitempty"` // sim: modeled bandwidth
}

// parallelConfig builds the sweep's world configuration for one point.
func parallelConfig(backend string, workers int) mpi.Config {
	return worldConfig(2, core.SchemeBCSPUP, 256<<20, func(c *mpi.Config) {
		c.Backend = backend
		c.RTTimeout = 2 * time.Minute
		c.Core.SegmentSize = parSegSize
		c.Core.PackWorkers = workers
		c.Core.ParShardBytes = parShardMin
	})
}

// ParallelDoc is the BENCH_parallel.json document, the deterministic sim
// rows apart from the machine-dependent rt rows.
type ParallelDoc struct {
	Benchmark string        `json:"benchmark"`
	Workload  string        `json:"workload"`
	Note      string        `json:"note"`
	SimRows   []ParallelRow `json:"sim_rows"`
	RTRows    []ParallelRow `json:"rt_rows"`
}

// parallelSweep runs the worker sweep on the requested backends ("sim",
// "rt"): one row per (backend, workers) point.
func parallelSweep(backends []string, _ Options) (Doc, error) {
	dt := VectorType(parCols)
	payload := VectorBytes(parCols)
	doc := &ParallelDoc{
		Benchmark: "parallel-segment-engine",
		Workload: fmt.Sprintf("BC-SPUP vector(128 x %d of 4096, MPI_INT), %d KB payload, %d KB segments",
			parCols, payload>>10, parSegSize>>10),
		Note:    "sim_rows are deterministic (guarded by `make guard`); rt_rows are wall-clock and machine-dependent",
		SimRows: []ParallelRow{},
		RTRows:  []ParallelRow{},
	}
	for _, backend := range backends {
		for _, workers := range parWorkerAxis {
			res, err := pingPong(parallelConfig(backend, workers), parWarmup, parIters, echo(dt, 1))
			if err != nil {
				return nil, fmt.Errorf("parallel sweep: %d workers on %s: %w", workers, backend, err)
			}
			row := ParallelRow{
				Backend: backend,
				Workers: workers,
				Bytes:   payload,
				Iters:   parIters,
			}
			if backend == mpi.BackendSim {
				row.VirtualUS = oneWayUS(res.virtual, parIters)
				// 1 byte/us = 1 MB/s with the decimal MB the wall rows use.
				row.VirtualMBps = float64(payload) / row.VirtualUS
				doc.SimRows = append(doc.SimRows, row)
			} else {
				row.WallMS = ms(res.wall)
				row.MBps = float64(payload*2*int64(parIters)) / res.wall.Seconds() / 1e6
				doc.RTRows = append(doc.RTRows, row)
			}
		}
	}
	return doc, nil
}

// Table renders the rows as an aligned text table.
func (d *ParallelDoc) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# parallel segment engine: %-8s %8s %12s %10s %12s %14s\n",
		"backend", "workers", "wall ms", "MB/s", "virtual us", "virtual MB/s")
	for _, r := range concat(d.SimRows, d.RTRows) {
		fmt.Fprintf(&b, "%26s %8d %12s %10s %12s %14s\n",
			r.Backend, r.Workers,
			cell(r.WallMS, "%.2f"), cell(r.MBps, "%.1f"),
			cell(r.VirtualUS, "%.2f"), cell(r.VirtualMBps, "%.1f"))
	}
	return b.String()
}
