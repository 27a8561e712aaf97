package exper

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/mpi"
)

// BackendRow is one (scheme, backend) measurement of the wall-clock
// benchmark: a noncontiguous vector ping-pong timed with the real clock.
// On the simulator the wall numbers measure simulation speed; on the
// real-time fabric they measure the concurrent implementation itself —
// the repository's first real-performance trajectory (BENCH_backends.json).
type BackendRow struct {
	Scheme    string  `json:"scheme"`
	Backend   string  `json:"backend"`
	Bytes     int64   `json:"bytes"`      // payload bytes per message
	Iters     int     `json:"iters"`      // ping-pong round trips
	WallMS    float64 `json:"wall_ms"`    // timed-loop wall time
	LatencyUS float64 `json:"latency_us"` // wall one-way latency per message
	MBps      float64 `json:"mbps"`       // wall payload bandwidth
	VirtualUS float64 `json:"virtual_us"` // virtual one-way latency (sim/shm, 0 on rt)
}

// BackendsDoc is the BENCH_backends.json document.
type BackendsDoc struct {
	Benchmark string       `json:"benchmark"`
	Workload  string       `json:"workload"`
	Rows      []BackendRow `json:"rows"`
}

// backendsSweep runs the wall-clock ping-pong for every transfer scheme on
// each requested backend ("sim", "rt", "shm"). The workload is the paper's
// 64-column vector (32 KB payload, above the eager threshold, so the full
// rendezvous machinery runs). o threads dtbench's -bench-iters, -workers,
// -batch and -trace through it.
func backendsSweep(backends []string, o Options) (Doc, error) {
	iters := o.BenchIters
	if iters <= 0 {
		iters = 50
	}
	const cols = 64
	dt := VectorType(cols)
	bytes := VectorBytes(cols)
	doc := &BackendsDoc{
		Benchmark: "backend-pingpong",
		Workload:  "vector(128 x 64 of 4096, MPI_INT), 32 KB payload",
	}
	for _, backend := range backends {
		for _, scheme := range allSchemes {
			o.Trace.SetPrefix(backend + "/" + scheme.String() + "/")
			cfg := worldConfig(2, scheme, 256<<20, func(c *mpi.Config) {
				c.Backend = backend
				c.RTTimeout = 2 * time.Minute
				c.Trace = o.Trace
				c.Metrics = o.Metrics
				if o.Mut != nil {
					o.Mut(c)
				}
			})
			res, err := pingPong(cfg, 0, iters, echo(dt, 1))
			if err != nil {
				return nil, fmt.Errorf("bench %s on %s: %w", scheme, backend, err)
			}
			row := BackendRow{
				Scheme:    scheme.String(),
				Backend:   backend,
				Bytes:     bytes,
				Iters:     iters,
				WallMS:    ms(res.wall),
				LatencyUS: float64(res.wall.Microseconds()) / float64(2*iters),
				MBps:      float64(bytes*2*int64(iters)) / res.wall.Seconds() / 1e6,
			}
			if backend != mpi.BackendRT {
				// sim and shm both run on virtual time; only the real-time
				// fabric has no modeled clock to report.
				row.VirtualUS = oneWayUS(res.virtual, iters)
			}
			doc.Rows = append(doc.Rows, row)
		}
	}
	return doc, nil
}

// Table renders the rows as an aligned text table.
func (d *BackendsDoc) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# backend ping-pong: %-8s %-8s %10s %12s %10s %12s\n",
		"scheme", "backend", "wall ms", "latency us", "MB/s", "virtual us")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "%25s %-8s %10.2f %12.2f %10.1f %12s\n",
			r.Scheme, r.Backend, r.WallMS, r.LatencyUS, r.MBps, cell(r.VirtualUS, "%.1f"))
	}
	return b.String()
}
