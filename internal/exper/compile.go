package exper

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/pack"
	"repro/internal/simtime"
	"repro/internal/verbs"
)

// The compiler sweep gates the datatype compiler: for a set of layout shapes
// spanning every program kind it compares three pack paths —
//
//   - interpreted: the dataloop-walking datatype.Cursor, as the reference
//     packer (pack.NewPacker) drives it — the only interpreted pack there is,
//   - compiled: the datatype.Compile program replay, the production engine,
//   - copy: a raw contiguous copy() of the same bytes, the upper bound,
//
// on two axes. Sim rows price each path with the virtual cost model
// (CopyTime + per-run datatype-processing overhead; the compiled advance is
// charged compiledPerRun instead of TypeProcPerRun) — pure arithmetic,
// bit-for-bit deterministic, guarded. Host rows
// measure real wall-clock ns/op, MB/s and allocs/op of the actual engines
// on this machine and are exempt from the guard.
//
// Engine and reference must produce byte-identical staging output; the sweep
// verifies that on every shape before timing anything.
const (
	// compiledPerRun is the modeled per-run datatype-processing cost of the
	// compiled replay: the O(1) cursor advance (a counter increment and an
	// add, or a table lookup) versus the interpreted cursor's stack walk
	// priced at core.TypeProcPerRun (25 ns). Generic programs replay the
	// interpreted cursor and are priced at the interpreted rate.
	compiledPerRun = 2 * simtime.Nanosecond

	compileWarmup = 4
	compileRounds = 8  // interleaved timing rounds per path
	compileIters  = 16 // pack operations per round
)

// CompileRow is one (shape, path) measurement. Sim rows fill the virtual
// fields; host rows the wall-clock fields.
type CompileRow struct {
	Shape string `json:"shape"`
	Path  string `json:"path"`           // interpreted | compiled | copy
	Kind  string `json:"kind,omitempty"` // compiled rows: the program kind
	Bytes int64  `json:"bytes"`
	Runs  int64  `json:"runs"`

	VirtualUS   float64 `json:"virtual_us,omitempty"`
	VirtualMBps float64 `json:"virtual_mbps,omitempty"`

	HostNsOp float64 `json:"host_ns_op,omitempty"`
	HostMBps float64 `json:"host_mbps,omitempty"`
	AllocsOp float64 `json:"allocs_op"`
}

// compileShape is one layout in the sweep.
type compileShape struct {
	name  string
	dt    *datatype.Type
	count int
}

// compileShapes spans every program kind: contig memcpy, 1D vector, 2D
// nested vector, fixed-block indexed, the Figure 10 varied-block struct, an
// irregular indexed unit sent 200 times (its copies' seams merge), and the
// same 200 instances as one type, a unit past the materialization cap
// (generic fallback).
func compileShapes() []compileShape {
	v1 := datatype.Must(datatype.TypeVector(32, 512, 1024, datatype.Int32))
	idx := datatype.Must(datatype.TypeIndexed([]int{1, 1, 1}, []int{0, 3, 7}, datatype.Int32))
	displs := make([]int, 64)
	for i := range displs {
		displs[i] = i * 64
	}
	return []compileShape{
		{"contig-256k", datatype.Must(datatype.TypeContiguous(65536, datatype.Int32)), 1},
		{"vector-1d", VectorType(512), 1},
		{"vector-2d", datatype.Must(datatype.TypeHvector(16, 1, 256<<10, v1)), 1},
		{"indexed-block", datatype.Must(datatype.TypeIndexedBlock(32, displs, datatype.Int32)), 8},
		{"struct-fig10", StructType(256), 16},
		{"irregular-big", datatype.Must(datatype.TypeVector(128, 1, 2, idx)), 200},
		{"past-cap-unit", datatype.Must(datatype.TypeContiguous(200, datatype.Must(datatype.TypeVector(128, 1, 2, idx)))), 1},
	}
}

// CompileDoc is the BENCH_compile.json document, the deterministic sim rows
// apart from the machine-dependent host rows.
type CompileDoc struct {
	Benchmark string       `json:"benchmark"`
	Workload  string       `json:"workload"`
	Note      string       `json:"note"`
	SimRows   []CompileRow `json:"sim_rows"`
	HostRows  []CompileRow `json:"host_rows"`
}

// compilerSweep runs the sweep's requested families: "sim" (modeled rows)
// and "host" (wall-clock rows, which cost real time and are
// machine-dependent).
func compilerSweep(families []string, _ Options) (Doc, error) {
	model := verbs.DefaultModel()
	doc := &CompileDoc{
		Benchmark: "datatype-compiler",
		Workload:  "pack throughput, compiled program replay vs interpreted cursor walk vs raw copy() upper bound, one shape per program kind",
		Note:      "sim_rows are deterministic modeled costs (guarded by `make compile-guard`); host_rows are wall-clock and machine-dependent",
		SimRows:   []CompileRow{},
		HostRows:  []CompileRow{},
	}
	for _, family := range families {
		for _, sh := range compileShapes() {
			prog := datatype.Compile(sh.dt, sh.count)
			stats := datatype.LayoutStats(sh.dt, sh.count, 0)
			bytes, runs := stats.Bytes, stats.Runs
			if family == "host" {
				rows, err := compileHostRows(sh, prog, bytes, runs)
				if err != nil {
					return nil, err
				}
				doc.HostRows = append(doc.HostRows, rows...)
				continue
			}

			// Per-run processing charge for the compiled path: canonical
			// programs advance in O(1) and know their run count exactly; a
			// generic program replays the cursor and estimates it. (The one
			// kind test outside internal/datatype: without the generic rate the
			// past-cap-unit sim row would price a walk as a replay.)
			perRunCompiled := compiledPerRun
			if prog.Kind() == datatype.ProgGeneric {
				perRunCompiled = core.TypeProcPerRun
			} else if prog.Runs() != runs {
				return nil, fmt.Errorf("compile sweep %s: program claims %d runs, cursor walked %d",
					sh.name, prog.Runs(), runs)
			}
			price := func(perRun simtime.Duration, priceRuns int64) float64 {
				return (model.CopyTime(bytes, int(priceRuns)) + core.TypeProcBase +
					simtime.Duration(priceRuns)*perRun).Micros()
			}
			sim := func(path string, us float64, kind string) CompileRow {
				return CompileRow{
					Shape: sh.name, Path: path, Kind: kind,
					Bytes: bytes, Runs: runs,
					VirtualUS:   us,
					VirtualMBps: float64(bytes) / us,
				}
			}
			doc.SimRows = append(doc.SimRows,
				sim("interpreted", price(core.TypeProcPerRun, runs), ""),
				sim("compiled", price(perRunCompiled, runs), prog.Kind().String()),
				sim("copy", price(0, 1), ""),
			)
		}
	}
	return doc, nil
}

// compileHostRows measures the engine, the reference packer and copy() on the
// host for one shape.
func compileHostRows(sh compileShape, prog *datatype.Program, size, runs int64) ([]CompileRow, error) {
	span := sh.dt.TrueExtent() + int64(sh.count-1)*sh.dt.Extent()
	m := mem.NewMemory("compile-sweep", span+4096+size)
	raw := m.MustAlloc(span)
	base := mem.Addr(int64(raw) - sh.dt.TrueLB())
	buf := m.Bytes(raw, span)
	for i := range buf {
		buf[i] = byte(i*131 + 17)
	}
	contig := m.MustAlloc(size)

	dst := make([]byte, size)
	want := make([]byte, size)

	// Correctness first: engine and reference must produce identical staging
	// bytes.
	ip := pack.NewPacker(m, base, sh.dt, sh.count)
	if n, _ := ip.PackTo(want); n != size {
		return nil, fmt.Errorf("compile sweep %s: interpreted pack short: %d of %d", sh.name, n, size)
	}
	cp := pack.NewProgramPacker(m, base, prog)
	if n, _ := cp.PackTo(dst); n != size {
		return nil, fmt.Errorf("compile sweep %s: compiled pack short: %d of %d", sh.name, n, size)
	}
	if !bytes.Equal(dst, want) {
		return nil, fmt.Errorf("compile sweep %s: compiled pack bytes differ from interpreted", sh.name)
	}

	paths := []struct {
		name string
		kind string
		op   func()
	}{
		{"interpreted", "", func() {
			p := pack.NewPacker(m, base, sh.dt, sh.count)
			p.PackTo(dst)
		}},
		{"compiled", prog.Kind().String(), func() {
			cp.Reset()
			cp.PackTo(dst)
		}},
		{"copy", "", func() {
			copy(dst, m.Bytes(contig, size))
		}},
	}
	// Interleave the paths across rounds and keep each path's best round:
	// min-of-k is robust against scheduler noise and cache-warming order
	// effects, which on a shared host otherwise dwarf the per-run deltas
	// this sweep exists to show.
	best := make([]float64, len(paths))
	for _, p := range paths {
		for i := 0; i < compileWarmup; i++ {
			p.op()
		}
	}
	for round := 0; round < compileRounds; round++ {
		for pi, p := range paths {
			start := time.Now()
			for i := 0; i < compileIters; i++ {
				p.op()
			}
			nsOp := float64(time.Since(start).Nanoseconds()) / compileIters
			if best[pi] == 0 || nsOp < best[pi] {
				best[pi] = nsOp
			}
		}
	}
	var rows []CompileRow
	for pi, path := range paths {
		rows = append(rows, CompileRow{
			Shape: sh.name, Path: path.name, Kind: path.kind,
			Bytes: size, Runs: runs,
			HostNsOp: best[pi],
			HostMBps: float64(size) / best[pi] * 1e3, // bytes/ns = GB/s; *1e3 = MB/s
			AllocsOp: allocsPerRun(8, path.op),
		})
	}
	return rows, nil
}

// allocsPerRun measures average heap allocations per call of f (the
// testing.AllocsPerRun technique, reimplemented so non-test code does not
// import package testing).
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up so one-time lazy setup is not attributed to the steady state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// Table renders the rows as an aligned text table.
func (d *CompileDoc) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# datatype compiler: %-14s %-12s %-10s %10s %8s %12s %12s %10s %9s\n",
		"shape", "path", "kind", "bytes", "runs", "virtual us", "host ns/op", "MB/s", "allocs")
	for _, r := range concat(d.SimRows, d.HostRows) {
		// A row fills one family's fields, so the MB/s column is their sum.
		fmt.Fprintf(&b, "%21s %-12s %-10s %10d %8d %12s %12s %10s %9.1f\n",
			r.Shape, r.Path, r.Kind, r.Bytes, r.Runs,
			cell(r.VirtualUS, "%.2f"), cell(r.HostNsOp, "%.0f"), cell(r.VirtualMBps+r.HostMBps, "%.1f"), r.AllocsOp)
	}
	return b.String()
}
