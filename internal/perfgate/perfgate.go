// Package perfgate is the repository's performance floor: a pinned
// micro-suite over the warm communication hot path (descriptor building,
// pack/unpack, scheme round-trips, tuner decisions) whose results are
// committed as BENCH_perf.json and compared on every `make check`.
//
// The comparison is benchstat-flavored but deliberately asymmetric in what
// it treats as signal:
//
//   - allocs/op on a zero-alloc row must be exactly zero. These rows pin
//     the invariant one layer at a time — the warm pack, descriptor, fabric
//     and tuner paths do not allocate — and, on the whole-world rows, for
//     the message path end to end: both ranks, the fabric, matching and
//     the request handles, which every wait hands back. Any nonzero value
//     is a regression regardless of magnitude.
//   - allocs/op on a row with a max_allocs ceiling must not exceed it. The
//     cold-layout rows (constructor, compile, decode of a 4 096-block
//     indexed type) carry one: their object counts are constants whatever
//     the block count. The ceiling is exact, not a tolerance around the last
//     reading: headroom wide enough to absorb a map rehash would also hide a
//     step that went from one object per layout to one per block.
//   - ns/op on a virtual-time row (sim/shm backends) fails past NsSlack:
//     virtual clocks are deterministic, so drift there is a real cost-model
//     or scheduling change.
//   - ns/op on a wall-clock row never fails the gate — it is recorded and
//     reported for humans, because CI machines are not comparable.
//   - a ratio row (pack time over raw copy() time, same process) fails past
//     its pinned ceiling: machine speed cancels out of the quotient, so the
//     pack-vs-copy expectation is enforceable where a bare wall time is not.
//
// EXPERIMENTS.md §perf maps the suite's rows onto the paper's Figures 7–9.
package perfgate

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Artifact is the committed baseline in the repository root.
const Artifact = "BENCH_perf.json"

// Row kinds: how the ns/op column was measured, which decides whether it
// can fail the gate.
const (
	// KindVirtual marks deterministic virtual-time measurements (sim and
	// shm backends); ns/op regressions are enforced.
	KindVirtual = "virtual"
	// KindWall marks wall-clock measurements; ns/op is advisory only.
	KindWall = "wall"
	// KindRatio marks a quotient of two wall-clock measurements taken in
	// the same process (pack time over raw copy() time). Machine speed
	// cancels, so the row carries a pinned ceiling and that is enforced.
	KindRatio = "ratio"
)

// NsSlack is the fractional ns/op headroom on virtual rows. Exported so the
// gate's policy is inspectable and testable rather than buried in the
// comparator.
const NsSlack = 0.10

// Row is one pinned measurement of the micro-suite.
type Row struct {
	// Name identifies the measurement ("chunkwrs/vector-4x1024", ...).
	// Comparison matches rows by name.
	Name string `json:"name"`
	// Kind is KindVirtual or KindWall.
	Kind string `json:"kind"`
	// Backend is the mpi backend the row ran on ("sim", "shm"), empty for
	// rows that run below the fabric.
	Backend string `json:"backend,omitempty"`
	// NsPerOp is the per-operation latency in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is the average heap allocations per operation.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// ZeroAlloc pins AllocsPerOp to exactly zero.
	ZeroAlloc bool `json:"zero_alloc,omitempty"`
	// MaxAllocs, when set, is the ceiling AllocsPerOp must not exceed; the
	// ceiling enforced is the committed baseline's.
	MaxAllocs float64 `json:"max_allocs,omitempty"`
	// Ratio is a KindRatio row's measurement and Ceiling the value it must
	// not exceed; the ceiling enforced is the committed baseline's.
	Ratio   float64 `json:"ratio,omitempty"`
	Ceiling float64 `json:"ceiling,omitempty"`
}

// Report is the committed artifact: the full suite, sorted by row name.
type Report struct {
	Rows []Row `json:"rows"`
}

// sortRows orders the report deterministically for a stable on-disk diff.
func (r *Report) sortRows() {
	sort.Slice(r.Rows, func(i, j int) bool { return r.Rows[i].Name < r.Rows[j].Name })
}

// Load reads a report from path.
func Load(path string) (Report, error) {
	var r Report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("perfgate: parsing %s: %w", path, err)
	}
	return r, nil
}

// Save writes the report to path, sorted, with a trailing newline.
func (r Report) Save(path string) error {
	r.sortRows()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Problem is one comparison finding. Fatal problems fail the gate;
// non-fatal ones are advisory (wall-clock drift, new rows).
type Problem struct {
	Row   string
	Fatal bool
	Msg   string
}

// String renders the problem as one gate-output line.
func (p Problem) String() string {
	tag := "note"
	if p.Fatal {
		tag = "FAIL"
	}
	return fmt.Sprintf("%s %s: %s", tag, p.Row, p.Msg)
}

// Compare checks cur against the committed baseline and returns every
// finding, fatal first within the row order. An empty result is a clean
// pass.
func Compare(base, cur Report) []Problem {
	var out []Problem
	baseBy := make(map[string]Row, len(base.Rows))
	for _, r := range base.Rows {
		baseBy[r.Name] = r
	}
	curBy := make(map[string]Row, len(cur.Rows))
	for _, r := range cur.Rows {
		curBy[r.Name] = r
	}
	for _, b := range base.Rows {
		c, ok := curBy[b.Name]
		if !ok {
			out = append(out, Problem{Row: b.Name, Fatal: true,
				Msg: "row missing from current run (suite shrank; run perfgate -update deliberately)"})
			continue
		}
		if b.ZeroAlloc {
			if c.AllocsPerOp != 0 {
				out = append(out, Problem{Row: b.Name, Fatal: true,
					Msg: fmt.Sprintf("zero-alloc row allocates: %.2f allocs/op", c.AllocsPerOp)})
			}
		} else if b.MaxAllocs > 0 && c.AllocsPerOp > b.MaxAllocs {
			out = append(out, Problem{Row: b.Name, Fatal: true,
				Msg: fmt.Sprintf("allocs/op %.2f exceeds the pinned ceiling %.0f (baseline read %.2f)",
					c.AllocsPerOp, b.MaxAllocs, b.AllocsPerOp)})
		}
		switch b.Kind {
		case KindVirtual:
			if limit := b.NsPerOp * (1 + NsSlack); b.NsPerOp > 0 && c.NsPerOp > limit {
				out = append(out, Problem{Row: b.Name, Fatal: true,
					Msg: fmt.Sprintf("virtual ns/op %.0f exceeds baseline %.0f (+%d%%)",
						c.NsPerOp, b.NsPerOp, int(NsSlack*100))})
			}
		case KindRatio:
			if c.Ratio > b.Ceiling {
				out = append(out, Problem{Row: b.Name, Fatal: true,
					Msg: fmt.Sprintf("ratio %.1f exceeds pinned ceiling %.0f", c.Ratio, b.Ceiling)})
			}
		case KindWall:
			if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*2 {
				out = append(out, Problem{Row: b.Name, Fatal: false,
					Msg: fmt.Sprintf("wall ns/op %.0f vs baseline %.0f (advisory; wall clocks are machine-dependent)",
						c.NsPerOp, b.NsPerOp)})
			}
		}
	}
	for _, c := range cur.Rows {
		if _, ok := baseBy[c.Name]; !ok {
			out = append(out, Problem{Row: c.Name, Fatal: false,
				Msg: "new row not in baseline; run perfgate -update to pin it"})
		}
	}
	return out
}

// Fatal reports whether any problem in ps fails the gate.
func Fatal(ps []Problem) bool {
	for _, p := range ps {
		if p.Fatal {
			return true
		}
	}
	return false
}
