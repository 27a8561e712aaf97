package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"repro/internal/mpi"
)

// outDir is where runs leave their files unless told otherwise.
const outDir = ".bench_out"

// scaled turns an op count sized for refSeconds into the count for this run:
// fixed for a given -seconds, and never fewer than one op per segment.
func scaled(ops int, seconds float64) int {
	return max(int(math.Round(float64(ops)*seconds/refSeconds)), segments)
}

// measure is the end-to-end run of one workload: tracing off, the three
// backends in turn.
func measure(wl *workload, o *options) *report {
	rep := newReport(wl, o)
	var setup float64
	q := &quiet{}
	for bi, b := range backends {
		spec := legSpec{wl: wl, backend: b, seed: o.seed, quiet: q,
			ops: scaled(wl.ops[bi], o.seconds), warm: wl.warm, reps: setupReps, adaptive: true}
		if o.quick {
			spec.quick, spec.warm, spec.reps, spec.adaptive = true, 2, 1, false
		}
		res := runLeg(spec)
		rep.absorb(&res)
		setup += res.setupS
		// rt's wall clock is reported only: on two vCPUs shared with a noisy
		// neighbour it did not repeat within any bound worth having.
		wall := rep.gate
		if b == mpi.BackendRT {
			wall = rep.add
		}
		wall("wall_us_mean."+b, res.mean.med, "us")
		rep.add("wall_us_mean."+b+".iqr", res.mean.iqr, "us")
		// The percentiles are reported only, on every backend: where the
		// collector runs during about half the ops (struct_alltoall) or a
		// tenth of them (cold_layouts) the percentile sits between two modes.
		rep.add("wall_us_p50."+b, res.p50.med, "us")
		rep.add("wall_us_p50."+b+".iqr", res.p50.iqr, "us")
		rep.add("wall_us_p90."+b, res.p90.med, "us")
		rep.add("wall_us_p90."+b+".iqr", res.p90.iqr, "us")
		rep.add("wall_us_p99."+b, res.p99.med, "us")
		rep.add("wall_us_p99."+b+".iqr", res.p99.iqr, "us")
		rep.gate("allocs_per_op."+b, res.allocs, "count")
		if b != mpi.BackendRT {
			rep.add("model_us."+b, res.modelUS, "virtual_us")
		}
		rep.add("samples."+b, float64(res.ops), "count")
		rep.add("quiet_frac."+b, res.quietFrac, "1")
		rep.add("leg_s."+b, res.legS, "s")
	}
	rep.gate("setup_s", setup, "s")
	// Reported only: on the four small workloads it is 10–20 MB, of which
	// the collector's overshoot is ±2 MB from run to run.
	rep.add("peak_rss_mb", peakRSSMB(), "MB")
	rep.finish()
	return rep
}

func newReport(wl *workload, o *options) *report {
	return &report{Workload: wl.name, Why: wl.why, Seed: o.seed, Seconds: o.seconds,
		Trace: o.trace, Machine: machineInfo()}
}

// absorb folds a leg's correctness tally into the report.
func (r *report) absorb(res *legResult) {
	r.Attempted += res.attempted
	r.Failed += res.failed
	if res.err != nil {
		r.Errors = append(r.Errors, res.backend+": "+res.err.Error())
	}
	r.Legs = append(r.Legs, legOut{Backend: res.backend, Ranks: res.ranks, Ops: res.ops,
		QuietOps: int(res.quietFrac * float64(res.ops)), Segments: segments, GCs: res.gcs})
}

func (r *report) finish() {
	frac := 1.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	r.add("failed_frac", frac, "1")
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// runOne runs one workload in this process.
func runOne(o *options) int {
	wl := workloadByName(o.workload)
	if wl == nil {
		fatalf("unknown workload %q", o.workload)
	}
	var rep *report
	if o.trace != 0 {
		rep = traced(wl, o)
	} else {
		rep = measure(wl, o)
	}
	rep.print(os.Stdout)
	if o.out != "" {
		if err := rep.write(o.out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// suite runs every workload in a fresh process each (so peak RSS and heap
// state are the workload's own) and returns their reports.
func suite(o *options, tag string) ([]*report, int) {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	var reps []*report
	code := 0
	for _, wl := range workloads {
		out := filepath.Join(outDir, fmt.Sprintf("%s%s.json", wl.name, tag))
		args := []string{"-workload", wl.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(o.trace), "-out", out}
		if o.traceOut != "" {
			args = append(args, "-trace-out", o.traceOut+"."+wl.name)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			code = 1
		}
		rep, err := readReport(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			code = 1
			continue
		}
		reps = append(reps, rep)
	}
	return reps, code
}

func runSuite(o *options) int {
	reps, code := suite(o, "")
	if o.out != "" {
		if err := writeJSON(o.out, reps); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}
	return code
}
