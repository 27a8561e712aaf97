// Command bench is the repository's one repeatable benchmark: five
// closed-loop workloads, each run on the three verbs backends in turn, with
// every delivered byte checked against an independent oracle.
//
//	go run -C bench repro/bench                       # every workload, end-to-end metrics
//	go run -C bench repro/bench -workload tinyrun_pack
//	go run -C bench repro/bench -trace 1              # per-layer metrics + span file
//	go run -C bench repro/bench -repeat 2             # two fresh-process suites, compared
//
// See README.md beside this file for the workloads, the metrics and their
// bounds, and how the layer metrics are expected to move the end-to-end ones.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

// refSeconds is the run length the per-workload op counts are sized for:
// three legs of about refSeconds/3 each. -seconds scales the counts.
const refSeconds = 15

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	traceOut string
	out      string
	repeat   int
	// quick is set by the tests only: one set-up per leg, two warm-up ops,
	// single probe batches and a small cold_layouts slab.
	quick bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: each workload in a fresh process)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", refSeconds, "measured seconds per workload the fixed op counts are scaled to")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run — per-layer metrics and the span file instead of end-to-end metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_out/<workload>.spans.json)")
	flag.StringVar(&o.out, "out", "", "also write the results as JSON to this file")
	flag.IntVar(&o.repeat, "repeat", 0, "run the whole suite N times in fresh processes and compare the runs")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if o.seconds <= 0 || o.seconds > 600 {
		fatalf("-seconds %v out of range", o.seconds)
	}
	checkMachine()

	var code int
	switch {
	case o.repeat > 0:
		code = runRepeat(&o)
	case o.workload == "":
		code = runSuite(&o)
	default:
		code = runOne(&o)
	}
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// checkMachine refuses a configuration whose timings cannot mean anything
// (more Ps than CPUs) and warns about one that is merely noisy.
func checkMachine() {
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		fatalf("GOMAXPROCS %d exceeds the %d CPUs available", p, n)
	}
	if load, ok := loadAvg1(); ok && load > 0.5*float64(runtime.NumCPU()) {
		fmt.Fprintf(os.Stderr, "bench: warning: 1-minute load average %.2f on %d CPUs; timings will be noisy\n",
			load, runtime.NumCPU())
	}
}
