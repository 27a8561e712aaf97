// Command perfgate runs the pinned performance micro-suite
// (internal/perfgate) and either refreshes the committed baseline or checks
// the current build against it.
//
// Usage:
//
//	perfgate -update          # run suite, rewrite BENCH_perf.json
//	perfgate -check           # run suite, compare against BENCH_perf.json
//	perfgate -file path ...   # use a different baseline artifact
//
// -check exits nonzero on any fatal finding: a zero-alloc row that
// allocates, a cold-layout row over its max_allocs ceiling, a virtual-time
// latency regression, or a row missing from the current suite. Wall-clock
// drift and rows not yet in the baseline are printed as advisory notes.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/perfgate"
)

func main() {
	file := flag.String("file", perfgate.Artifact, "baseline artifact path")
	update := flag.Bool("update", false, "run the suite and rewrite the baseline")
	check := flag.Bool("check", false, "run the suite and compare against the baseline")
	flag.Parse()
	if *update == *check {
		fmt.Fprintln(os.Stderr, "perfgate: exactly one of -update or -check is required")
		os.Exit(2)
	}

	cur, err := perfgate.Suite()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate: suite failed:", err)
		os.Exit(1)
	}

	if *update {
		if err := cur.Save(*file); err != nil {
			fmt.Fprintln(os.Stderr, "perfgate:", err)
			os.Exit(1)
		}
		fmt.Printf("perfgate: wrote %d rows to %s\n", len(cur.Rows), *file)
		return
	}

	base, err := perfgate.Load(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate: loading baseline:", err)
		os.Exit(1)
	}
	problems := perfgate.Compare(base, cur)
	for _, p := range problems {
		fmt.Println(p)
	}
	if perfgate.Fatal(problems) {
		fmt.Fprintf(os.Stderr, "perfgate: FAIL against %s\n", *file)
		os.Exit(1)
	}
	fmt.Printf("perfgate: ok (%d rows against %s)\n", len(cur.Rows), *file)
}
