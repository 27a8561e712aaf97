// dtbench regenerates the paper's evaluation tables and figures on the
// simulated InfiniBand fabric, and runs and guards the repository's sweeps
// (the table exper.Sweeps, one BENCH_*.json / SOAK_*.json each).
//
// Usage:
//
//	dtbench                      # every figure + the headline factors
//	dtbench fig 8                # one figure (2, 8, 9, 11, 12, 13, 14)
//	dtbench headline             # abstract's improvement factors (Figs. 8, 9, 11)
//	dtbench ablations            # this reproduction's extra ablation studies
//	dtbench counters             # per-scheme operation counters for one transfer
//	dtbench run zoo              # one sweep on all its backends -> BENCH_zoo.json
//	dtbench run backends -backends rt -workers 4 -out /tmp/b.json
//	dtbench guard                # regenerate and compare every deterministic part
//	dtbench guard parallel       # ... or one
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/exper"
	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/trace"
)

var figs = []struct {
	n   int
	run func() *exper.Result
}{
	{2, exper.Fig2}, {8, exper.Fig8}, {9, exper.Fig9}, {11, exper.Fig11},
	{12, exper.Fig12}, {13, exper.Fig13}, {14, exper.Fig14},
}

func main() {
	cmd, args := "", os.Args[1:]
	if len(args) > 0 {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "":
		results := map[int]*exper.Result{}
		for _, f := range figs {
			results[f.n] = f.run()
			fmt.Print(results[f.n].Table(), "\n")
		}
		fmt.Print(exper.HeadlineSummary(results[8], results[9], results[11]))
	case "fig":
		if len(args) != 1 {
			usage()
		}
		n, _ := strconv.Atoi(args[0])
		for _, f := range figs {
			if f.n == n {
				fmt.Print(f.run().Table())
				return
			}
		}
		fail(2, fmt.Errorf("no figure %q (have 2, 8, 9, 11, 12, 13, 14)", args[0]))
	case "headline":
		f8, f9, f11 := exper.Fig8(), exper.Fig9(), exper.Fig11()
		fmt.Print(f8.Table(), "\n", f9.Table(), "\n", f11.Table(), "\n")
		fmt.Print(exper.HeadlineSummary(f8, f9, f11))
	case "ablations":
		for _, f := range []func() *exper.Result{
			exper.AblationSegmentSize, exper.AblationOGR,
			exper.AblationPindown, exper.AblationEagerPath, exper.AblationAuto,
			exper.AblationSensitivity, exper.AblationOneSided, exper.AblationParIO,
		} {
			fmt.Print(f().Table(), "\n")
		}
	case "counters":
		rep, err := exper.CountersReport()
		check(err)
		fmt.Print(rep)
	case "run":
		if len(args) == 0 {
			usage()
		}
		runSweep(sweep(args[0]), args[1:])
	case "guard":
		switch len(args) {
		case 0:
			guard("all")
		case 1:
			guard(args[0])
		default:
			usage()
		}
	default:
		usage()
	}
}

func usage() {
	var names []string
	for _, s := range exper.Sweeps {
		names = append(names, s.Name)
	}
	fmt.Fprintf(os.Stderr, `usage: dtbench [fig N | headline | ablations | counters]
       dtbench run SWEEP [flags]   (-h lists them)
       dtbench guard [SWEEP|all]
sweeps: %s
`, strings.Join(names, ", "))
	os.Exit(2)
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "dtbench:", err)
	os.Exit(code)
}

func check(err error) {
	if err != nil {
		fail(1, err)
	}
}

func sweep(name string) *exper.Sweep {
	s := exper.Lookup(name)
	if s == nil {
		fmt.Fprintf(os.Stderr, "dtbench: no sweep %q\n", name)
		usage()
	}
	return s
}

// runSweep runs one sweep, writes its artifact and prints its table.
func runSweep(s *exper.Sweep, args []string) {
	fs := flag.NewFlagSet("dtbench run "+s.Name, flag.ExitOnError)
	backends := fs.String("backends", strings.Join(s.Backends, ","), "comma-separated backends to run")
	out := fs.String("out", s.Artifact, "output path")
	benchIters := fs.Int("bench-iters", 50, "backends: ping-pong round trips per (scheme, backend)")
	workers := fs.Int("workers", 0, "backends: pack/unpack worker count (0 = config default)")
	traceOut := fs.String("trace", "", "backends: write Chrome trace-event JSON (chrome://tracing, Perfetto) here and print per-scheme histograms")
	tunerMsgs := fs.Int("tuner-msgs", 160, "tuner: messages per mode")
	tuneOut := fs.String("tune-out", "", "tuner: also write the learned tuning table (JSON) here")
	tuneIn := fs.String("tune-in", "", "tuner: instead of the sweep, replay the workload warm-started from this tuning table, exploration off")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fail(2, fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}

	if *tuneIn != "" {
		table, err := os.ReadFile(*tuneIn)
		check(err)
		row, err := exper.TunerWarmRun(table, *tunerMsgs)
		check(err)
		fmt.Printf("warm start from %s: %d messages, mean %.2f us (last quartile %.2f us), %d exploitations, regret %.2f ms\n",
			*tuneIn, row.Msgs, row.MeanUS, row.LastQMeanUS, row.Exploitations, row.RegretMS)
		return
	}

	list := strings.Split(*backends, ",")
	for _, b := range list {
		if !slices.Contains(s.Backends, b) {
			fail(2, fmt.Errorf("sweep %s has no backend %q (want %s)", s.Name, b, strings.Join(s.Backends, ", ")))
		}
	}
	o := exper.Options{BenchIters: *benchIters, TunerMsgs: *tunerMsgs}
	if *traceOut != "" {
		o.Trace, o.Metrics = trace.New(), stats.NewRegistry()
	}
	if *workers > 0 {
		o.Mut = func(c *mpi.Config) { c.Core.PackWorkers = *workers }
	}

	doc, err := s.Run(list, o)
	check(err)
	encoded, err := exper.Encode(doc)
	check(err)
	check(os.WriteFile(*out, encoded, 0o644))
	fmt.Print(doc.Table())
	fmt.Printf("wrote %s\n", *out)

	if rep, ok := doc.(*exper.TunerReport); ok && *tuneOut != "" {
		check(os.WriteFile(*tuneOut, append(rep.Learned, '\n'), 0o644))
		fmt.Printf("wrote %s (tuning table; replay with -tune-in)\n", *tuneOut)
	}
	if o.Trace != nil {
		check(os.WriteFile(*traceOut, o.Trace.ChromeTrace(), 0o644))
		fmt.Printf("wrote %s (%d events; load via chrome://tracing or ui.perfetto.dev)\n",
			*traceOut, o.Trace.Len())
		fmt.Println("\n# per-scheme histograms (lat_ns = one-way latency; mbps = payload bandwidth)")
		fmt.Print(o.Metrics.String())
	}
}

// guard regenerates the deterministic part of the named sweep, or of every
// sweep that has one, and compares it against the committed artifact.
func guard(name string) {
	if name != "all" && sweep(name).DetBackends == nil {
		fail(2, fmt.Errorf("sweep %s has no deterministic part to guard", name))
	}
	failed := 0
	for i := range exper.Sweeps {
		s := &exper.Sweeps[i]
		if s.DetBackends == nil || (name != "all" && name != s.Name) {
			continue
		}
		start := time.Now()
		committed, err := os.ReadFile(s.Artifact)
		if err == nil {
			err = s.Guard(committed)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtbench:", err)
			failed++
			continue
		}
		fmt.Printf("guard %-8s %s reproduces byte-for-byte (%.1fs)\n", s.Name, s.Part(), time.Since(start).Seconds())
	}
	if failed > 0 {
		os.Exit(1)
	}
}
