// fabsim exercises the fabric at the Verbs level, independent of MPI: it
// prints the cost-model parameters and sweeps raw RDMA write/read latency,
// bandwidth, and gather-descriptor costs — the "Contig" reference numbers
// the paper's figures are judged against.
//
//	go run ./cmd/fabsim                # deterministic simulator (virtual time)
//	go run ./cmd/fabsim -backend rt    # real-time concurrent fabric (wall time)
//
// With -fault-soak it instead drives every transfer scheme end to end under
// seeded fault injection and reports per-scheme delivery results, retry
// counts, and injector statistics (also available on either backend):
//
//	go run ./cmd/fabsim -fault-soak -seed 7 -cqe-rate 0.1 -delay-rate 0.2
//	go run ./cmd/fabsim -fault-soak -backend rt
//	go run ./cmd/fabsim -fault-soak -perm-rate 1 -cqe-rate 1   # forced aborts
//
// With -qos-soak it runs the deterministic service-mode traffic mix
// (internal/traffic) with the admission gate on and reports per-class
// latency plus the admission counters; -no-qos disables the gate for an A/B
// comparison:
//
//	go run ./cmd/fabsim -qos-soak
//	go run ./cmd/fabsim -qos-soak -backend rt
//	go run ./cmd/fabsim -qos-soak -backend rt -no-qos
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/pack"
	"repro/internal/qos"
	"repro/internal/rtfab"
	"repro/internal/shmfab"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/tuner"
	"repro/internal/verbs"
)

var (
	backend   = flag.String("backend", "sim", `fabric backend: "sim" (deterministic), "rt" (real-time concurrent), or "shm" (shared-memory intra-node)`)
	faultSoak = flag.Bool("fault-soak", false, "run a fault-injected pass over every transfer scheme")
	seed      = flag.Int64("seed", 1, "fault injector seed")
	msgs      = flag.Int("msgs", 4, "messages per scheme in the fault soak")
	postRate  = flag.Float64("post-rate", 0.05, "probability a descriptor post fails")
	cqeRate   = flag.Float64("cqe-rate", 0.08, "probability a descriptor completes with an error CQE")
	regRate   = flag.Float64("reg-rate", 0.05, "probability a memory registration fails")
	delayRate = flag.Float64("delay-rate", 0.10, "probability a completion is delayed")
	permRate  = flag.Float64("perm-rate", 0.0, "probability an injected fault is permanent (not retryable)")
	doTrace   = flag.Bool("trace", false, "record activity traces and print a busy-time summary at the end")
	traceOut  = flag.String("trace-out", "", "with -trace: also write Chrome trace-event JSON here")
	tunerSoak = flag.Bool("tuner", false, "with -fault-soak: add an Auto row driven by the adaptive tuner")
	qosSoak   = flag.Bool("qos-soak", false, "run the service-mode traffic soak and report per-class latency + admission counters")
	noQoS     = flag.Bool("no-qos", false, "with -qos-soak: disable the admission gate (A/B baseline)")
	soakSeed  = flag.Int64("qos-seed", 1, "with -qos-soak: workload seed")
)

// tracer is non-nil when -trace is set; the measurement helpers attach it to
// every fabric they build.
var tracer *trace.Recorder

func main() {
	flag.Parse()
	if *backend != "sim" && *backend != "rt" && *backend != "shm" {
		fmt.Fprintf(os.Stderr, "fabsim: unknown backend %q (want sim, rt or shm)\n", *backend)
		os.Exit(2)
	}
	if *doTrace {
		tracer = trace.New()
	}
	if *faultSoak {
		ok := runFaultSoak()
		flushTrace()
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *qosSoak {
		if err := runQoSSoak(); err != nil {
			fmt.Fprintln(os.Stderr, "fabsim:", err)
			os.Exit(1)
		}
		flushTrace()
		return
	}
	runSweep()
	flushTrace()
}

// runSweep prints the selected backend's cost model and sweeps raw RDMA
// write/read latency, bandwidth and gather-descriptor cost on it: one
// operation in virtual time on sim and shm (where, with no responder
// turnaround, shm's write and read columns coincide), the wall-clock average
// of many sequential ones on rt.
func runSweep() {
	model, iters := ib.DefaultModel(), 1
	switch *backend {
	case "rt":
		iters = 400
		fmt.Printf("# raw RDMA wall-clock latency on the real-time backend (%d ops averaged)\n", iters)
	case "shm":
		model = shmfab.DefaultModel()
		fmt.Println("# shared-memory cost model (DESIGN.md section 15)")
		fmt.Printf("copy bandwidth      %.2f GB/s (+%v per contiguous run)\n", model.CopyGBps, model.CopyBlockStartup)
		fmt.Printf("descriptor post     %v (list entries %v, per SGE %v)\n", model.PostCost, model.ListPostEntry, model.SGEPost)
		fmt.Printf("registration        %v + %v/page; dereg %v + %v/page\n",
			model.RegBase, model.RegPerPage, model.DeregBase, model.DeregPerPage)
		fmt.Printf("no link terms: wire latency %v, link bandwidth %.0f, read turnaround %v; max SGE %d\n\n",
			model.WireLatency, model.LinkGBps, model.ReadTurnaround, model.MaxSGE)
		fmt.Println("# raw copy-transfer completion latency and effective bandwidth")
	default:
		fmt.Println("# cost model (DESIGN.md section 5)")
		fmt.Printf("wire latency        %v\n", model.WireLatency)
		fmt.Printf("link bandwidth      %.2f GB/s\n", model.LinkGBps)
		fmt.Printf("copy bandwidth      %.2f GB/s (+%v per contiguous run)\n", model.CopyGBps, model.CopyBlockStartup)
		fmt.Printf("descriptor post     %v (list entries %v, per SGE %v)\n", model.PostCost, model.ListPostEntry, model.SGEPost)
		fmt.Printf("NIC per descriptor  %v (per SGE %v)\n", model.NICDescCost, model.NICSGECost)
		fmt.Printf("registration        %v + %v/page; dereg %v + %v/page\n",
			model.RegBase, model.RegPerPage, model.DeregBase, model.DeregPerPage)
		fmt.Printf("malloc              %v + %v/page\n", model.MallocBase, model.MallocPerPage)
		fmt.Printf("RDMA read turnaround %v; max SGE %d\n\n", model.ReadTurnaround, model.MaxSGE)
		fmt.Println("# raw RDMA write/read completion latency and effective bandwidth")
	}
	fmt.Printf("%10s %14s %14s %14s\n", "bytes", "write (us)", "read (us)", "write MB/s")
	for _, size := range []int64{256, 4 << 10, 64 << 10, 512 << 10, 4 << 20} {
		w := oneOp(model, verbs.OpRDMAWrite, size, 1, iters)
		r := oneOp(model, verbs.OpRDMARead, size, 1, iters)
		mbps := float64(size) / (1 << 20) / w.Seconds()
		fmt.Printf("%10d %14.2f %14.2f %14.1f\n", size, w.Micros(), r.Micros(), mbps)
	}

	fmt.Println("\n# gather write: one descriptor, varying SGE count (64 KB total)")
	fmt.Printf("%6s %14s\n", "SGEs", "latency (us)")
	for _, n := range []int{1, 4, 16, 64} {
		d := oneOp(model, verbs.OpRDMAWrite, 64<<10, n, iters)
		fmt.Printf("%6d %14.2f\n", n, d.Micros())
	}
}

// flushTrace prints the busy-time summary (and writes the Chrome JSON) when
// -trace was requested.
func flushTrace() {
	if tracer == nil {
		return
	}
	fmt.Println("\n# busy-time summary (-trace)")
	fmt.Print(tracer.Summary())
	if *traceOut != "" {
		if err := os.WriteFile(*traceOut, tracer.ChromeTrace(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fabsim:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d events; load via chrome://tracing or ui.perfetto.dev)\n",
			*traceOut, tracer.Len())
	}
}

// runQoSSoak drives the default service-mode traffic mix over an MPI world
// on the selected backend and prints per-class latency quantiles plus the
// aggregate counters (including the QoS admission lines).
func runQoSSoak() error {
	spec := traffic.DefaultSpec()
	spec.Seed = *soakSeed
	cfg := mpi.DefaultConfig()
	cfg.Ranks = spec.Ranks
	cfg.Backend = *backend
	cfg.RTTimeout = 2 * time.Minute
	if !*noQoS {
		pol := qos.DefaultPolicy()
		cfg.Core.QoS = &pol
	}
	if tracer != nil {
		cfg.Trace = tracer
	}
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return err
	}
	reg := stats.NewRegistry()
	r := traffic.NewRunner(spec, reg)
	fmt.Printf("# qos soak: backend=%s qos=%v seed=%d ranks=%d comms=%d flows=%d msgs/flow=%d\n",
		*backend, !*noQoS, spec.Seed, spec.Ranks, spec.Comms,
		spec.EagerFlows+spec.BulkFlows, spec.Msgs)
	start := time.Now()
	if err := r.Run(w); err != nil {
		return err
	}
	wall := time.Since(start)
	if ef, bf := r.Failures(); ef != 0 || bf != 0 {
		return fmt.Errorf("qos soak: %d eager / %d bulk request failures", ef, bf)
	}
	fmt.Printf("%8s %8s %12s %12s %12s\n", "class", "msgs", "p50 us", "p99 us", "max us")
	for _, cl := range []struct {
		name string
		hist *stats.Histogram
	}{
		{"eager", reg.Histogram(traffic.HistEager)},
		{"bulk", reg.Histogram(traffic.HistBulk)},
	} {
		fmt.Printf("%8s %8d %12.2f %12.2f %12.2f\n", cl.name, cl.hist.Count(),
			float64(cl.hist.Quantile(0.50))/1e3,
			float64(cl.hist.Quantile(0.99))/1e3,
			float64(cl.hist.Quantile(1))/1e3)
	}
	ctr := traffic.AggregateCounters(w)
	fmt.Printf("\nwall time %v\n# aggregate counters\n%s", wall.Round(time.Millisecond), ctr.String())
	return nil
}

// runFaultSoak drives every scheme through a two-rank fault-injected
// exchange and reports delivery outcomes on the selected backend. A message
// either arrives byte-identical or is aborted cleanly: both requests fail,
// each with an injected fault or the peer's abort notice. The last column
// counts the clean aborts whose cause was transient — a post that drew a
// fault on its first attempt and on each of core's six retries, which at the
// default rates a long enough run is bound to meet (and which the real-time
// backend, where the draw order follows goroutine timing, meets on no fixed
// seed).
// Returns false if any scheme corrupted data, hung, aborted a message on one
// side only, or failed a request with any other error.
func runFaultSoak() bool {
	fc := fault.Config{
		Seed:          *seed,
		PostFailRate:  *postRate,
		CQEErrorRate:  *cqeRate,
		RegFailRate:   *regRate,
		DelayRate:     *delayRate,
		MaxDelay:      20 * simtime.Microsecond,
		PermanentRate: *permRate,
	}
	fmt.Printf("# fault soak: backend=%s seed=%d post=%.2f cqe=%.2f reg=%.2f delay=%.2f perm=%.2f msgs=%d\n",
		*backend, *seed, *postRate, *cqeRate, *regRate, *delayRate, *permRate, *msgs)
	fmt.Printf("%-10s %8s %8s %8s %8s %8s %12s %10s\n",
		"scheme", "ok", "failed", "corrupt", "retries", "aborts", "end (ms)", "exhausted")

	type soakRow struct {
		label  string
		scheme core.Scheme
		sel    core.SchemeSelector
	}
	rows := []soakRow{
		{"Generic", core.SchemeGeneric, nil},
		{"BC-SPUP", core.SchemeBCSPUP, nil},
		{"RWG-UP", core.SchemeRWGUP, nil},
		{"P-RRS", core.SchemePRRS, nil},
		{"Multi-W", core.SchemeMultiW, nil},
	}
	if *tunerSoak {
		// Adaptive selection under fire: the same tuner instance is shared
		// by both endpoints, and fault-inflated latencies feed its arms.
		tcfg := tuner.DefaultConfig()
		tcfg.Backend = *backend
		rows = append(rows, soakRow{"Auto+tuner", core.SchemeAuto, tuner.New(tcfg)})
	}
	vec := datatype.Must(datatype.TypeVector(128, 16, 64, datatype.Int32))
	const count = 160
	allGood := true

	for _, row := range rows {
		scheme := row.scheme
		inj := fault.New(fc)
		var (
			eng *simtime.Engine
			rtf *rtfab.Fabric
			fab *ib.Fabric
		)
		var shmf *shmfab.Fabric
		switch *backend {
		case "rt":
			rtf = rtfab.New(ib.DefaultModel())
			rtf.SetInjector(inj)
		case "shm":
			eng = simtime.NewEngine()
			shmf = shmfab.New(eng, shmfab.DefaultModel(), 2, 64<<20)
			shmf.SetInjector(inj)
		default:
			eng = simtime.NewEngine()
			fab = ib.NewFabric(eng, ib.DefaultModel())
			fab.SetInjector(inj)
		}
		cfg := core.DefaultConfig()
		cfg.Scheme = scheme
		cfg.Selector = row.sel
		cfg.PoolSize = 4 << 20
		if tracer != nil {
			tracer.SetPrefix(*backend + "/" + row.label + "/")
			switch {
			case rtf != nil:
				rtf.SetTracer(tracer)
				cfg.TraceClock = rtf.WallClock
			case shmf != nil:
				shmf.SetTracer(tracer)
			default:
				fab.SetTracer(tracer)
			}
			cfg.Tracer = tracer
		}
		eps := make([]*core.Endpoint, 2)
		hcas := make([]verbs.HCA, 2)
		for i := range eps {
			switch {
			case rtf != nil:
				hcas[i] = rtf.AddNode(fmt.Sprintf("n%d", i), mem.NewMemory(fmt.Sprintf("n%d", i), 64<<20), nil)
			case shmf != nil:
				hcas[i] = shmf.AddNode(fmt.Sprintf("n%d", i), nil)
			default:
				hcas[i] = fab.AddHCA(fmt.Sprintf("n%d", i), mem.NewMemory(fmt.Sprintf("n%d", i), 64<<20), nil)
			}
			ep, err := core.NewEndpoint(i, hcas[i], cfg)
			if err != nil {
				panic(err)
			}
			eps[i] = ep
		}
		core.ConnectPeers(eps)

		size := vec.Size() * int64(count)
		sent := make([][]byte, *msgs)
		got := make([][]byte, *msgs)
		sendErr := make([]error, *msgs)
		recvErr := make([]error, *msgs)
		for _, ep := range eps {
			ep := ep
			hcas[ep.Rank()].Engine().Spawn(fmt.Sprintf("rank%d", ep.Rank()), func(p *simtime.Process) {
				for m := 0; m < *msgs; m++ {
					span := vec.TrueExtent() + int64(count-1)*vec.Extent()
					a := ep.Mem().MustAlloc(span)
					buf := mem.Addr(int64(a) - vec.TrueLB())
					if ep.Rank() == 0 {
						data := make([]byte, size)
						for i := range data {
							data[i] = byte(m+1) ^ byte(i*31+7)
						}
						u := pack.NewUnpacker(ep.Mem(), buf, vec, count)
						u.UnpackFrom(data)
						sent[m] = data
						sendErr[m] = ep.Send(p, buf, count, vec, 1, m)
					} else {
						if _, recvErr[m] = ep.Recv(p, buf, count, vec, 0, m); recvErr[m] != nil {
							continue
						}
						out := make([]byte, size)
						pk := pack.NewPacker(ep.Mem(), buf, vec, count)
						pk.PackTo(out)
						got[m] = out
					}
				}
			})
		}
		start := time.Now()
		var runErr error
		if rtf != nil {
			runErr = rtf.Run(time.Minute)
		} else {
			runErr = eng.Run()
		}
		if runErr != nil {
			fmt.Printf("%-10s engine error: %v\n", row.label, runErr)
			allGood = false
			continue
		}
		endMS := float64(time.Since(start).Microseconds()) / 1000
		if eng != nil {
			endMS = float64(eng.Now().Sub(0).Micros()) / 1000
		}

		okCount, failed, corrupt, exhausted := 0, 0, 0, 0
		for m := 0; m < *msgs; m++ {
			se, re := sendErr[m], recvErr[m]
			switch {
			case se != nil || re != nil:
				if re != nil {
					failed++
				}
				if !cleanAbort(se) || !cleanAbort(re) {
					fmt.Printf("%-10s message %d not aborted cleanly: send %v, recv %v\n", row.label, m, se, re)
					allGood = false
				} else if fault.IsTransient(se) || fault.IsTransient(re) {
					exhausted++
				}
			case bytes.Equal(sent[m], got[m]):
				okCount++
			default:
				corrupt++
			}
		}
		var retries, aborts int64
		for _, ep := range eps {
			retries += ep.Counters().FaultRetries
			aborts += ep.Counters().RequestsFailed
		}
		fmt.Printf("%-10s %8d %8d %8d %8d %8d %12.2f %10d\n",
			row.label, okCount, failed, corrupt, retries, aborts, endMS, exhausted)
		if corrupt > 0 {
			allGood = false
		}
	}
	fmt.Println()
	if allGood {
		fmt.Println("fault soak: PASS (all schemes delivered byte-identical data or aborted cleanly)")
	} else {
		fmt.Println("fault soak: FAIL")
	}
	return allGood
}

// cleanAbort reports whether err is how one side of a cleanly aborted
// message fails: with the injected fault that killed the transfer, or with
// the peer's notice that it did.
func cleanAbort(err error) bool {
	return fault.IsInjected(err) || errors.Is(err, core.ErrRemoteAbort)
}

// twoNodes builds a two-node fabric of the selected backend, each node with
// an arena of the given size, and returns the nodes with what drives the
// fabric until it is idle.
func twoNodes(model verbs.Model, arena int64, prefix string) (a, b verbs.HCA, run func() error) {
	if tracer != nil {
		tracer.SetPrefix(*backend + "/" + prefix)
	}
	switch *backend {
	case "rt":
		f := rtfab.New(model)
		f.SetTracer(tracer)
		return f.AddNode("a", mem.NewMemory("a", arena), nil), f.AddNode("b", mem.NewMemory("b", arena), nil),
			func() error { return f.Run(time.Minute) }
	case "shm":
		eng := simtime.NewEngine()
		f := shmfab.New(eng, model, 2, arena)
		f.SetTracer(tracer)
		return f.AddNode("a", nil), f.AddNode("b", nil), eng.Run
	default:
		eng := simtime.NewEngine()
		f := ib.NewFabric(eng, model)
		f.SetTracer(tracer)
		return f.AddHCA("a", mem.NewMemory("a", arena), nil), f.AddHCA("b", mem.NewMemory("b", arena), nil), eng.Run
	}
}

// oneOp measures the completion time of one RDMA operation of the given
// total size split across n scatter/gather entries: in virtual time on sim and
// shm, on the wall clock on rt, either way averaged over iters sequential
// posts (on rt enough of them that fabric start/stop cost drops out).
func oneOp(model verbs.Model, op verbs.Opcode, size int64, n, iters int) simtime.Duration {
	na, nb, run := twoNodes(model, size*2+8<<20, fmt.Sprintf("%v-%dB-%dsge/", op, size, n))
	aSend, aRecv := na.NewCQ(), na.NewCQ()
	bSend, bRecv := nb.NewCQ(), nb.NewCQ()
	qa, _ := na.Connect(nb, aSend, aRecv, bSend, bRecv)

	ma, mb := na.Mem(), nb.Mem()
	per := size / int64(n)
	sgl := make([]verbs.SGE, n)
	for i := range sgl {
		a := ma.MustAlloc(per)
		reg, err := ma.Reg().Register(a, per)
		if err != nil {
			panic(err)
		}
		sgl[i] = verbs.SGE{Addr: a, Len: per, Key: reg.LKey}
	}
	remote := mb.MustAlloc(size)
	rreg, err := mb.Reg().Register(remote, size)
	if err != nil {
		panic(err)
	}

	post := func() {
		if err := qa.PostSend(verbs.SendWR{Op: op, SGL: sgl, RemoteAddr: remote, RKey: rreg.RKey}); err != nil {
			panic(err)
		}
	}
	left := iters
	var done simtime.Time
	aSend.SetHandler(func(e verbs.CQE) {
		if e.Err != nil {
			panic(e.Err)
		}
		if left--; left > 0 {
			post()
			return
		}
		done = na.Engine().Now()
	})
	post()
	start := time.Now()
	if err := run(); err != nil {
		panic(err)
	}
	if *backend == "rt" {
		return simtime.Duration(time.Since(start)) / simtime.Duration(iters)
	}
	return done.Sub(0) / simtime.Duration(iters)
}
