package main

import (
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/ib"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/pack"
	"repro/internal/rtfab"
	"repro/internal/shmfab"
	"repro/internal/simtime"
	"repro/internal/verbs"
)

// The layer probes call each module's public functions directly, on the
// workload's own layouts and descriptor shapes, so a later change to one
// module has a number that moves with it and nothing else. Every probe runs
// in batches; each batch is one benchmark-owned span, and the metric is the
// median over the batches the gauge found quiet (see harness.go).

const probeBatches = 7

// prober times probe loops and records their spans.
type prober struct {
	spans *rankSpans
	quiet *quiet // judges the gauge; the replays before the probes filled it
	gauge *gauge
	// patience is how long, over all probes, the prober will still sit out
	// interference instead of measuring through it.
	patience time.Duration
	quick    bool // tests: one batch per probe
	ms       runtime.MemStats
}

// awaitQuiet returns a gauge reading taken when the machine read quiet — or,
// once patience has run out, whatever it read.
func (pr *prober) awaitQuiet() int64 {
	for {
		start := time.Now()
		reading := pr.gauge.read()
		if pr.quiet.ok(reading) || pr.patience <= 0 {
			return reading
		}
		time.Sleep(time.Millisecond)
		pr.patience -= time.Since(start)
	}
}

// time runs fn in batches — each call of fn making calls invocations — until
// probeBatches of them ran with a quiet gauge reading on both sides (or three
// times as many ran at all), and returns the median quiet batch's
// nanoseconds per invocation.
func (pr *prober) time(module, name string, calls int, fn func()) float64 {
	return pr.timeBatches(module, name, calls, probeBatches, 3*probeBatches, fn)
}

// timeBatches is time with explicit limits: it stops after want quiet
// batches or limit batches, whichever comes first, having run fn once
// beforehand to warm up.
func (pr *prober) timeBatches(module, name string, calls, want, limit int, fn func()) float64 {
	if pr.quick {
		want, limit = min(want, 1), min(limit, 1)
	}
	fn() // warm: caches bound, arenas grown
	var all, kept []float64
	for b := 0; len(kept) < want && b < limit; b++ {
		before := pr.awaitQuiet()
		i := pr.spans.open(name, module, b, 0)
		fn()
		s := &pr.spans.spans[i]
		s.EndNs, s.Calls = pr.spans.log.now(), calls
		per := float64(s.EndNs-s.StartNs) / float64(calls)
		all = append(all, per)
		if pr.quiet.ok(before) && pr.quiet.ok(pr.gauge.read()) {
			kept = append(kept, per)
		}
	}
	if len(kept) < min(3, want) {
		kept = all
	}
	return quartiles(kept).med
}

// allocs returns the heap objects one invocation allocates, over n calls.
func (pr *prober) allocs(n int, fn func()) float64 {
	fn()
	runtime.ReadMemStats(&pr.ms)
	a0 := pr.ms.Mallocs
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&pr.ms)
	return float64(pr.ms.Mallocs-a0) / float64(n)
}

// shapeProbe is what the software layers cost on one message shape.
type shapeProbe struct {
	runs, bytes, wire                     float64
	compileUS, walkNS, encodeUS, decodeUS float64
	packUS, unpackUS, copyUS              float64
	ogrUS, regions, missUS, hitNS         float64
	descUS, selectNS                      float64
}

// iterations sizes a batch so it runs for roughly a millisecond or more.
func iterations(runs int64) int {
	n := int(200000 / (runs + 100))
	if n < 2 {
		n = 2
	}
	return n
}

func (pr *prober) shape(sh shape) shapeProbe {
	var r shapeProbe
	prog := datatype.Compile(sh.dt, sh.count)
	size := sh.dt.Size() * int64(sh.count)
	span := sh.dt.TrueExtent() + int64(sh.count-1)*sh.dt.Extent()
	r.runs, r.bytes = float64(prog.Runs()), float64(size)
	n := iterations(prog.Runs())

	// Heap-backed (below internal/mem's mmap threshold), page-aligned.
	m := mem.NewMemory("probe", 8<<20)
	a, err := m.AllocPage(span + mem.PageSize)
	if err != nil {
		panic(err)
	}
	base := mem.Addr(int64(a) - sh.dt.TrueLB())
	stage, raw := make([]byte, size), make([]byte, size)

	// datatype
	r.compileUS = pr.time("datatype", "Compile", n, func() {
		for i := 0; i < n; i++ {
			prog = datatype.Compile(sh.dt, sh.count)
		}
	}) / 1e3
	cur := prog.Cursor()
	r.walkNS = pr.time("datatype", "ProgCursor.Next", n*int(prog.Runs()), func() {
		for i := 0; i < n; i++ {
			cur.Reset(prog)
			for {
				if _, _, ok := cur.Next(1 << 62); !ok {
					break
				}
			}
		}
	})
	var enc []byte
	r.encodeUS = pr.time("datatype", "Encode", n, func() {
		for i := 0; i < n; i++ {
			enc = datatype.Encode(sh.dt)
		}
	}) / 1e3
	r.wire = float64(len(enc))
	r.decodeUS = pr.time("datatype", "Decode", n, func() {
		for i := 0; i < n; i++ {
			if _, err := datatype.Decode(enc); err != nil {
				panic(err)
			}
		}
	}) / 1e3

	// pack
	pk, up := pack.NewProgramPacker(m, base, prog), pack.NewProgramUnpacker(m, base, prog)
	r.packUS = pr.time("pack", "Packer.PackTo", n, func() {
		for i := 0; i < n; i++ {
			pk.Reset()
			if got, _ := pk.PackTo(stage); got != size {
				panic("bench: short pack")
			}
		}
	}) / 1e3
	r.unpackUS = pr.time("pack", "Unpacker.UnpackFrom", n, func() {
		for i := 0; i < n; i++ {
			up.Reset()
			if got, _ := up.UnpackFrom(stage); got != size {
				panic("bench: short unpack")
			}
		}
	}) / 1e3
	r.copyUS = pr.time("pack", "copy", n, func() {
		for i := 0; i < n; i++ {
			copy(raw, stage)
		}
	}) / 1e3

	// mem: optimistic group registration, then the pin-down cache on the
	// first region it produced.
	model := verbs.DefaultModel()
	cost := mem.RegCost{Base: int64(model.RegBase), PerPage: int64(model.RegPerPage)}
	var regions []mem.Block
	r.ogrUS = pr.time("mem", "ProgramBlocks+GroupRegions", n, func() {
		for i := 0; i < n; i++ {
			blocks, _ := pack.ProgramBlocks(base, prog, 1<<20)
			if prog.Ascending() {
				regions = mem.GroupRegionsSorted(blocks, cost)
			} else {
				regions = mem.GroupRegions(blocks, cost)
			}
		}
	}) / 1e3
	r.regions = float64(len(regions))
	reg := regions[0]
	const regCalls = 200
	cold := mem.NewRegCache(m.Reg(), 0, true) // capacity 0: every release evicts
	r.missUS = pr.time("mem", "RegCache.Acquire(miss)+Release", regCalls, func() {
		for i := 0; i < regCalls; i++ {
			acquireRelease(cold, reg)
		}
	}) / 1e3
	warm := mem.NewRegCache(m.Reg(), 64<<20, true)
	r.hitNS = pr.time("mem", "RegCache.Acquire(hit)+Release", regCalls, func() {
		for i := 0; i < regCalls; i++ {
			acquireRelease(warm, reg)
		}
	})

	// core: descriptor build and the static scheme decision.
	pp := core.NewPerfProbe(sh.dt, sh.count)
	r.descUS = pr.time("core", "PerfProbe.ChunkWRs", n, func() {
		for i := 0; i < n; i++ {
			pp.ChunkWRs()
		}
	}) / 1e3
	cfg := core.DefaultConfig()
	avg := size / prog.Runs()
	in := core.SelectorInput{Peer: 1, Bytes: size, SAvg: avg, RAvg: avg, RRuns: prog.Runs()}
	const selCalls = 2000
	r.selectNS = pr.time("core", "AutoChoice", selCalls, func() {
		for i := 0; i < selCalls; i++ {
			core.AutoChoice(&cfg, in)
		}
	})
	return r
}

func acquireRelease(c *mem.RegCache, b mem.Block) {
	r, _, err := c.Acquire(b.Addr, b.Len)
	if err != nil {
		panic(err)
	}
	if _, err := c.Release(r); err != nil {
		panic(err)
	}
}

// fields lists every number of the probe, for arithmetic over all of them.
func (p *shapeProbe) fields() []*float64 {
	return []*float64{&p.runs, &p.bytes, &p.wire, &p.compileUS, &p.walkNS, &p.encodeUS, &p.decodeUS,
		&p.packUS, &p.unpackUS, &p.copyUS, &p.ogrUS, &p.regions, &p.missUS, &p.hitNS, &p.descUS, &p.selectNS}
}

// shapes probes every shape of a workload and returns the per-message means
// weighted by how many messages of each shape one op sends.
func (pr *prober) shapes(shs []shape) (mean shapeProbe, msgs float64) {
	acc := mean.fields()
	for _, sh := range shs {
		p, w := pr.shape(sh), float64(sh.perOp)
		msgs += w
		for i, f := range p.fields() {
			*acc[i] += *f * w
		}
	}
	for _, f := range acc {
		*f /= msgs
	}
	return mean, msgs
}

// fabricProbe is a raw two-node verbs loop on one backend, in the shapes the
// workloads put on the fabric.
type fabricProbe struct {
	writeNS, writeAllocs float64 // 512 B single-SGE write, list-posted 64 at a time (sparse_multiw)
	gatherNS             float64 // per SGE of one 64-SGE write
	readNS               float64 // 512 B read, list-posted 64 at a time
	sendNS               float64 // 256 B send/recv (eager_stream)
	segCopyMBps          float64 // one 128 KiB write (a BC-SPUP segment)
}

const (
	fabBatch   = 64
	fabWrite   = 512
	fabSend    = 256
	fabSegment = 128 << 10
)

// fabricModule names the package that implements a backend.
var fabricModule = map[string]string{mpi.BackendSim: "ib", mpi.BackendSHM: "shmfab", mpi.BackendRT: "rtfab"}

// fabric builds a connected two-node fabric of one backend and returns its
// nodes and a function that runs a driver process on node a to completion.
func fabric(backend string) (a, b verbs.HCA, run func(func(p *simtime.Process)) error) {
	const memBytes = 4 << 20
	switch backend {
	case mpi.BackendSim:
		eng := simtime.NewEngine()
		fab := ib.NewFabric(eng, ib.DefaultModel())
		a = fab.AddHCA("a", mem.NewMemory("a", memBytes), nil)
		b = fab.AddHCA("b", mem.NewMemory("b", memBytes), nil)
		return a, b, func(body func(*simtime.Process)) error { eng.Spawn("driver", body); return eng.Run() }
	case mpi.BackendSHM:
		eng := simtime.NewEngine()
		fab := shmfab.New(eng, shmfab.DefaultModel(), 2, memBytes)
		a, b = fab.AddNode("a", nil), fab.AddNode("b", nil)
		return a, b, func(body func(*simtime.Process)) error { eng.Spawn("driver", body); return eng.Run() }
	default:
		fab := rtfab.New(verbs.DefaultModel())
		na := fab.AddNode("a", mem.NewMemory("a", memBytes), nil)
		a, b = na, fab.AddNode("b", mem.NewMemory("b", memBytes), nil)
		return a, b, func(body func(*simtime.Process)) error {
			na.Engine().Spawn("driver", body)
			return fab.Run(rtWatchdog)
		}
	}
}

func (pr *prober) fabric(backend string) (fabricProbe, error) {
	var r fabricProbe
	module := fabricModule[backend]
	a, b, run := fabric(backend)
	aSend, aRecv, bSend, bRecv := a.NewCQ(), a.NewCQ(), b.NewCQ(), b.NewCQ()
	qa, qb := a.Connect(b, aSend, aRecv, bSend, bRecv)
	// Node b re-posts a credit for every message it receives, on its own
	// execution context.
	bRecv.SetHandler(func(verbs.CQE) { qb.PostRecv(verbs.RecvWR{}) })
	for i := 0; i < fabBatch; i++ {
		qb.PostRecv(verbs.RecvWR{})
	}

	ma, mb := a.Mem(), b.Mem()
	local := ma.MustAlloc(fabSegment)
	lreg, err := ma.Reg().Register(local, fabSegment)
	if err != nil {
		return r, err
	}
	remote := mb.MustAlloc(fabSegment)
	rreg, err := mb.Reg().Register(remote, fabSegment)
	if err != nil {
		return r, err
	}
	sge := func(i int, n int64) verbs.SGE {
		return verbs.SGE{Addr: mem.Addr(int64(local) + int64(i)*n), Len: n, Key: lreg.LKey}
	}
	list := func(op verbs.Opcode) []verbs.SendWR {
		wrs := make([]verbs.SendWR, fabBatch)
		for i := range wrs {
			wrs[i] = verbs.SendWR{Op: op, SGL: []verbs.SGE{sge(i, fabWrite)},
				RemoteAddr: mem.Addr(int64(remote) + int64(i)*fabWrite), RKey: rreg.RKey}
		}
		return wrs
	}
	writes, reads := list(verbs.OpRDMAWrite), list(verbs.OpRDMARead)
	gather := verbs.SendWR{Op: verbs.OpRDMAWrite, RemoteAddr: remote, RKey: rreg.RKey}
	for i := 0; i < fabBatch; i++ {
		gather.SGL = append(gather.SGL, sge(i, 64))
	}
	segment := verbs.SendWR{Op: verbs.OpRDMAWrite, SGL: []verbs.SGE{sge(0, fabSegment)},
		RemoteAddr: remote, RKey: rreg.RKey}
	payload := make([]byte, fabSend)

	// Completions are dispatched to a handler, as the endpoint's are; the
	// driver parks once per batch, not once per completion.
	var done, want int
	var all simtime.Signal
	aSend.SetHandler(func(e verbs.CQE) {
		if e.Err != nil {
			panic(e.Err)
		}
		if done++; done == want {
			all.Broadcast()
		}
	})
	err = run(func(p *simtime.Process) {
		drain := func(n int) {
			for want = n; done < n; {
				p.Wait(&all)
			}
			done = 0
		}
		postList := func(wrs []verbs.SendWR) func() {
			return func() {
				if err := qa.PostSendList(wrs); err != nil {
					panic(err)
				}
				drain(len(wrs))
			}
		}
		postOne := func(wr verbs.SendWR) func() {
			return func() {
				if err := qa.PostSend(wr); err != nil {
					panic(err)
				}
				drain(1)
			}
		}
		repeat := func(n int, fn func()) func() {
			return func() {
				for i := 0; i < n; i++ {
					fn()
				}
			}
		}
		r.writeNS = pr.time(module, "PostSendList(64 x 512B write)+drain", 8*fabBatch, repeat(8, postList(writes)))
		r.writeAllocs = pr.allocs(8, postList(writes)) / fabBatch
		r.readNS = pr.time(module, "PostSendList(64 x 512B read)+drain", 8*fabBatch, repeat(8, postList(reads)))
		r.gatherNS = pr.time(module, "PostSend(64-SGE write)+drain", 32*fabBatch, repeat(32, postOne(gather)))
		r.sendNS = pr.time(module, "PostSend(256B send)+drain", 128,
			repeat(128, postOne(verbs.SendWR{Op: verbs.OpSend, Inline: payload})))
		segNS := pr.time(module, "PostSend(128KiB write)+drain", 16, repeat(16, postOne(segment)))
		r.segCopyMBps = fabSegment / segNS * 1e3
	})
	return r, err
}

// simtimeProbe measures the event engine every backend runs on.
func (pr *prober) simtime() (eventNS, eventAllocs, switchNS float64) {
	// Events are scheduled and drained 64 at a time: the engine's queue
	// holds tens of events in these workloads, not thousands.
	const n = 64 * 256
	nop := func() {}
	eng := simtime.NewEngine()
	events := func() {
		for i := 0; i < n; i += 64 {
			for j := 0; j < 64; j++ {
				eng.Schedule(simtime.Duration(j%8), nop)
			}
			if err := eng.Run(); err != nil {
				panic(err)
			}
		}
	}
	eventNS = pr.time("simtime", "Schedule+Run", n, events)
	eventAllocs = pr.allocs(4, events) / n
	switchNS = pr.time("simtime", "Process.Sleep", n, func() {
		eng := simtime.NewEngine()
		eng.Spawn("sleeper", func(p *simtime.Process) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		if err := eng.Run(); err != nil {
			panic(err)
		}
	})
	return eventNS, eventAllocs, switchNS
}

// world measures mpi.NewWorld and a barrier at the workload's own world
// shape on one backend.
func (pr *prober) world(wl *workload, backend string) (buildMS, barrierUS float64, err error) {
	cfg := wl.build(&env{backend: backend, seed: 1}).cfg
	cfg.Backend = backend
	cfg.RTTimeout = rtWatchdog
	builds := make([]float64, 0, 3)
	var w *mpi.World
	for i := 0; i < cap(builds); i++ {
		s := pr.spans.open("NewWorld", "mpi", i, 0)
		w, err = mpi.NewWorld(cfg)
		sp := &pr.spans.spans[s]
		sp.EndNs, sp.Backend = pr.spans.log.now(), backend
		if err != nil {
			return 0, 0, err
		}
		builds = append(builds, float64(sp.EndNs-sp.StartNs)/1e6)
	}
	slices.Sort(builds)
	const n = 200
	err = w.Run(func(p *mpi.Proc) error {
		loop := func() {
			for i := 0; i < n; i++ {
				if err := p.Barrier(); err != nil {
					panic(err)
				}
			}
		}
		// A fixed number of batches, so every rank knows when to stop.
		batches := 2 * probeBatches
		if pr.quick {
			batches = 1
		}
		if p.Rank() != 0 {
			for b := 0; b < batches+1; b++ {
				loop()
			}
			return nil
		}
		barrierUS = pr.timeBatches("mpi", "Barrier."+backend, n, batches, batches, loop) / 1e3
		return nil
	})
	releaseWorld(w)
	return builds[len(builds)/2], barrierUS, err
}

// noop is the harness measuring itself: a one-rank world whose op does
// nothing, through the same loop as every workload.
var noop = &workload{
	name: "noop",
	build: func(*env) program {
		cfg := mpi.DefaultConfig()
		cfg.Ranks = 1
		cfg.MemBytes = 8 << 20
		cfg.Core.PoolSize = 1 << 20
		return program{
			cfg:     cfg,
			rank:    func(*port) (func(int) error, error) { return func(int) error { return nil }, nil },
			prepare: func(int) {},
			verify:  func(int) int { return 0 },
		}
	},
}

func harnessOverhead(quick bool) (ns, allocs float64, err error) {
	ops := 7000
	if quick {
		ops = 700
	}
	res := runLeg(legSpec{wl: noop, backend: mpi.BackendSim, ops: ops, warm: 10, reps: 1})
	return res.p50.med * 1e3, res.allocs, res.err
}
