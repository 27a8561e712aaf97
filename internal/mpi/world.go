// Package mpi layers a miniature MPI on top of the core datatype
// communication engine: a World of simulated ranks, blocking and nonblocking
// point-to-point operations, and the collectives the paper's evaluation
// exercises (Alltoall above all, plus Bcast, Gather, Scatter, Allgather,
// Barrier). Rank programs run as coroutine processes in virtual time, so
// latency and bandwidth are measured exactly as an MPI benchmark would
// measure them — with the simulation clock standing in for the wall clock.
package mpi

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/mem"
	"repro/internal/pack"
	"repro/internal/rtfab"
	"repro/internal/shmfab"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/verbs"
)

// Backend names for Config.Backend.
const (
	// BackendSim is the deterministic discrete-event simulator (default).
	BackendSim = "sim"
	// BackendRT is the real-time concurrent fabric: one goroutine per rank,
	// wall-clock timing, byte-identical delivery semantics.
	BackendRT = "rt"
	// BackendSHM is the shared-memory intra-node fabric: all ranks partition
	// one arena, RDMA is a CPU copy, and virtual time is deterministic like
	// the simulator's — under a cost model with zero link terms.
	BackendSHM = "shm"
)

// AllBackends lists every verbs backend a World can run on. Conformance and
// soak suites iterate over it, so a new backend cannot silently skip the
// cross-backend contract tests.
var AllBackends = []string{BackendSim, BackendRT, BackendSHM}

// Config assembles a simulated cluster.
type Config struct {
	// Ranks is the number of processes (one per simulated node).
	Ranks int
	// MemBytes is each rank's simulated memory size.
	MemBytes int64
	// Model is the fabric cost model.
	Model ib.Model
	// Core is the datatype-communication configuration.
	Core core.Config
	// Backend selects the verbs substrate: BackendSim ("" or "sim"),
	// BackendRT ("rt"), or BackendSHM ("shm"). On BackendSHM a Config whose
	// Model is still the untouched ib.DefaultModel() gets
	// shmfab.DefaultModel() substituted, so default worlds price each
	// backend with its own profile; an explicitly customized Model is always
	// honored as given.
	Backend string
	// RTTimeout bounds a BackendRT run (watchdog); zero means
	// rtfab.DefaultTimeout. Ignored by the simulator.
	RTTimeout time.Duration

	// Trace, when set, is attached to the fabric (CPU/tx/rx lanes) and to
	// every endpoint (per-message protocol spans on the msg lane). On the
	// real-time backend spans carry wall-clock timestamps; one Recorder may
	// be shared by all ranks (it is concurrency-safe).
	Trace *trace.Recorder

	// Metrics, when set, receives per-scheme latency/bandwidth histograms
	// and pool/registration gauges from every endpoint.
	Metrics *stats.Registry

	// Selector, when set (and Core.Scheme is SchemeAuto), replaces the
	// static threshold heuristic with adaptive per-message scheme selection
	// (internal/tuner). The same selector is shared by every rank's
	// endpoint, so all feedback lands in one tuning table; implementations
	// must be concurrency-safe for BackendRT.
	Selector core.SchemeSelector

	// Fault, when set, is installed as the fabric's fault injector before
	// any endpoint is built, so soak tests can run injection campaigns
	// through the mpi layer on either backend.
	Fault *fault.Injector
}

// DefaultConfig returns an 8-rank cluster with the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Ranks:    8,
		MemBytes: 256 << 20,
		Model:    ib.DefaultModel(),
		Core:     core.DefaultConfig(),
	}
}

// World is a cluster on either backend: a fabric and one endpoint per rank.
// On the simulator all ranks share one engine; on the real-time backend each
// rank's endpoint runs on its node's private engine.
type World struct {
	cfg  Config
	eng  *simtime.Engine // sim and shm (shared engine)
	fab  *ib.Fabric      // simulator only
	rt   *rtfab.Fabric   // real-time only
	shm  *shmfab.Fabric  // shared-memory only
	hcas []verbs.HCA
	eps  []*core.Endpoint
}

// NewWorld builds the cluster on the backend cfg.Backend selects.
func NewWorld(cfg Config) (*World, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("mpi: %d ranks", cfg.Ranks)
	}
	if cfg.MemBytes <= 0 {
		cfg.MemBytes = 256 << 20
	}
	if cfg.Core.UsePools {
		// Fail fast with a sizing hint instead of letting the first pool
		// allocation panic the arena: each endpoint carves two staging pools
		// out of its rank's memory before any user buffer is placed.
		if need := 2*cfg.Core.PoolSize + (1 << 20); cfg.MemBytes < need {
			return nil, fmt.Errorf(
				"mpi: MemBytes %d cannot hold two %d-byte staging pools plus workspace (need >= %d); shrink Core.PoolSize or start from ScaledConfig",
				cfg.MemBytes, cfg.Core.PoolSize, need)
		}
	}
	w := &World{cfg: cfg}
	switch cfg.Backend {
	case "", BackendSim:
		w.eng = simtime.NewEngine()
		w.fab = ib.NewFabric(w.eng, cfg.Model)
		if cfg.Trace != nil {
			w.fab.SetTracer(cfg.Trace)
		}
		if cfg.Fault != nil {
			w.fab.SetInjector(cfg.Fault)
		}
	case BackendRT:
		w.rt = rtfab.New(cfg.Model)
		if cfg.Trace != nil {
			w.rt.SetTracer(cfg.Trace)
		}
		if cfg.Fault != nil {
			w.rt.SetInjector(cfg.Fault)
		}
	case BackendSHM:
		if cfg.Model == ib.DefaultModel() {
			// The default Model is the IB testbed; a shared-memory world
			// with an untouched default gets the zero-link profile instead.
			cfg.Model = shmfab.DefaultModel()
			w.cfg.Model = cfg.Model
		}
		w.eng = simtime.NewEngine()
		w.shm = shmfab.New(w.eng, cfg.Model, cfg.Ranks, cfg.MemBytes)
		if cfg.Trace != nil {
			w.shm.SetTracer(cfg.Trace)
		}
		if cfg.Fault != nil {
			w.shm.SetInjector(cfg.Fault)
		}
	default:
		return nil, fmt.Errorf("mpi: unknown backend %q", cfg.Backend)
	}
	ccfg := cfg.Core
	if cfg.Trace != nil {
		ccfg.Tracer = cfg.Trace
	}
	if cfg.Metrics != nil {
		ccfg.Metrics = cfg.Metrics
	}
	if cfg.Selector != nil {
		ccfg.Selector = cfg.Selector
	}
	if w.rt != nil && ccfg.TraceClock == nil {
		// Real-time backend: spans and histograms measure real elapsed time.
		ccfg.TraceClock = w.rt.WallClock
	}
	if ccfg.PackExecutor == nil {
		if w.rt != nil {
			// Real-time backend: parallel pack shards run on real goroutines.
			ccfg.PackExecutor = pack.GoExec{}
		} else {
			// Simulator: shards are copied serially on the driving goroutine —
			// output stays byte-identical at any worker count — while the cost
			// model prices the fan-out in deterministic virtual time.
			ccfg.PackExecutor = pack.SerialExec{}
		}
	}
	for i := 0; i < cfg.Ranks; i++ {
		name := fmt.Sprintf("rank%d", i)
		var hca verbs.HCA
		switch {
		case w.fab != nil:
			hca = w.fab.AddHCA(name, mem.NewMemory(name, cfg.MemBytes), nil)
		case w.rt != nil:
			hca = w.rt.AddNode(name, mem.NewMemory(name, cfg.MemBytes), nil)
		default:
			// Shared-memory backend: the fabric carves the rank's partition
			// out of the one shared arena.
			hca = w.shm.AddNode(name, nil)
		}
		w.hcas = append(w.hcas, hca)
		ep, err := core.NewEndpoint(i, hca, ccfg)
		if err != nil {
			return nil, err
		}
		w.eps = append(w.eps, ep)
	}
	core.ConnectPeers(w.eps)
	return w, nil
}

// Backend reports which backend the world runs on.
func (w *World) Backend() string {
	switch {
	case w.rt != nil:
		return BackendRT
	case w.shm != nil:
		return BackendSHM
	}
	return BackendSim
}

// Engine returns the shared simulation engine (sim and shm backends), or nil
// on the real-time backend (where each rank owns a private engine).
func (w *World) Engine() *simtime.Engine { return w.eng }

// SHM returns the shared-memory fabric, or nil on the other backends.
func (w *World) SHM() *shmfab.Fabric { return w.shm }

// Fabric returns the simulated interconnect (e.g. to attach a tracer), or
// nil on the real-time backend.
func (w *World) Fabric() *ib.Fabric { return w.fab }

// Endpoint returns rank i's communication engine (for counter inspection).
func (w *World) Endpoint(i int) *core.Endpoint { return w.eps[i] }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.eps) }

// ClockNs returns the cluster clock in nanoseconds: virtual engine time on
// the simulator, wall-clock time since fabric start on the real-time
// backend. Deltas of ClockNs are the same timebase the trace spans and
// latency histograms use, so workload generators can stamp per-message
// latencies that line up with the rest of the instrumentation.
func (w *World) ClockNs() int64 {
	if w.rt != nil {
		return int64(w.rt.WallClock())
	}
	return int64(w.eng.Now())
}

// Run executes body once per rank — concurrently in virtual time on the
// simulator, concurrently on the wall clock on the real-time backend — and
// drives the cluster to completion. It returns the first body error, a
// deadlock/watchdog error, or nil.
func (w *World) Run(body func(p *Proc) error) error {
	errs := make([]error, len(w.eps))
	for i, ep := range w.eps {
		i, ep := i, ep
		w.hcas[i].Engine().Spawn(fmt.Sprintf("rank%d", i), func(sp *simtime.Process) {
			errs[i] = body(&Proc{ep: ep, sp: sp, w: w, nextCtx: 1})
		})
	}
	var err error
	if w.rt != nil {
		err = w.rt.Run(w.cfg.RTTimeout)
	} else {
		err = w.eng.Run()
	}
	if err != nil {
		// A rank failing early often strands its peers: surface both the
		// fabric's deadlock report and the body errors that caused it.
		return errors.Join(append([]error{err}, errs...)...)
	}
	return errors.Join(errs...)
}

// Proc is one rank's view of the world inside Run.
type Proc struct {
	ep *core.Endpoint
	sp *simtime.Process
	w  *World

	worldComm *Comm
	nextCtx   int
}

// Rank returns this process's rank.
func (p *Proc) Rank() int { return p.ep.Rank() }

// Size returns the number of ranks.
func (p *Proc) Size() int { return p.w.Size() }

// Mem returns the rank's simulated memory.
func (p *Proc) Mem() *mem.Memory { return p.ep.Mem() }

// Endpoint exposes the underlying communication engine.
func (p *Proc) Endpoint() *core.Endpoint { return p.ep }

// Now returns the current virtual time.
func (p *Proc) Now() simtime.Time { return p.sp.Now() }

// Compute models local computation for d of virtual time.
func (p *Proc) Compute(d simtime.Duration) { p.sp.Sleep(d) }

// Send sends (buf, count, dt) to dst with tag and blocks until the send
// buffer is reusable.
func (p *Proc) Send(buf mem.Addr, count int, dt *datatype.Type, dst, tag int) error {
	return p.ep.Send(p.sp, buf, count, dt, dst, tag)
}

// Recv blocks until a matching message lands in (buf, count, dt) and returns
// its envelope. Like Send it never hands out a request: the one it posts is
// released when it completes.
func (p *Proc) Recv(buf mem.Addr, count int, dt *datatype.Type, src, tag int) (core.Status, error) {
	return p.ep.Recv(p.sp, buf, count, dt, src, tag)
}

// Isend starts a nonblocking send.
func (p *Proc) Isend(buf mem.Addr, count int, dt *datatype.Type, dst, tag int) *core.Request {
	return p.ep.Isend(buf, count, dt, dst, tag)
}

// Ssend is the blocking synchronous-mode send: completion implies the
// matching receive was posted (always rendezvous).
func (p *Proc) Ssend(buf mem.Addr, count int, dt *datatype.Type, dst, tag int) error {
	return p.ep.Ssend(p.sp, buf, count, dt, dst, tag)
}

// Irecv starts a nonblocking receive.
func (p *Proc) Irecv(buf mem.Addr, count int, dt *datatype.Type, src, tag int) *core.Request {
	return p.ep.Irecv(buf, count, dt, src, tag)
}

// Wait blocks until every request completes and returns the first error, in
// list order. The rank parks once, whatever the number of requests, and
// resumes when the last of them completes (core.WaitAll). The requests must
// be this rank's; nil entries are skipped. As MPI_Waitall sets every handle
// to MPI_REQUEST_NULL, Wait releases every request to its endpoint and sets
// its entry to nil (core.WaitRelease): a handle must not be used after the
// Wait that completed it, and a handle listed twice is released once.
func (p *Proc) Wait(reqs ...*core.Request) error {
	return core.WaitRelease(p.sp, reqs...)
}

// WaitAny blocks until at least one of the requests completes and returns
// its index (the lowest, if several completed together) and its error; -1
// when every entry is nil. Only a completion among reqs wakes the rank: a
// request posted while it waits, from an event handler, is not in the set
// (core.WaitAny). As MPI_Waitany does, it releases the completed request and
// sets reqs[i] to nil (every entry holding it, if it is listed twice); the
// other requests stay live.
func (p *Proc) WaitAny(reqs ...*core.Request) (int, error) {
	i := core.WaitAny(p.sp, reqs...)
	if i < 0 {
		return i, nil
	}
	r := reqs[i]
	for j := i; j < len(reqs); j++ {
		if reqs[j] == r {
			reqs[j] = nil
		}
	}
	err := r.Err
	r.Free()
	return i, err
}

// Sendrecv runs a send and a receive concurrently and waits for both.
func (p *Proc) Sendrecv(
	sbuf mem.Addr, scount int, stype *datatype.Type, dst, stag int,
	rbuf mem.Addr, rcount int, rtype *datatype.Type, src, rtag int,
) error {
	rr := p.Irecv(rbuf, rcount, rtype, src, rtag)
	sr := p.Isend(sbuf, scount, stype, dst, stag)
	return p.Wait(rr, sr)
}

// Probe blocks until a message matching (src, tag) arrives, without
// receiving it, and returns its envelope.
func (p *Proc) Probe(src, tag int) core.Status {
	return p.ep.Probe(p.sp, src, tag)
}

// Iprobe checks for a matching message without blocking or receiving.
func (p *Proc) Iprobe(src, tag int) (core.Status, bool) {
	return p.ep.Iprobe(src, tag)
}

// The collective operations on Proc operate over the world communicator;
// use World().Split to build sub-communicators and call the same methods on
// them.

// Barrier synchronizes all ranks.
func (p *Proc) Barrier() error { return p.World().Barrier() }

// Bcast broadcasts from root over the world communicator.
func (p *Proc) Bcast(buf mem.Addr, count int, dt *datatype.Type, root int) error {
	return p.World().Bcast(buf, count, dt, root)
}

// Gather gathers to root over the world communicator.
func (p *Proc) Gather(sbuf mem.Addr, scount int, stype *datatype.Type,
	rbuf mem.Addr, rcount int, rtype *datatype.Type, root int) error {
	return p.World().Gather(sbuf, scount, stype, rbuf, rcount, rtype, root)
}

// Scatter distributes from root over the world communicator.
func (p *Proc) Scatter(sbuf mem.Addr, scount int, stype *datatype.Type,
	rbuf mem.Addr, rcount int, rtype *datatype.Type, root int) error {
	return p.World().Scatter(sbuf, scount, stype, rbuf, rcount, rtype, root)
}

// Allgather gathers everywhere over the world communicator.
func (p *Proc) Allgather(sbuf mem.Addr, scount int, stype *datatype.Type,
	rbuf mem.Addr, rcount int, rtype *datatype.Type) error {
	return p.World().Allgather(sbuf, scount, stype, rbuf, rcount, rtype)
}

// Alltoall exchanges blocks over the world communicator.
func (p *Proc) Alltoall(sbuf mem.Addr, scount int, stype *datatype.Type,
	rbuf mem.Addr, rcount int, rtype *datatype.Type) error {
	return p.World().Alltoall(sbuf, scount, stype, rbuf, rcount, rtype)
}

// Alltoallv is the vector Alltoall over the world communicator.
func (p *Proc) Alltoallv(sbuf mem.Addr, scounts, sdispls []int, stype *datatype.Type,
	rbuf mem.Addr, rcounts, rdispls []int, rtype *datatype.Type) error {
	return p.World().Alltoallv(sbuf, scounts, sdispls, stype, rbuf, rcounts, rdispls, rtype)
}

// Gatherv gathers variable contributions over the world communicator.
func (p *Proc) Gatherv(sbuf mem.Addr, scount int, stype *datatype.Type,
	rbuf mem.Addr, rcounts, rdispls []int, rtype *datatype.Type, root int) error {
	return p.World().Gatherv(sbuf, scount, stype, rbuf, rcounts, rdispls, rtype, root)
}

// Scatterv scatters variable pieces over the world communicator.
func (p *Proc) Scatterv(sbuf mem.Addr, scounts, sdispls []int, stype *datatype.Type,
	rbuf mem.Addr, rcount int, rtype *datatype.Type, root int) error {
	return p.World().Scatterv(sbuf, scounts, sdispls, stype, rbuf, rcount, rtype, root)
}

// Reduce combines to root over the world communicator.
func (p *Proc) Reduce(sbuf, rbuf mem.Addr, count int, op Op, root int) error {
	return p.World().Reduce(sbuf, rbuf, count, op, root)
}

// Allreduce combines everywhere over the world communicator.
func (p *Proc) Allreduce(sbuf, rbuf mem.Addr, count int, op Op) error {
	return p.World().Allreduce(sbuf, rbuf, count, op)
}
