package traffic

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// Runner drives one Spec over an mpi.World: every rank runs the same body,
// sending the flows it sources and receiving the flows it sinks. Construct
// with NewRunner, then call Run (at most once per Runner — the timestamp
// slots are single-use).
type Runner struct {
	// Spec is the workload; its Flows() expansion is computed once in Run.
	Spec Spec

	// Reg receives the per-class latency histograms (HistEager, HistBulk).
	// Nil disables latency recording.
	Reg *stats.Registry

	// OnSend, when set, is called with a message's payload buffer before
	// the send is posted, for flows with Stamp set. The hook runs in the
	// sending rank's execution context.
	OnSend func(f Flow, k int, payload []byte)

	// OnRecv, when set, is called with the receive buffer after each
	// delivery (every flow, not just stamped ones). A non-nil error fails
	// the receiving rank's body. Runs in the receiving rank's context.
	OnRecv func(f Flow, k int, payload []byte) error

	// PollTick paces the progress loop while open-loop injections are
	// pending but no request is outstanding. Defaults to 5µs.
	PollTick simtime.Duration

	flows  []Flow
	stamps [][]int64 // [flowID][msg] injection time, written once, atomically

	eagerFail atomic.Int64
	bulkFail  atomic.Int64
}

// NewRunner builds a Runner for spec, recording latencies into reg.
func NewRunner(spec Spec, reg *stats.Registry) *Runner {
	return &Runner{Spec: spec, Reg: reg, PollTick: 5 * simtime.Microsecond}
}

// Failures reports per-class request failures observed so far (sender and
// receiver sides both count, so one dead transfer may count twice).
func (r *Runner) Failures() (eager, bulk int64) {
	return r.eagerFail.Load(), r.bulkFail.Load()
}

// Flows returns the expanded flow list (valid after Run starts).
func (r *Runner) Flows() []Flow { return r.flows }

// Run expands the spec and executes the workload on w, blocking until every
// flow has fully drained on every rank.
func (r *Runner) Run(w *mpi.World) error {
	r.flows = r.Spec.Flows()
	r.stamps = make([][]int64, len(r.flows))
	for i, f := range r.flows {
		if f.Src == f.Dst {
			return fmt.Errorf("traffic: flow %d is a self-message", f.ID)
		}
		if f.Src >= w.Size() || f.Dst >= w.Size() {
			return fmt.Errorf("traffic: flow %d names rank beyond world size %d", f.ID, w.Size())
		}
		r.stamps[i] = make([]int64, f.Count)
	}
	return w.Run(func(p *mpi.Proc) error { return r.rank(w, p) })
}

// outReq is one in-flight request the progress loop is tracking.
type outReq struct {
	req    *core.Request
	fs     *flowState
	isRecv bool
	k      int
}

type flowState struct {
	f      Flow
	dt     *datatype.Type
	count  int
	extent int64
	buf    mem.Addr   // single reused buffer (receiver, unstamped sender)
	bufs   []mem.Addr // per-message buffers for stamped flows
	next   int        // next message index to post
}

func (fs *flowState) sendBuf(k int) mem.Addr {
	if fs.bufs != nil {
		return fs.bufs[k]
	}
	return fs.buf
}

// rank is the per-rank workload body.
func (r *Runner) rank(w *mpi.World, p *mpi.Proc) error {
	nComms := r.Spec.Comms
	if nComms < 1 {
		nComms = 1
	}
	comms := make([]*mpi.Comm, nComms)
	comms[0] = p.World()
	for i := 1; i < nComms; i++ {
		c, err := comms[0].Dup()
		if err != nil {
			return fmt.Errorf("traffic: dup comm %d: %w", i, err)
		}
		comms[i] = c
	}

	m := p.Mem()
	var sends, recvs []*flowState
	for _, f := range r.flows {
		if f.Src != p.Rank() && f.Dst != p.Rank() {
			continue
		}
		dt, count, extent := shape(f)
		fs := &flowState{f: f, dt: dt, count: count, extent: extent}
		if f.Src == p.Rank() {
			if f.Stamp {
				fs.bufs = make([]mem.Addr, f.Count)
				for k := range fs.bufs {
					a, err := m.Alloc(extent)
					if err != nil {
						return fmt.Errorf("traffic: flow %d send buf %d: %w", f.ID, k, err)
					}
					fill(m, a, extent, f.ID)
					fs.bufs[k] = a
				}
			} else {
				a, err := m.Alloc(extent)
				if err != nil {
					return fmt.Errorf("traffic: flow %d send buf: %w", f.ID, err)
				}
				// Open-loop flows may have several messages of this buffer
				// in flight at once; the payload is written exactly once,
				// here, and only read afterwards.
				fill(m, a, extent, f.ID)
				fs.buf = a
			}
			sends = append(sends, fs)
		} else {
			a, err := m.Alloc(extent)
			if err != nil {
				return fmt.Errorf("traffic: flow %d recv buf: %w", f.ID, err)
			}
			fs.buf = a
			recvs = append(recvs, fs)
		}
	}

	// Everyone finishes communicator setup before traffic starts, so the
	// first open-loop injections race real receivers, not setup.
	if err := p.Barrier(); err != nil {
		return err
	}

	var outs []*outReq
	postSend := func(fs *flowState) {
		k := fs.next
		fs.next++
		buf := fs.sendBuf(k)
		if r.OnSend != nil && fs.f.Stamp {
			r.OnSend(fs.f, k, m.Bytes(buf, fs.extent))
		}
		atomic.StoreInt64(&r.stamps[fs.f.ID][k], w.ClockNs())
		req := comms[fs.f.Comm].Isend(buf, fs.count, fs.dt, fs.f.Dst, fs.f.ID)
		outs = append(outs, &outReq{req: req, fs: fs, k: k})
	}
	postRecv := func(fs *flowState) {
		k := fs.next
		fs.next++
		req := comms[fs.f.Comm].Irecv(fs.buf, fs.count, fs.dt, fs.f.Src, fs.f.ID)
		outs = append(outs, &outReq{req: req, fs: fs, isRecv: true, k: k})
	}

	// Receivers keep exactly one receive posted per inbound flow; senders
	// start closed-loop flows now and put open-loop flows on the injection
	// timer. Injection callbacks run in this node's engine context, which
	// is serialized with this process, so they may touch outs directly.
	for _, fs := range recvs {
		postRecv(fs)
	}
	openLeft := 0
	eng := p.Endpoint().Engine()
	for _, fs := range sends {
		if fs.f.Closed {
			postSend(fs)
			continue
		}
		openLeft += fs.f.Count
		fs := fs
		gap := simtime.Duration(fs.f.GapNs)
		if gap <= 0 {
			gap = simtime.Microsecond
		}
		var inject func()
		inject = func() {
			postSend(fs)
			openLeft--
			if fs.next < fs.f.Count {
				eng.Schedule(gap, inject)
			}
		}
		eng.Schedule(gap, inject)
	}

	classFail := func(f Flow) {
		if f.Bulk {
			r.bulkFail.Add(1)
		} else {
			r.eagerFail.Add(1)
		}
	}

	var reqs []*core.Request
	for {
		if len(outs) == 0 {
			if openLeft == 0 {
				break
			}
			// Open-loop injections still pending: let engine time advance.
			p.Compute(r.pollTick())
			continue
		}
		reqs = reqs[:0]
		for _, o := range outs {
			reqs = append(reqs, o.req)
		}
		// WaitAny releases the request it completed: o.req is dead from here.
		i, err := p.WaitAny(reqs...)
		o := outs[i]
		outs = append(outs[:i], outs[i+1:]...)
		if err != nil {
			classFail(o.fs.f)
		}
		if o.isRecv {
			if err == nil {
				if o.k >= o.fs.f.Warmup {
					t0 := atomic.LoadInt64(&r.stamps[o.fs.f.ID][o.k])
					lat := w.ClockNs() - t0
					if lat < 0 {
						lat = 0
					}
					r.histFor(o.fs.f).Observe(lat)
				}
				if r.OnRecv != nil {
					if err := r.OnRecv(o.fs.f, o.k, m.Bytes(o.fs.buf, o.fs.extent)); err != nil {
						return err
					}
				}
			}
			if o.fs.next < o.fs.f.Count {
				postRecv(o.fs)
			}
			continue
		}
		if o.fs.f.Closed && o.fs.next < o.fs.f.Count {
			postSend(o.fs)
		}
	}
	return nil
}

func (r *Runner) pollTick() simtime.Duration {
	if r.PollTick > 0 {
		return r.PollTick
	}
	return 5 * simtime.Microsecond
}

func (r *Runner) histFor(f Flow) *stats.Histogram {
	if r.Reg == nil {
		return nil
	}
	if f.Bulk {
		return r.Reg.Histogram(HistBulk)
	}
	return r.Reg.Histogram(HistEager)
}

// AggregateCounters sums every rank's counters into one snapshot.
func AggregateCounters(w *mpi.World) stats.Counters {
	var total stats.Counters
	for i := 0; i < w.Size(); i++ {
		snap := w.Endpoint(i).Counters().Snapshot()
		total.Add(&snap)
	}
	return total
}
