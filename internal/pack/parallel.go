package pack

import (
	"runtime"
	"sync"

	"repro/internal/datatype"
	"repro/internal/mem"
)

// This file is the parallel segment engine: pack/unpack of one segment split
// across N worker shards. The run list is collected sequentially from the
// (stateful) program cursor — a cheap metadata walk — and only the copies
// fan out, so the staging bytes produced are identical for every worker
// count and every Executor. One engine serves both directions; like the
// serial one it takes the direction as a flag. On the simulator the SerialExec keeps execution
// single-threaded and deterministic while the cost model charges the
// max-over-shards copy time; on the real-time fabric GoExec uses real
// goroutines and real copy().

// DefaultMinShard is the smallest worker shard worth fanning out: below
// ~32 KB per worker, goroutine dispatch costs more than the copy it saves.
const DefaultMinShard = 32 << 10

// Executor runs a batch of independent copy tasks and returns when all of
// them have finished. Tasks touch pairwise-disjoint memory, so an Executor
// may run them in any order or concurrently.
type Executor interface {
	Run(tasks []func())
}

// SerialExec runs tasks in order on the calling goroutine. It is the
// deterministic executor of the simulator backend: byte-identical output and
// no real concurrency, while the caller charges modeled fan-out cost.
type SerialExec struct{}

// Run executes the tasks sequentially.
func (SerialExec) Run(tasks []func()) {
	for _, t := range tasks {
		t()
	}
}

// GoExec fans tasks out across real goroutines and joins them before
// returning. It is the real-time backend's executor. Fan-out is capped at
// the host's CPU count: goroutines beyond the cores they could run on buy
// no copy bandwidth and cost scheduling churn, so on a single-core host the
// tasks run inline (the shard *statistics* — and thus the cost model — are
// unchanged; only the execution strategy adapts).
type GoExec struct{}

// Run executes the tasks concurrently (at most NumCPU at once) and waits
// for all of them.
func (GoExec) Run(tasks []func()) {
	lanes := runtime.NumCPU()
	if lanes > len(tasks) {
		lanes = len(tasks)
	}
	if lanes <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(lanes - 1)
	for l := 1; l < lanes; l++ {
		go func(l int) {
			defer wg.Done()
			for i := l; i < len(tasks); i += lanes {
				tasks[i]()
			}
		}(l)
	}
	for i := 0; i < len(tasks); i += lanes {
		tasks[i]()
	}
	wg.Wait()
}

// ShardStat describes one worker's share of a parallel pack or unpack.
type ShardStat struct {
	Bytes int64
	Runs  int
}

// ParStats reports one parallel pack/unpack step: the totals (identical to
// what the serial engine would report) plus the per-shard split the cost
// model and the utilization histograms consume. len(Shards) == 1 means the
// step ran serially. Shards aliases the engine's reusable buffer and is
// only valid until the engine's next Pack/Unpack call; callers that keep
// it must copy.
type ParStats struct {
	Bytes  int64
	Runs   int
	Shards []ShardStat
}

// Par configures a parallel packer or unpacker.
type Par struct {
	// Workers is the shard fan-out limit; <= 1 packs serially.
	Workers int
	// Exec runs the shard copies; nil packs serially.
	Exec Executor
	// MinShard is the minimum bytes per worker shard (0 = DefaultMinShard):
	// a step smaller than 2*MinShard is not worth splitting.
	MinShard int64
}

func (o Par) minShard() int64 {
	if o.MinShard > 0 {
		return o.MinShard
	}
	return DefaultMinShard
}

// parallel reports whether this configuration ever fans out.
func (o Par) parallel() bool { return o.Workers > 1 && o.Exec != nil }

// runRef is one contiguous run of a pack/unpack step: user-buffer address,
// offset into the contiguous staging span, and length.
type runRef struct {
	addr mem.Addr
	off  int64
	n    int64
}

// collectRuns advances the layout walk by up to want bytes, appending the
// contiguous runs in layout order to refs (reusing its capacity), and
// returns the extended slice plus the bytes consumed. The run sequence is
// exactly transfer's — whole runs a batch at a time, split runs one Next
// step at a time — so the run count (and thus the modeled per-run cost) is
// identical to PackTo/UnpackFrom.
func (e *engine) collectRuns(want int64, refs []runRef) ([]runRef, int64) {
	var n int64
	for n < want {
		b := nextRuns(&e.pc, want-n)
		if b.K == 0 {
			break
		}
		for j := 0; j < b.K; j++ {
			off, k := b.Run(j)
			refs = append(refs, runRef{addr: addrAt(e.base, off), off: n, n: k})
			n += k
		}
	}
	return refs, n
}

// shardRuns partitions runs into at most workers contiguous shards of
// roughly equal byte counts without splitting a run, honoring the minimum
// shard size, appending the shards to out (reusing its capacity). The
// partition is a pure function of its inputs, so shard statistics — and
// the virtual cost derived from them — are deterministic.
func shardRuns(refs []runRef, total int64, workers int, minShard int64, out [][]runRef) [][]runRef {
	if minShard < 1 {
		// Defensive: callers normalize via Par.minShard(), but a zero
		// divisor here must never take the whole engine down.
		minShard = 1
	}
	n := workers
	if byMin := int(total / minShard); byMin < n {
		n = byMin
	}
	if n < 1 {
		n = 1
	}
	if n > len(refs) {
		n = len(refs)
	}
	if n <= 1 {
		return append(out, refs)
	}
	target := (total + int64(n) - 1) / int64(n)
	start, bytes := 0, int64(0)
	for i, r := range refs {
		bytes += r.n
		// Close the shard once it reaches its byte target, but keep enough
		// runs behind it to populate the remaining shards.
		if bytes >= target && len(out) < n-1 && len(refs)-(i+1) >= n-1-len(out) {
			out = append(out, refs[start:i+1])
			start, bytes = i+1, 0
		}
	}
	out = append(out, refs[start:])
	return out
}

// parEngine is an engine whose per-step copies fan out across worker shards.
// With Workers <= 1 or a nil Executor it behaves exactly like the serial
// engine.
type parEngine struct {
	engine
	opt Par

	// Reusable per-step state: once warm, a step allocates nothing. The
	// pre-built task closures read shards, buf and scatter through the
	// receiver, so they are created once per shard index and reused across
	// steps.
	refs    []runRef
	shards  [][]runRef
	stats   []ShardStat
	tasks   []func()
	buf     []byte
	scatter bool
}

// SetPar sets the fan-out configuration of an engine that lives by value in
// a longer-lived record and is re-armed per message with Bind, and sizes the
// per-shard statistics for it, so a step's first use does not grow them.
func (p *parEngine) SetPar(opt Par) {
	p.opt = opt
	p.stats = make([]ShardStat, 0, max(opt.Workers, 1))
}

// task returns the reusable copy closure for shard index i, creating the
// missing closures on first use of that fan-out width.
func (p *parEngine) task(i int) func() {
	for len(p.tasks) <= i {
		j := len(p.tasks)
		p.tasks = append(p.tasks, func() {
			for _, r := range p.shards[j] {
				dst, src := dir(p.scatter, p.buf[r.off:r.off+r.n], p.mem.Bytes(r.addr, r.n))
				copy(dst, src)
			}
		})
	}
	return p.tasks[i]
}

// step moves the next len(buf) bytes of the message (or fewer if the message
// ends) between the user buffer and buf, in transfer's direction, splitting
// the copies across worker shards, and reports totals plus the per-shard
// split.
func (p *parEngine) step(buf []byte, scatter bool) ParStats {
	if !p.opt.parallel() || int64(len(buf)) < 2*p.opt.minShard() {
		n, runs := p.transfer(buf, scatter)
		p.stats = append(p.stats[:0], ShardStat{Bytes: n, Runs: runs})
		return ParStats{Bytes: n, Runs: runs, Shards: p.stats}
	}
	refs, n := p.collectRuns(int64(len(buf)), p.refs[:0])
	p.refs = refs
	p.shards = shardRuns(refs, n, p.opt.Workers, p.opt.minShard(), p.shards[:0])
	p.stats = p.stats[:0]
	p.buf, p.scatter = buf, scatter
	for i, sh := range p.shards {
		var b int64
		for _, r := range sh {
			b += r.n
		}
		p.stats = append(p.stats, ShardStat{Bytes: b, Runs: len(sh)})
		p.task(i)
	}
	p.opt.Exec.Run(p.tasks[:len(p.shards)])
	p.buf = nil
	return ParStats{Bytes: n, Runs: len(refs), Shards: p.stats}
}

// ParallelPacker is a Packer on the parallel engine. The zero value is ready
// for SetPar and Bind.
type ParallelPacker struct{ parEngine }

// NewParallelProgramPacker creates a parallel packer over the message
// (base, prog) in m.
func NewParallelProgramPacker(m *mem.Memory, base mem.Addr, prog *datatype.Program, opt Par) *ParallelPacker {
	p := &ParallelPacker{}
	p.SetPar(opt)
	p.bind(m, base, prog)
	return p
}

// Pack fills dst with the next len(dst) bytes of the message (or fewer if
// the message ends) and reports totals plus the per-shard split.
func (p *ParallelPacker) Pack(dst []byte) ParStats { return p.step(dst, false) }

// ParallelUnpacker is an Unpacker on the parallel engine. The zero value is
// ready for SetPar and Bind.
type ParallelUnpacker struct{ parEngine }

// NewParallelProgramUnpacker creates a parallel unpacker over the message
// (base, prog) in m.
func NewParallelProgramUnpacker(m *mem.Memory, base mem.Addr, prog *datatype.Program, opt Par) *ParallelUnpacker {
	u := &ParallelUnpacker{}
	u.SetPar(opt)
	u.bind(m, base, prog)
	return u
}

// Unpack scatters src into the next len(src) bytes' worth of message
// positions and reports totals plus the per-shard split.
func (u *ParallelUnpacker) Unpack(src []byte) ParStats { return u.step(src, true) }
