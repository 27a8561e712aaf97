package pack

import (
	"runtime"
	"sync"

	"repro/internal/datatype"
	"repro/internal/mem"
)

// This file is the parallel segment engine: pack/unpack of one segment split
// across N worker shards. The run list is collected sequentially from the
// (stateful) datatype cursor — a cheap metadata walk — and only the copies
// fan out, so the staging bytes produced are identical for every worker
// count and every Executor. On the simulator the SerialExec keeps execution
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
		if e.prog != nil {
			if b := e.pc.NextBatch(want - n); b.K > 0 {
				for j := 0; j < b.K; j++ {
					off, k := b.Run(j)
					refs = append(refs, runRef{addr: addrAt(e.base, off), off: n, n: k})
					n += k
				}
				continue
			}
		}
		off, k, ok := e.next(want - n)
		if !ok {
			break
		}
		refs = append(refs, runRef{addr: addrAt(e.base, off), off: n, n: k})
		n += k
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

// ParallelPacker is a Packer whose per-step copies fan out across worker
// shards (the parallel segment engine). With Workers <= 1 or a nil Executor
// it behaves exactly like the serial Packer.
type ParallelPacker struct {
	Packer
	opt Par

	// Reusable per-step state: once warm, a Pack step allocates nothing.
	// The pre-built task closures read shards/dst through the receiver, so
	// they are created once per shard index and reused across steps.
	refs   []runRef
	shards [][]runRef
	stats  []ShardStat
	tasks  []func()
	dst    []byte
}

// task returns the reusable copy closure for shard index i, creating the
// missing closures on first use of that fan-out width.
func (p *ParallelPacker) task(i int) func() {
	for len(p.tasks) <= i {
		j := len(p.tasks)
		p.tasks = append(p.tasks, func() {
			for _, r := range p.shards[j] {
				copy(p.dst[r.off:r.off+r.n], p.mem.Bytes(r.addr, r.n))
			}
		})
	}
	return p.tasks[i]
}

// NewParallelPacker creates a parallel packer over the message
// (base, count, t) in m using the interpreted cursor walk.
func NewParallelPacker(m *mem.Memory, base mem.Addr, t *datatype.Type, count int, opt Par) *ParallelPacker {
	p := &ParallelPacker{opt: opt}
	p.BindInterpreted(m, base, t, count)
	return p
}

// NewParallelProgramPacker creates a parallel packer over the message
// (base, prog) in m that replays the compiled layout program.
func NewParallelProgramPacker(m *mem.Memory, base mem.Addr, prog *datatype.Program, opt Par) *ParallelPacker {
	p := &ParallelPacker{opt: opt}
	p.Bind(m, base, prog)
	return p
}

// SetPar sets the fan-out configuration of a packer that lives by value in
// a longer-lived record and is re-armed per message with Bind.
func (p *ParallelPacker) SetPar(opt Par) { p.opt = opt }

// Pack fills dst with the next len(dst) bytes of the message (or fewer if
// the message ends), splitting the copies across worker shards, and reports
// totals plus the per-shard split.
func (p *ParallelPacker) Pack(dst []byte) ParStats {
	if !p.opt.parallel() || int64(len(dst)) < 2*p.opt.minShard() {
		n, runs := p.PackTo(dst)
		p.stats = append(p.stats[:0], ShardStat{Bytes: n, Runs: runs})
		return ParStats{Bytes: n, Runs: runs, Shards: p.stats}
	}
	refs, n := p.collectRuns(int64(len(dst)), p.refs[:0])
	p.refs = refs
	p.shards = shardRuns(refs, n, p.opt.Workers, p.opt.minShard(), p.shards[:0])
	p.stats = p.stats[:0]
	p.dst = dst
	for i, sh := range p.shards {
		var b int64
		for _, r := range sh {
			b += r.n
		}
		p.stats = append(p.stats, ShardStat{Bytes: b, Runs: len(sh)})
		p.task(i)
	}
	p.opt.Exec.Run(p.tasks[:len(p.shards)])
	p.dst = nil
	return ParStats{Bytes: n, Runs: len(refs), Shards: p.stats}
}

// ParallelUnpacker is an Unpacker whose per-step copies fan out across
// worker shards. With Workers <= 1 or a nil Executor it behaves exactly like
// the serial Unpacker.
type ParallelUnpacker struct {
	Unpacker
	opt Par

	// Reusable per-step state, mirroring ParallelPacker.
	refs   []runRef
	shards [][]runRef
	stats  []ShardStat
	tasks  []func()
	src    []byte
}

// task returns the reusable copy closure for shard index i, creating the
// missing closures on first use of that fan-out width.
func (u *ParallelUnpacker) task(i int) func() {
	for len(u.tasks) <= i {
		j := len(u.tasks)
		u.tasks = append(u.tasks, func() {
			for _, r := range u.shards[j] {
				copy(u.mem.Bytes(r.addr, r.n), u.src[r.off:r.off+r.n])
			}
		})
	}
	return u.tasks[i]
}

// NewParallelUnpacker creates a parallel unpacker over the message
// (base, count, t) in m using the interpreted cursor walk.
func NewParallelUnpacker(m *mem.Memory, base mem.Addr, t *datatype.Type, count int, opt Par) *ParallelUnpacker {
	u := &ParallelUnpacker{opt: opt}
	u.BindInterpreted(m, base, t, count)
	return u
}

// NewParallelProgramUnpacker creates a parallel unpacker over the message
// (base, prog) in m that replays the compiled layout program.
func NewParallelProgramUnpacker(m *mem.Memory, base mem.Addr, prog *datatype.Program, opt Par) *ParallelUnpacker {
	u := &ParallelUnpacker{opt: opt}
	u.Bind(m, base, prog)
	return u
}

// SetPar is ParallelPacker.SetPar for unpackers.
func (u *ParallelUnpacker) SetPar(opt Par) { u.opt = opt }

// Unpack scatters src into the next len(src) bytes' worth of message
// positions, splitting the copies across worker shards, and reports totals
// plus the per-shard split.
func (u *ParallelUnpacker) Unpack(src []byte) ParStats {
	if !u.opt.parallel() || int64(len(src)) < 2*u.opt.minShard() {
		n, runs := u.UnpackFrom(src)
		u.stats = append(u.stats[:0], ShardStat{Bytes: n, Runs: runs})
		return ParStats{Bytes: n, Runs: runs, Shards: u.stats}
	}
	refs, n := u.collectRuns(int64(len(src)), u.refs[:0])
	u.refs = refs
	u.shards = shardRuns(refs, n, u.opt.Workers, u.opt.minShard(), u.shards[:0])
	u.stats = u.stats[:0]
	u.src = src
	for i, sh := range u.shards {
		var b int64
		for _, r := range sh {
			b += r.n
		}
		u.stats = append(u.stats, ShardStat{Bytes: b, Runs: len(sh)})
		u.task(i)
	}
	u.opt.Exec.Run(u.tasks[:len(u.shards)])
	u.src = nil
	return ParStats{Bytes: n, Runs: len(refs), Shards: u.stats}
}
