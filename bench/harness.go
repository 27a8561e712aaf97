package main

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// backends are the three verbs substrates every workload runs on, in the
// order the legs run.
var backends = []string{mpi.BackendSim, mpi.BackendSHM, mpi.BackendRT}

const (
	// segments is the number of equal segments a leg's samples are cut
	// into. A timing metric is the median over segments of the segment's
	// percentile; the inter-quartile range over segments is its spread.
	segments = 7
	// A leg of an end-to-end run is set up setupReps times at least, and as
	// often as fits setupBudget up to maxSetupReps: set-up time is the lower
	// quartile over the set-ups, and a 30 ms set-up needs more of them than a
	// 300 ms one before bursts of interference stop deciding it.
	setupReps    = 5
	maxSetupReps = 15
	setupBudget  = time.Second
	// rtWatchdog bounds one real-time leg. A leg is a few seconds; a wedged
	// fabric must fail the run, not hang it.
	rtWatchdog = 120 * time.Second
)

// program is one workload instantiated for one leg: a world configuration,
// a per-rank set-up that returns the rank's op, and the harness hooks that
// run on rank 0 only, outside the timed interval.
type program struct {
	cfg mpi.Config
	// rank runs once per rank inside World.Run: it allocates and fills the
	// rank's buffers, builds its types, and returns the op — the work one
	// timed interval covers on that rank.
	rank func(t *port) (op func(k int) error, err error)
	// prepare stamps op k's payload and generates its inputs. It runs before
	// the barrier that opens the op, so every rank sees its effects.
	prepare func(k int)
	// verify checks every buffer op k delivered into — on any rank: the
	// harness owns the whole process — against the oracle, scrubs them, and
	// returns how many were wrong.
	verify func(k int) (bad int)
}

// legSpec says how to run one leg.
type legSpec struct {
	wl       *workload
	backend  string
	seed     uint64
	ops      int  // timed ops: a fixed count, so op counts and virtual time repeat exactly
	warm     int  // untimed, verified ops before the first timed one
	reps     int  // set-ups at least (the middle one is measured)
	adaptive bool // as many more set-ups as fit setupBudget, up to maxSetupReps
	manual   bool // MPI_Pack + contiguous send instead of datatype communication
	rec      *trace.Recorder
	reg      *stats.Registry
	spans    *spanLog
	quiet    *quiet
	quick    bool // tests: see options.quick
}

// spread is a timing metric over the segments of a leg.
type spread struct {
	q1, med, iqr float64
}

// legResult is everything one leg measured.
type legResult struct {
	backend   string
	ranks     int
	ops       int // timed ops
	setupS    float64
	mean      spread  // wall µs per op, quiet ops only
	p50, p90  spread  //
	p99       spread  //
	quietFrac float64 // share of the timed ops the timing metrics use
	disturbed bool    // fewer than minQuiet of the ops were quiet: the quietest minQuiet stand in
	modelUS   float64 // virtual µs per op (sim, shm)
	allocs    float64 // heap objects allocated per op over the measured leg
	gcs       uint32  // collections during the measured leg
	legS      float64 // wall seconds of the measured phase, harness work included
	attempted int     // ops run, warm-up included
	failed    int     // ops that errored, timed out or delivered wrong bytes
	err       error

	// Traced legs only.
	ctr     stats.Counters // all ranks, summed over the timed intervals
	events  int64          // trace.Recorder events of the measured phase
	utilCPU float64        // mean modeled lane utilisation over ranks
	utilTx  float64
	utilRx  float64
}

// The gauge. The reference machine is a two-vCPU guest whose cores slow by
// 1.7x for a second or two at a time (a plain copy loop shows it; the kernel
// reports no steal), often for a third of a run. A median over such a run is
// a coin toss between two modes. So ranks 0 and 1 time a small fixed piece of
// CPU work before each op; an op counts towards the timing metrics only if
// the readings on both sides of it are within gaugeSlack of the fastest
// readings the process has taken. Counts, virtual time and allocations use
// every op.

const (
	gaugeRuns  = 4096 // 4-byte strided copies, ~9 µs
	gaugeSlack = 1.10
	// minQuiet is the share of a leg's ops the timing metrics use at least,
	// however disturbed the leg.
	minQuiet = 0.1
)

// quiet collects the gauge readings of a run — legs and probes alike — and
// judges a reading against the fastest of them: the machine undisturbed.
// (The fastest five hundredth, so that one freak reading cannot lower it.)
type quiet struct {
	readings []int64
	floor    int64 // 0.002 quantile of readings; 0 when stale
}

func (q *quiet) note(reading int64) {
	q.readings = append(q.readings, reading)
	q.floor = 0
}

// limit is the largest reading that still counts as quiet.
func (q *quiet) limit() int64 {
	if q.floor == 0 && len(q.readings) > 0 {
		sorted := slices.Clone(q.readings)
		slices.Sort(sorted)
		q.floor = quantile(sorted, 0.002)
	}
	return int64(float64(q.floor) * gaugeSlack)
}

func (q *quiet) ok(reading int64) bool { return reading <= q.limit() }

type gauge struct{ src, dst []byte }

func newGauge() *gauge {
	return &gauge{src: make([]byte, gaugeRuns*16), dst: make([]byte, gaugeRuns*4)}
}

// read times the gauge's fixed work, in nanoseconds.
func (g *gauge) read() int64 {
	t0 := time.Now()
	for i := 0; i < gaugeRuns; i++ {
		copy(g.dst[i*4:i*4+4], g.src[i*16:i*16+4])
	}
	return int64(time.Since(t0))
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) int64 {
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quartiles returns the quartiles of xs by linear interpolation (xs is
// sorted in place).
func quartiles(xs []float64) spread {
	slices.Sort(xs)
	at := func(q float64) float64 {
		pos := q * float64(len(xs)-1)
		i := int(pos)
		if i+1 >= len(xs) {
			return xs[len(xs)-1]
		}
		return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
	}
	return spread{q1: at(0.25), med: at(0.5), iqr: at(0.75) - at(0.25)}
}

// meter is rank 0's measuring state for one leg. Everything it appends to is
// allocated before the first timed op, so the harness adds no heap objects
// to the allocation count it reports.
type meter struct {
	wall   []int64 // wall ns of every timed op
	gauge  []int64 // worst reading over ranks before each op, and one after the last
	virtNs int64
	ms     runtime.MemStats
}

func newMeter(ops int) *meter {
	return &meter{wall: make([]int64, 0, ops), gauge: make([]int64, 0, ops+1)}
}

func (m *meter) mallocs() uint64 {
	runtime.ReadMemStats(&m.ms)
	return m.ms.Mallocs
}

// timings keeps the quiet ops, cuts them into segments and reduces them. An
// op is quiet if the worse of the readings on either side of it is within
// the run's limit — or, on a leg so disturbed that fewer than minQuiet of
// its ops are, if it is among the quietest minQuiet.
func (m *meter) timings(q *quiet, res *legResult) {
	for _, g := range m.gauge {
		q.note(g)
	}
	around := make([]int64, len(m.wall))
	for i := range m.wall {
		around[i] = max(m.gauge[i], m.gauge[i+1])
	}
	sorted := slices.Clone(around)
	slices.Sort(sorted)
	limit := q.limit()
	if floor := quantile(sorted, minQuiet); floor > limit {
		limit, res.disturbed = floor, true
	}
	kept := make([]int64, 0, len(m.wall))
	for i, w := range m.wall {
		if around[i] <= limit {
			kept = append(kept, w)
		}
	}
	res.quietFrac = float64(len(kept)) / float64(len(m.wall))
	var mean, p50, p90, p99 []float64
	n := max(len(kept)/segments, 1)
	for lo := 0; lo+n <= len(kept); lo += n {
		seg := kept[lo : lo+n]
		var sum int64
		for _, w := range seg {
			sum += w
		}
		mean = append(mean, float64(sum)/float64(n)/1e3)
		slices.Sort(seg)
		p50 = append(p50, float64(quantile(seg, 0.50))/1e3)
		p90 = append(p90, float64(quantile(seg, 0.90))/1e3)
		p99 = append(p99, float64(quantile(seg, 0.99))/1e3)
	}
	res.mean, res.p50, res.p90, res.p99 = quartiles(mean), quartiles(p50), quartiles(p90), quartiles(p99)
}

// runLeg sets the leg up repeatedly and measures the middle set-up, so
// that the set-ups it times are spread over the seconds the leg lasts and
// one burst of interference cannot cover them all.
func runLeg(spec legSpec) legResult {
	res := legResult{backend: spec.backend, ops: spec.ops}
	if spec.quiet == nil {
		spec.quiet = &quiet{}
	}
	reps := spec.reps
	setups := make([]float64, 0, maxSetupReps) // seconds each set-up took
	for rep := 0; rep < reps; rep++ {
		if rep == 1 && spec.adaptive {
			// The first set-up says how many the budget allows.
			reps = min(max(int(setupBudget.Seconds()/setups[0]), reps), maxSetupReps)
		}
		measured := rep == reps/2
		start := time.Now()
		prog := spec.wl.build(&env{backend: spec.backend, seed: spec.seed, quick: spec.quick})
		prog.cfg.Backend = spec.backend
		prog.cfg.RTTimeout = rtWatchdog
		if measured {
			prog.cfg.Trace = spec.rec
			prog.cfg.Metrics = spec.reg
		}
		res.ranks = prog.cfg.Ranks
		w, err := mpi.NewWorld(prog.cfg)
		if err != nil {
			res.err = err
			break
		}
		// readings[r] is rank r's gauge reading before the current op; the
		// gate that opens the op publishes it to rank 0. Two ranks read the
		// gauge — enough to see both CPUs on rt; more only multiply the
		// chance that a reading trips over the process's own collector.
		readings := make([]atomic.Int64, min(res.ranks, 2))
		err = w.Run(func(p *mpi.Proc) error {
			t := &port{p: p, manual: spec.manual}
			if measured && spec.spans != nil {
				t.spans = spec.spans.rank(p.Rank())
			}
			op, err := prog.rank(t)
			if err != nil {
				return err
			}
			// Every rank's buffers exist before rank 0 touches them.
			if err := p.Barrier(); err != nil {
				return err
			}
			if p.Rank() == 0 {
				return drive(&spec, &res, prog, w, t, op, readings, measured, func() {
					setups = append(setups, time.Since(start).Seconds())
				})
			}
			n, g := spec.warm, newGauge()
			if measured {
				n += res.ops
			}
			for k := 0; k < n; k++ {
				t.op = k
				if err := t.awaitGate(func() {
					if r := p.Rank(); r < len(readings) {
						readings[r].Store(g.read())
					}
				}); err != nil {
					return err
				}
				if err := op(k); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			res.err = errors.Join(res.err, err)
		}
		releaseWorld(w)
		if res.err != nil {
			break
		}
	}
	if len(setups) > 0 {
		// Interference only ever adds to a set-up, and on a bad day it adds
		// to half of them: the lower quartile is what the set-up costs.
		res.setupS = quartiles(setups).q1
	}
	if res.err != nil {
		// A failed rank strands its peers: every op that did not complete and
		// verify counts as failed.
		planned := reps*spec.warm + res.ops
		res.failed += planned - res.attempted
		res.attempted = planned
	}
	return res
}

// drive is rank 0's side of a leg: warm-up, then the timed ops.
func drive(spec *legSpec, res *legResult, prog program, w *mpi.World, t *port,
	op func(k int) error, readings []atomic.Int64, measured bool, setUp func()) error {
	g := newGauge()
	counting := false // traced leg, past warm-up: take counter deltas
	// one runs op k: inputs, gauge, gate, the timed interval, verification.
	one := func(k int) (wall, virt, reading int64, err error) {
		t.op = k
		prog.prepare(k)
		readings[0].Store(g.read())
		if err := t.openGate(); err != nil {
			return 0, 0, 0, err
		}
		for r := range readings {
			reading = max(reading, readings[r].Load())
		}
		var before stats.Counters
		if counting {
			before = traffic.AggregateCounters(w)
		}
		root := t.begin("op", "bench")
		v0, t0 := w.ClockNs(), time.Now()
		err = op(k)
		wall, virt = int64(time.Since(t0)), w.ClockNs()-v0
		t.end(root)
		if err != nil {
			return 0, 0, 0, err
		}
		if counting {
			// Counter deltas over the timed interval only: the gate that
			// opens the op is the harness's traffic, not the workload's.
			after := traffic.AggregateCounters(w)
			addDelta(&res.ctr, &after, &before)
		}
		res.attempted++
		if prog.verify(k) != 0 {
			res.failed++
		}
		return wall, virt, reading, nil
	}
	for k := 0; k < spec.warm; k++ {
		if _, _, _, err := one(k); err != nil {
			return err
		}
	}
	setUp()
	if !measured {
		return nil
	}

	m := newMeter(spec.ops)
	counting = spec.rec != nil
	spec.rec.Reset()
	runtime.GC()
	a0 := m.mallocs()
	gc0 := m.ms.NumGC
	legStart := time.Now()
	for i := 0; i < spec.ops; i++ {
		wall, virt, reading, err := one(spec.warm + i)
		if err != nil {
			return err
		}
		m.wall = append(m.wall, wall)
		m.gauge = append(m.gauge, reading)
		m.virtNs += virt
		if spec.rec != nil && (i+1)%max(spec.ops/segments, 1) == 0 {
			// The recorder is unbounded: drain it as the leg goes.
			res.events += int64(spec.rec.Len())
			if res.utilCPU == 0 && spec.backend == mpi.BackendSim {
				res.utilCPU, res.utilTx, res.utilRx = laneUtil(spec.rec, w.Size())
			}
			spec.rec.Reset()
		}
	}
	m.gauge = append(m.gauge, g.read())
	res.legS = time.Since(legStart).Seconds()
	a1 := m.mallocs()
	res.gcs = m.ms.NumGC - gc0
	res.allocs = float64(a1-a0) / float64(spec.ops)
	if spec.backend != mpi.BackendRT {
		res.modelUS = float64(m.virtNs) / float64(spec.ops) / 1e3
	}
	m.timings(spec.quiet, res)
	return nil
}

// laneUtil is the mean busy fraction of each modeled resource lane over the
// world's ranks: the lane nearest 1 is the one that bounds virtual time.
func laneUtil(rec *trace.Recorder, ranks int) (cpu, tx, rx float64) {
	for r := 0; r < ranks; r++ {
		node := fmt.Sprintf("rank%d", r)
		cpu += rec.Utilization(node, trace.LaneCPU)
		tx += rec.Utilization(node, trace.LaneTx)
		rx += rec.Utilization(node, trace.LaneRx)
	}
	n := float64(ranks)
	return cpu / n, tx / n, rx / n
}

// releaseWorld gives a finished world's memory back before the next set-up
// builds its own, so every leg starts from the same heap and peak RSS is one
// world's, not the sum over the fifteen a run builds. internal/mem can never
// unmap a rank's arena itself (Memory's finalizer cannot run: its RegTable
// points back at it), so the pages are handed back here; the second
// collection frees what the first one's finalizers (the shared arena's
// munmap) let go.
func releaseWorld(w *mpi.World) {
	for r := 0; r < w.Size(); r++ {
		m := w.Endpoint(r).Mem()
		// Heap-backed small arenas refuse the advice; they are collected.
		_ = syscall.Madvise(m.Bytes(mem.PageSize, m.Size()-mem.PageSize), syscall.MADV_DONTNEED)
	}
	runtime.GC()
	runtime.GC()
}

// addDelta adds after−before to acc, counter by counter (stats.Counters is
// a struct of int64 counts and offers no subtraction).
func addDelta(acc, after, before *stats.Counters) {
	a, x, y := reflect.ValueOf(acc).Elem(), reflect.ValueOf(after).Elem(), reflect.ValueOf(before).Elem()
	for i := 0; i < a.NumField(); i++ {
		a.Field(i).SetInt(a.Field(i).Int() + x.Field(i).Int() - y.Field(i).Int())
	}
}
