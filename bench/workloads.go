package main

import (
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/mpi"
)

// env is what a workload is instantiated from: the backend of the leg and
// the benchmark seed. The program under test never sees either — only the
// types and buffers generated from them.
type env struct {
	backend string
	seed    uint64
	quick   bool // tests: cold_layouts slides through a small slab
}

// shape is one message layout a workload puts on the wire, and how many such
// messages one op sends. The layer probes run each module on these shapes.
type shape struct {
	dt    *datatype.Type
	count int
	perOp int
}

// workload is one closed-loop traffic pattern. Every rank is a coroutine (or,
// on rt, a goroutine) of the one benchmark process; rank 0 times each op and
// starts the next only when the previous one has completed and verified.
type workload struct {
	name string
	why  string
	// ops is the timed ops of the sim, shm and rt legs at refSeconds: fixed
	// counts (about five seconds each on the reference machine), so op
	// counts and virtual time repeat exactly.
	ops    [3]int
	warm   int
	build  func(e *env) program
	shapes func(seed uint64) []shape
	// autoSelect: the world runs SchemeAuto, so every rendezvous message pays
	// a scheme decision. cold: every message's type is compiled inside the
	// op. barrierInOp: the timed interval ends in a barrier.
	autoSelect, cold, barrierInOp bool
}

const (
	tagPing = 1
	tagPong = 2
	tagAck  = 99
)

func vector(count, blocklen, stride int) *datatype.Type {
	return datatype.Must(datatype.TypeVector(count, blocklen, stride, datatype.Int32))
}

var (
	// tinyRunType is 16 384 runs of 4 B (64 KiB): the paper's worst case for
	// per-run overhead and perfgate's vec4Bx16k.
	tinyRunType = vector(16384, 1, 4)
	// sparseType is 512 runs of 512 B (256 KiB): perfgate's pinned
	// rendezvous payload.
	sparseType = vector(512, 128, 256)
	// eagerType is 64 runs of 4 B (256 B), far below the eager threshold.
	eagerType = vector(64, 1, 4)
	// fig10Type is the paper's Figure 10 struct: blocks of 1, 2, 4, … 2048
	// integers, each followed by a one-integer gap (16 380 B).
	fig10Type = structType(2048)
)

func structType(lastInts int) *datatype.Type {
	var lens []int
	var displs []int64
	var types []*datatype.Type
	pos := int64(0)
	for b := 1; b <= lastInts; b *= 2 {
		lens = append(lens, b)
		displs = append(displs, pos)
		types = append(types, datatype.Int32)
		pos += int64(b)*4 + 4
	}
	return datatype.Must(datatype.TypeStruct(lens, displs, types))
}

var workloads = []*workload{
	{
		name: "tinyrun_pack",
		why:  "64 KiB as 16384 4-byte runs, BC-SPUP: pack/unpack is most of the message, the fabric posts 8 descriptors",
		ops:  [3]int{4500, 4500, 4000}, warm: 20,
		build:  func(e *env) program { return pingPong(e, tinyRunType, core.SchemeBCSPUP) },
		shapes: func(uint64) []shape { return []shape{{tinyRunType, 1, 2}} },
	},
	{
		name: "sparse_multiw",
		why:  "256 KiB as 512 512-byte runs, Multi-W: zero pack, ~1000 descriptors per op, so build/post/deliver/CQ is the message",
		ops:  [3]int{3160, 3400, 4700}, warm: 20,
		build:  func(e *env) program { return pingPong(e, sparseType, core.SchemeMultiW) },
		shapes: func(uint64) []shape { return []shape{{sparseType, 1, 2}} },
	},
	{
		name: "eager_stream",
		why:  "windows of 64 256-byte eager messages over 16 tags, half matched posted and half unexpected: per-message fixed cost, no RDMA",
		ops:  [3]int{8000, 8300, 12200}, warm: 20,
		build:  eagerStream,
		shapes: func(uint64) []shape { return []shape{{eagerType, 1, eagerWindow}} },
	},
	{
		name: "struct_alltoall",
		why:  "8-rank MPI_Alltoall of the paper's Fig-10 struct, Auto: 56 concurrent rendezvous, pool parks, multi-peer matching",
		ops:  [3]int{2300, 2360, 2340}, warm: 5,
		build:      structAlltoall,
		shapes:     func(uint64) []shape { return []shape{{fig10Type, 1, alltoallRanks * alltoallRanks}} },
		autoSelect: true, barrierInOp: true,
	},
	{
		name: "cold_layouts",
		why:  "every message a never-seen indexed type on a buffer sliding past the pin-down cache: compile, codec, OGR and registration all miss",
		ops:  [3]int{1200, 1300, 1400}, warm: 5,
		build:      coldLayouts,
		shapes:     coldShapes,
		autoSelect: true, cold: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// pingPong is the two-rank round trip tinyrun_pack and sparse_multiw share:
// rank 0 sends a stamped message, rank 1 receives it and sends what it
// received straight back. The op is one round trip.
func pingPong(e *env, dt *datatype.Type, scheme core.Scheme) program {
	lay := flatten(dt, 1)
	var (
		a, b, c msg // a and c on rank 0, b on rank 1
		mems    [2]*mem.Memory
		src     *stamped
		want    uint64
	)
	cfg := mpi.DefaultConfig()
	cfg.Ranks = 2
	cfg.MemBytes = 64 << 20
	cfg.Core.Scheme = scheme
	return program{
		cfg: cfg,
		rank: func(t *port) (func(int) error, error) {
			mems[t.p.Rank()] = t.p.Mem()
			if t.p.Rank() == 0 {
				a, c = t.newMsg(dt, 1), t.newMsg(dt, 1)
				src = newStamped(&lay, t.p.Mem(), a.buf, newRNG(e.seed, "pingpong"), 0)
				return func(int) error {
					if err := t.send(a, 1, tagPing); err != nil {
						return err
					}
					return t.recv(c, 1, tagPong)
				}, nil
			}
			b = t.newMsg(dt, 1)
			return func(int) error {
				if err := t.recv(b, 0, tagPing); err != nil {
					return err
				}
				return t.send(b, 0, tagPong)
			}, nil
		},
		prepare: func(k int) { want = src.stamp(k) },
		verify: func(int) (bad int) {
			if lay.checksum(mems[1], b.buf) != want {
				bad++
			}
			if lay.checksum(mems[0], c.buf) != want {
				bad++
			}
			lay.scrub(mems[1], b.buf)
			lay.scrub(mems[0], c.buf)
			return bad
		},
	}
}

const (
	eagerWindow = 64
	eagerTags   = 16
)

// eagerStream: rank 0 posts a window of 64 nonblocking 256 B sends over 16
// tags. Rank 1 has the first two receives of every tag posted (tags in
// descending order) when the window starts and posts the other two per tag
// only once those completed, so half the window matches the posted queue
// and half is found in the unexpected queue. One ack closes the op. MPI's
// non-overtaking rule fixes which message lands in which receive: the q-th
// receive posted for a tag gets the q-th message sent with it.
func eagerStream(e *env) program {
	lay := flatten(eagerType, 1)
	var (
		src  [eagerWindow]*stamped
		dst  [eagerWindow]msg
		want [eagerWindow]uint64
		mem1 *mem.Memory
	)
	cfg := mpi.DefaultConfig()
	cfg.Ranks = 2
	cfg.MemBytes = 64 << 20
	cfg.Core.Scheme = core.SchemeAuto
	return program{
		cfg: cfg,
		rank: func(t *port) (func(int) error, error) {
			reqs := make([]*core.Request, 0, eagerWindow+1)
			ack := t.newMsg(datatype.Int32, 1)
			if t.p.Rank() == 0 {
				var out [eagerWindow]msg
				r := newRNG(e.seed, "eager")
				for j := range out {
					out[j] = t.newMsg(eagerType, 1)
					src[j] = newStamped(&lay, t.p.Mem(), out[j].buf, r, uint32(j))
				}
				return func(int) error {
					reqs = reqs[:0]
					for j := range out {
						r, err := t.isend(out[j], 1, j%eagerTags)
						if err != nil {
							return err
						}
						reqs = append(reqs, r)
					}
					reqs = append(reqs, t.irecv(ack, 1, tagAck))
					return t.wait(reqs...)
				}, nil
			}
			mem1 = t.p.Mem()
			for j := range dst {
				dst[j] = t.newMsg(eagerType, 1)
			}
			return func(int) error {
				reqs = reqs[:0]
				for q := 0; q < 2; q++ {
					for tag := eagerTags - 1; tag >= 0; tag-- {
						reqs = append(reqs, t.irecv(dst[tag+eagerTags*q], 0, tag))
					}
				}
				if err := t.wait(reqs...); err != nil {
					return err
				}
				reqs = reqs[:0]
				for q := 2; q < eagerWindow/eagerTags; q++ {
					for tag := 0; tag < eagerTags; tag++ {
						reqs = append(reqs, t.irecv(dst[tag+eagerTags*q], 0, tag))
					}
				}
				if err := t.wait(reqs...); err != nil {
					return err
				}
				return t.send(ack, 0, tagAck)
			}, nil
		},
		prepare: func(k int) {
			for j, s := range src {
				want[j] = s.stamp(k)
			}
		},
		verify: func(int) (bad int) {
			for j, m := range dst {
				if lay.checksum(mem1, m.buf) != want[j] {
					bad++
				}
				lay.scrub(mem1, m.buf)
			}
			return bad
		},
	}
}

const alltoallRanks = 8

// structAlltoall: the paper's headline experiment (§8.3, Figure 10). Every
// rank sends one Fig-10 struct to every rank; the op is the Alltoall plus
// the barrier that proves every rank finished receiving.
func structAlltoall(e *env) program {
	const n = alltoallRanks
	lay := flatten(fig10Type, 1)
	ext := fig10Type.Extent()
	var (
		src  [n][n]*stamped // [sender][destination block]
		want [n][n]uint64
		rbuf [n]mem.Addr
		mems [n]*mem.Memory
	)
	block := func(base mem.Addr, i int) mem.Addr { return mem.Addr(int64(base) + int64(i)*ext) }
	cfg := mpi.ScaledConfig(n)
	cfg.Core.Scheme = core.SchemeAuto
	return program{
		cfg: cfg,
		rank: func(t *port) (func(int) error, error) {
			me := t.p.Rank()
			mems[me] = t.p.Mem()
			s, r := t.newMsg(fig10Type, n), t.newMsg(fig10Type, n)
			rbuf[me] = r.buf
			rng := newRNG(e.seed+uint64(me), "alltoall")
			for i := 0; i < n; i++ {
				src[me][i] = newStamped(&lay, t.p.Mem(), block(s.buf, i), rng, uint32(me*n+i))
			}
			return func(int) error {
				if err := t.alltoall(s, r, n); err != nil {
					return err
				}
				return t.barrier()
			}, nil
		},
		prepare: func(k int) {
			for r := range src {
				for i, s := range src[r] {
					want[r][i] = s.stamp(k)
				}
			}
		},
		verify: func(int) (bad int) {
			for d := 0; d < n; d++ {
				for r := 0; r < n; r++ {
					if lay.checksum(mems[d], block(rbuf[d], r)) != want[r][d] {
						bad++
					}
				}
				clear(mems[d].Bytes(rbuf[d], int64(n)*ext))
			}
			return bad
		},
	}
}

const (
	coldPayloadInts = 64 << 10  // 256 KiB of Int32 per message
	coldSlotBytes   = 512 << 10 // a message's extent stays below one slot
	coldSlabBytes   = 192 << 20 // three times the 64 MiB pin-down cache
	coldQuickSlab   = 12 << 20  // tests only
)

// coldClasses are the mean block lengths, in Int32s, of the three layout
// classes: 64 B, 1 KiB and 8 KiB blocks, which the static Auto rule routes
// to BC-SPUP, RWG-UP and Multi-W.
var coldClasses = [3]int{16, 256, 2048}

// blockList is one generated indexed layout: MPI_Type_indexed arguments.
type blockList struct {
	lens, displs []int
}

// generate draws a fresh layout of coldPayloadInts integers in blocks of mean
// length mean: block lengths come in pairs summing to 2·mean (so the payload
// is exact), gaps are at least one integer (so runs never coalesce and the
// average run is exactly the mean).
func (b *blockList) generate(r *rng, mean int) {
	n := coldPayloadInts / mean
	b.lens, b.displs = b.lens[:0], b.displs[:0]
	pos := 0
	for i := 0; i < n; i += 2 {
		l := mean/2 + r.intn(mean)
		for _, bl := range [2]int{l, 2*mean - l} {
			b.lens = append(b.lens, bl)
			b.displs = append(b.displs, pos)
			pos += bl + 1 + r.intn(mean/2)
		}
	}
}

// layout is the oracle's view of the list: blocks in list order. It reuses
// the backing array of runs.
func (b *blockList) layout(runs []run) layout {
	runs = runs[:0]
	for i, l := range b.lens {
		runs = append(runs, run{int64(b.displs[i]) * 4, int64(l) * 4})
	}
	return newLayout(runs)
}

// coldLayouts: no op ever sees a type, a buffer or a registration twice.
// Each op builds three never-seen indexed types (one per class) on both
// ranks, commits them, sends one round trip of each on the next slots of a
// slab three times the pin-down cache, and frees the types again — so the
// compile cache, the layout codec, type-index versioning, OGR and the
// registration cache all do their miss work inside the timed interval.
func coldLayouts(e *env) program {
	var (
		lists [3]blockList
		lays  [3]layout
		want  [3]uint64
		slab  [2]mem.Addr
		mems  [2]*mem.Memory
		gen   = newRNG(e.seed, "cold-layouts")
	)
	slabBytes := int64(coldSlabBytes)
	if e.quick {
		slabBytes = coldQuickSlab
	}
	slots := int(slabBytes / coldSlotBytes)
	slot := func(base mem.Addr, i int) mem.Addr {
		return mem.Addr(int64(base) + int64(i%slots)*coldSlotBytes)
	}
	// Message c of op k pings through slot 3k+c; rank 0 takes the pong half a
	// slab further on, so neither side ever reuses a cached registration.
	ping := func(k, c int) int { return 3*k + c }
	pong := func(k, c int) int { return 3*k + c + slots/2 }

	cfg := mpi.DefaultConfig()
	cfg.Ranks = 2
	cfg.MemBytes = slabBytes + 128<<20
	cfg.Core.Scheme = core.SchemeAuto
	return program{
		cfg: cfg,
		rank: func(t *port) (func(int) error, error) {
			me := t.p.Rank()
			mems[me] = t.p.Mem()
			a := t.p.Mem().MustAlloc(slabBytes)
			slab[me] = a
			// Rank 0's slab is the seeded source; rank 1's only has to be
			// resident before the first timed delivery lands in it.
			if b := t.p.Mem().Bytes(a, slabBytes); me == 0 {
				newRNG(e.seed, "cold-slab").fill(b)
			} else {
				for i := 0; i < len(b); i += mem.PageSize {
					b[i] = 1
				}
			}
			var stage mem.Addr
			if t.manual {
				stage = t.p.Mem().MustAlloc(coldPayloadInts * 4)
			}
			ep := t.p.Endpoint()
			return func(k int) error {
				for c := range coldClasses {
					l := &lists[c]
					s := t.begin("TypeIndexed", "datatype")
					dt, err := datatype.TypeIndexed(l.lens, l.displs, datatype.Int32)
					t.end(s)
					if err != nil {
						return err
					}
					s = t.begin("CommitType", "core")
					ep.CommitType(dt)
					t.end(s)
					m := msg{buf: slot(slab[me], ping(k, c)), count: 1, dt: dt, stage: stage}
					if me == 0 {
						if err := t.send(m, 1, tagPing); err != nil {
							return err
						}
						m.buf = slot(slab[0], pong(k, c))
						err = t.recv(m, 1, tagPong)
					} else {
						if err := t.recv(m, 0, tagPing); err != nil {
							return err
						}
						err = t.send(m, 0, tagPong)
					}
					if err != nil {
						return err
					}
					s = t.begin("FreeType", "core")
					ep.FreeType(dt)
					t.end(s)
				}
				return nil
			}, nil
		},
		prepare: func(k int) {
			for c, mean := range coldClasses {
				l := &lists[c]
				l.generate(gen, mean)
				lays[c] = l.layout(lays[c].runs)
				a := slot(slab[0], ping(k, c))
				first := lays[c].firstWord(mems[0], a)
				first[0], first[1], first[2], first[3] = byte(k), byte(k>>8), byte(k>>16), byte(c+1)
				want[c] = lays[c].checksum(mems[0], a)
			}
		},
		verify: func(k int) (bad int) {
			for c := range coldClasses {
				if lays[c].checksum(mems[1], slot(slab[1], ping(k, c))) != want[c] {
					bad++
				}
				if lays[c].checksum(mems[0], slot(slab[0], pong(k, c))) != want[c] {
					bad++
				}
			}
			return bad
		},
	}
}

// coldShapes returns one representative layout per class for the layer
// probes, drawn from the same generator as the workload's own.
func coldShapes(seed uint64) []shape {
	gen := newRNG(seed, "cold-layouts")
	var out []shape
	for _, mean := range coldClasses {
		var l blockList
		l.generate(gen, mean)
		out = append(out, shape{datatype.Must(datatype.TypeIndexed(l.lens, l.displs, datatype.Int32)), 1, 2})
	}
	return out
}
