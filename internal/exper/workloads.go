package exper

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/pack"
	"repro/internal/pario"
	"repro/internal/simtime"
)

// The paper's vector workload (Sections 3.2 and 8.2): x columns of a
// 128 x 4096 32-bit integer array.
const (
	vecRows = 128
	vecCols = 4096
)

// VectorType returns MPI_Type_vector(128, x, 4096, MPI_INT).
func VectorType(x int) *datatype.Type {
	return datatype.Must(datatype.TypeVector(vecRows, x, vecCols, datatype.Int32))
}

// VectorBytes is the payload size of the x-column vector message.
func VectorBytes(x int) int64 { return int64(vecRows) * int64(x) * 4 }

// StructType returns the paper's Figure 10 struct: blocks of 1, 2, 4, ...,
// lastInts integers, each followed by a one-integer gap.
func StructType(lastInts int) *datatype.Type {
	var lens []int
	var displs []int64
	var types []*datatype.Type
	pos := int64(0)
	for b := 1; b <= lastInts; b *= 2 {
		lens = append(lens, b)
		displs = append(displs, pos)
		types = append(types, datatype.Int32)
		pos += int64(b)*4 + 4 // the gap equals the first block's size (one int)
	}
	return datatype.Must(datatype.TypeStruct(lens, displs, types))
}

// allSchemes is the scheme axis of every sweep that compares all five.
var allSchemes = []core.Scheme{
	core.SchemeGeneric, core.SchemeBCSPUP, core.SchemeRWGUP,
	core.SchemePRRS, core.SchemeMultiW,
}

// worldConfig builds an experiment cluster configuration.
func worldConfig(ranks int, scheme core.Scheme, memBytes int64, mut func(*mpi.Config)) mpi.Config {
	cfg := mpi.DefaultConfig()
	cfg.Ranks = ranks
	cfg.MemBytes = memBytes
	cfg.Core.Scheme = scheme
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

func allocFor(p *mpi.Proc, dt *datatype.Type, count int) mem.Addr {
	span := dt.TrueExtent() + int64(count-1)*dt.Extent()
	a := p.Mem().MustAlloc(span)
	return mem.Addr(int64(a) - dt.TrueLB())
}

func fillBuf(p *mpi.Proc, base mem.Addr, dt *datatype.Type, count int, seed byte) {
	data := make([]byte, dt.Size()*int64(count))
	for i := range data {
		data[i] = seed ^ byte(i*17+5)
	}
	u := pack.NewUnpacker(p.Mem(), base, dt, count)
	if n, _ := u.UnpackFrom(data); n != int64(len(data)) {
		panic("fillBuf short")
	}
}

// halves is one rank's share of a ping-pong round trip: the lead runs send
// then recv, the follower recv then send.
type halves struct{ send, recv func() error }

// msg names one message of a round trip: a typed buffer and its tag.
type msg struct {
	buf   mem.Addr
	count int
	dt    *datatype.Type
	tag   int
}

// sends and recvs are the blocking transfer of m to and from the other rank.
func sends(p *mpi.Proc, m msg) func() error {
	return func() error { return p.Send(m.buf, m.count, m.dt, 1-p.Rank(), m.tag) }
}

func recvs(p *mpi.Proc, m msg) func() error {
	return func() error {
		_, err := p.Recv(m.buf, m.count, m.dt, 1-p.Rank(), m.tag)
		return err
	}
}

// echo is the plain ping-pong: each rank owns one (dt, count) buffer, the
// lead's filled, and bounces it on tag 0.
func echo(dt *datatype.Type, count int) func(*mpi.Proc) halves {
	return func(p *mpi.Proc) halves {
		m := msg{allocFor(p, dt, count), count, dt, 0}
		if p.Rank() == 0 {
			fillBuf(p, m.buf, dt, count, 1)
		}
		return halves{sends(p, m), recvs(p, m)}
	}
}

// timeRounds runs round warmup times off the clock and iters times on it,
// and returns the timed window on both clocks.
func timeRounds(p *mpi.Proc, warmup, iters int, round func() error) (simtime.Duration, time.Duration, error) {
	for i := 0; i < warmup; i++ {
		if err := round(); err != nil {
			return 0, 0, err
		}
	}
	t0, w0 := p.Now(), time.Now()
	for i := 0; i < iters; i++ {
		if err := round(); err != nil {
			return 0, 0, err
		}
	}
	return p.Now().Sub(t0), time.Since(w0), nil
}

// timed is what pingPong measured over its timed round trips, read on the
// lead rank. virtual means nothing on rt, whose ranks share no clock.
type timed struct {
	virtual simtime.Duration
	wall    time.Duration
	world   *mpi.World // for counter inspection
}

// oneWayUS is the average one-way latency of iters timed round trips.
func oneWayUS(d simtime.Duration, iters int) float64 { return d.Micros() / float64(2*iters) }

// ms reports a wall-clock duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// pingPong is the one timed two-rank loop every ping-pong measurement of the
// package shares: each rank builds its halves with setup, then runs warmup
// round trips off the clock and iters on it, rank 0 leading.
func pingPong(cfg mpi.Config, warmup, iters int, setup func(*mpi.Proc) halves) (timed, error) {
	cfg.Ranks = 2
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return timed{}, err
	}
	res := timed{world: w}
	err = w.Run(func(p *mpi.Proc) error {
		h := setup(p)
		first, second := h.recv, h.send
		if p.Rank() == 0 {
			first, second = h.send, h.recv
		}
		virtual, wall, err := timeRounds(p, warmup, iters, func() error {
			if err := first(); err != nil {
				return err
			}
			return second()
		})
		if p.Rank() == 0 {
			res.virtual, res.wall = virtual, wall
		}
		return err
	})
	return res, err
}

// PingPongLatency measures the average one-way latency (microseconds) of a
// (dt, count) ping-pong between two ranks.
func PingPongLatency(cfg mpi.Config, dt *datatype.Type, count, warmup, iters int) (float64, error) {
	res, err := pingPong(cfg, warmup, iters, echo(dt, count))
	return oneWayUS(res.virtual, iters), err
}

// Bandwidth measures the achieved bandwidth (MB/s, MB = 2^20 bytes, as the
// paper defines it) of a window of back-to-back (dt, count) messages
// followed by one reply — the paper's bandwidth test (Section 8.2).
func Bandwidth(cfg mpi.Config, dt *datatype.Type, count, window int) (float64, error) {
	cfg.Ranks = 2
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return 0, err
	}
	size := dt.Size() * int64(count)
	var mbps float64
	err = w.Run(func(p *mpi.Proc) error {
		buf := allocFor(p, dt, count)
		ack := p.Mem().MustAlloc(8)
		if p.Rank() == 0 {
			fillBuf(p, buf, dt, count, 2)
			// Warmup round trip.
			if err := p.Send(buf, count, dt, 1, 1); err != nil {
				return err
			}
			if _, err := p.Recv(ack, 1, datatype.Byte, 1, 2); err != nil {
				return err
			}
			start := p.Now()
			// Blocking sends, as the paper's streaming test pushes them:
			// message k+1 starts once k's send completes locally.
			for i := 0; i < window; i++ {
				if err := p.Send(buf, count, dt, 1, 1); err != nil {
					return err
				}
			}
			if _, err := p.Recv(ack, 1, datatype.Byte, 1, 2); err != nil {
				return err
			}
			elapsed := p.Now().Sub(start)
			mbps = float64(size) * float64(window) / (1 << 20) / elapsed.Seconds()
		} else {
			if _, err := p.Recv(buf, count, dt, 0, 1); err != nil {
				return err
			}
			if err := p.Send(ack, 1, datatype.Byte, 0, 2); err != nil {
				return err
			}
			reqs := make([]*core.Request, 0, window)
			for i := 0; i < window; i++ {
				reqs = append(reqs, p.Irecv(buf, count, dt, 0, 1))
			}
			if err := p.Wait(reqs...); err != nil {
				return err
			}
			if err := p.Send(ack, 1, datatype.Byte, 0, 2); err != nil {
				return err
			}
		}
		return nil
	})
	return mbps, err
}

// ManualLatency measures the paper's "Manual" scheme: the user packs into a
// contiguous staging buffer, sends contiguously, and the receiver unpacks by
// hand. User pack cost is pure copy cost (no datatype-processing overhead).
func ManualLatency(cfg mpi.Config, dt *datatype.Type, count, warmup, iters int) (float64, error) {
	size := dt.Size() * int64(count)
	res, err := pingPong(cfg, warmup, iters, func(p *mpi.Proc) halves {
		user := allocFor(p, dt, count)
		if p.Rank() == 0 {
			fillBuf(p, user, dt, count, 3)
		}
		stage := msg{p.Mem().MustAlloc(size), int(size), datatype.Byte, 0}
		staged := func() []byte { return p.Mem().Bytes(stage.buf, size) }
		manualCopy := func(n int64, runs int) {
			if n != size {
				panic("manual copy short")
			}
			p.Compute(cfg.Model.CopyTime(n, runs))
		}
		send, recv := sends(p, stage), recvs(p, stage)
		return halves{
			send: func() error {
				manualCopy(pack.NewPacker(p.Mem(), user, dt, count).PackTo(staged()))
				return send()
			},
			recv: func() error {
				if err := recv(); err != nil {
					return err
				}
				manualCopy(pack.NewUnpacker(p.Mem(), user, dt, count).UnpackFrom(staged()))
				return nil
			},
		}
	})
	return oneWayUS(res.virtual, iters), err
}

// MultipleLatency measures the paper's "Multiple" scheme: one MPI call per
// contiguous block of the datatype.
func MultipleLatency(cfg mpi.Config, dt *datatype.Type, count, warmup, iters int) (float64, error) {
	blocks, trunc := datatype.Flatten(dt, count, 0)
	if trunc {
		return 0, fmt.Errorf("exper: too many blocks for Multiple scheme")
	}
	res, err := pingPong(cfg, warmup, iters, func(p *mpi.Proc) halves {
		user := allocFor(p, dt, count)
		if p.Rank() == 0 {
			fillBuf(p, user, dt, count, 4)
		}
		reqs := make([]*core.Request, len(blocks))
		all := func(start func(mem.Addr, int, *datatype.Type, int, int) *core.Request) func() error {
			return func() error {
				for i, b := range blocks {
					reqs[i] = start(mem.Addr(int64(user)+b.Off), int(b.Len), datatype.Byte, 1-p.Rank(), 0)
				}
				return p.Wait(reqs...)
			}
		}
		return halves{all(p.Isend), all(p.Irecv)}
	})
	return oneWayUS(res.virtual, iters), err
}

// AlltoallTime measures the average completion time (microseconds) of an
// MPI_Alltoall with (dt, count) blocks across the world's ranks.
func AlltoallTime(cfg mpi.Config, dt *datatype.Type, count, warmup, iters int) (float64, error) {
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return 0, err
	}
	var avg float64
	err = w.Run(func(p *mpi.Proc) error {
		n := p.Size()
		sbuf := allocFor(p, dt, count*n)
		rbuf := allocFor(p, dt, count*n)
		fillBuf(p, sbuf, dt, count*n, byte(p.Rank()+1))
		for i := 0; i < warmup; i++ {
			if err := p.Alltoall(sbuf, count, dt, rbuf, count, dt); err != nil {
				return err
			}
		}
		if err := p.Barrier(); err != nil {
			return err
		}
		start := p.Now()
		for i := 0; i < iters; i++ {
			if err := p.Alltoall(sbuf, count, dt, rbuf, count, dt); err != nil {
				return err
			}
		}
		if err := p.Barrier(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			avg = p.Now().Sub(start).Micros() / float64(iters)
		}
		return nil
	})
	return avg, err
}

// mustSim converts (value, error) to value, panicking on error; experiment
// drivers use it because a failure is a bug in the simulation, not a
// recoverable condition.
func mustSim(v float64, err error) float64 {
	if err != nil {
		panic(err)
	}
	return v
}

// PutLatency measures the average completion time of a one-sided Put of one
// (dt) message into a window laid out with the same datatype, fenced each
// iteration (both fences' synchronization included, halved like ping-pong).
func PutLatency(cfg mpi.Config, dt *datatype.Type, warmup, iters int) (float64, error) {
	cfg.Ranks = 2
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return 0, err
	}
	var us float64
	err = w.Run(func(p *mpi.Proc) error {
		span := dt.TrueExtent()
		winBuf := p.Mem().MustAlloc(span)
		win, err := p.World().WinCreate(winBuf, span)
		if err != nil {
			return err
		}
		src := allocFor(p, dt, 1)
		if p.Rank() == 0 {
			fillBuf(p, src, dt, 1, 5)
		}
		doPut := func() error {
			if p.Rank() == 0 {
				if err := win.Put(src, 1, dt, 1, -dt.TrueLB(), 1, dt); err != nil {
					return err
				}
			}
			return win.Fence()
		}
		virtual, _, err := timeRounds(p, warmup, iters, doPut)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			us = virtual.Micros() / float64(iters)
		}
		return win.Free()
	})
	return us, err
}

// ParIOTime measures the average time for a client to write and read back
// one (dt) view of a server-hosted file in the given pario mode.
func ParIOTime(cfg mpi.Config, dt *datatype.Type, mode pario.Mode, warmup, iters int) (float64, error) {
	cfg.Ranks = 2
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return 0, err
	}
	var us float64
	err = w.Run(func(p *mpi.Proc) error {
		f, err := pario.Open(p.World(), 0, dt.Size()+4096, mode)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			return f.Serve()
		}
		buf := allocFor(p, dt, 1)
		fillBuf(p, buf, dt, 1, 9)
		virtual, _, err := timeRounds(p, warmup, iters, func() error {
			if err := f.WriteAt(0, buf, 1, dt); err != nil {
				return err
			}
			return f.ReadAt(0, buf, 1, dt)
		})
		if err != nil {
			return err
		}
		us = virtual.Micros() / float64(iters)
		return f.Close()
	})
	return us, err
}

// CountersReport runs one 256 KB vector transfer under each scheme and
// formats the per-rank operation counters — the observable anatomy of each
// scheme (copies, registrations, descriptors, control traffic).
func CountersReport() (string, error) {
	var out strings.Builder
	dt := VectorType(512)
	for _, scheme := range allSchemes {
		cfg := worldConfig(2, scheme, expMem2, nil)
		w, err := mpi.NewWorld(cfg)
		if err != nil {
			return "", err
		}
		err = w.Run(func(p *mpi.Proc) error {
			buf := allocFor(p, dt, 1)
			if p.Rank() == 0 {
				fillBuf(p, buf, dt, 1, 1)
				return p.Send(buf, 1, dt, 1, 0)
			}
			_, err := p.Recv(buf, 1, dt, 0, 0)
			return err
		})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&out, "=== %s (one 256 KB vector message, 128 blocks of 2 KB) ===\n", scheme)
		for r := 0; r < 2; r++ {
			role := "sender"
			if r == 1 {
				role = "receiver"
			}
			fmt.Fprintf(&out, "-- rank %d (%s)\n", r, role)
			out.WriteString(w.Endpoint(r).Counters().String())
		}
		out.WriteString("\n")
	}
	return out.String(), nil
}
