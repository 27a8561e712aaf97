package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/mpi"
)

// msg names one message buffer: count instances of dt at buf.
type msg struct {
	buf   mem.Addr
	count int
	dt    *datatype.Type
	stage mem.Addr // manual mode: the contiguous copy that travels instead
}

func (m msg) size() int64 { return m.dt.Size() * int64(m.count) }

// port is one rank's way into the MPI layer. Workload ops are written once
// against it; it either hands the derived datatype to MPI (the path under
// test) or, in manual mode, does what applications did before datatype
// communication was fast — MPI_Pack, a contiguous send, MPI_Unpack — which
// is the baseline the expect.ddt_over_manual metrics compare against
// (Eijkhout; Hunold, Carpen-Amarie and Träff). In a traced leg it also
// records a benchmark-owned span around every call into the mpi package.
type port struct {
	p      *mpi.Proc
	manual bool
	op     int        // current op number, for span attribution
	spans  *rankSpans // nil unless this leg records spans
	stack  []int      // open span indices (parents)
	unpack []msg      // manual mode: receives to unpack once they complete
	token  mem.Addr   // the gate's one-word message
	gate   []*core.Request
}

// newMsg allocates a buffer for (dt, count) in the rank's memory — and, in
// manual mode, the contiguous staging copy beside it.
func (t *port) newMsg(dt *datatype.Type, count int) msg {
	span := dt.TrueExtent() + int64(count-1)*dt.Extent()
	a := t.p.Mem().MustAlloc((span + 7) &^ 7)
	return t.msgAt(mem.Addr(int64(a)-dt.TrueLB()), dt, count)
}

// msgAt wraps an existing buffer.
func (t *port) msgAt(buf mem.Addr, dt *datatype.Type, count int) msg {
	m := msg{buf: buf, count: count, dt: dt}
	if t.manual {
		m.stage = t.p.Mem().MustAlloc((m.size() + 7) &^ 7)
	}
	return m
}

func (t *port) isend(m msg, dst, tag int) (*core.Request, error) {
	if !t.manual {
		s := t.begin("Isend", "mpi")
		r := t.p.Isend(m.buf, m.count, m.dt, dst, tag)
		t.end(s)
		return r, nil
	}
	n := m.size()
	s := t.begin("Pack", "mpi")
	_, err := t.p.Pack(m.buf, m.count, m.dt, t.p.Mem().Bytes(m.stage, n), 0)
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin("Isend", "mpi")
	r := t.p.Isend(m.stage, int(n), datatype.Byte, dst, tag)
	t.end(s)
	return r, nil
}

func (t *port) irecv(m msg, src, tag int) *core.Request {
	s := t.begin("Irecv", "mpi")
	defer t.end(s)
	if !t.manual {
		return t.p.Irecv(m.buf, m.count, m.dt, src, tag)
	}
	t.unpack = append(t.unpack, m)
	return t.p.Irecv(m.stage, int(m.size()), datatype.Byte, src, tag)
}

// wait completes the requests and, in manual mode, unpacks what arrived.
func (t *port) wait(reqs ...*core.Request) error {
	s := t.begin("Wait", "mpi")
	err := t.p.Wait(reqs...)
	t.end(s)
	if err != nil {
		return err
	}
	return t.unpackAll()
}

func (t *port) unpackAll() error {
	for _, m := range t.unpack {
		s := t.begin("Unpack", "mpi")
		_, err := t.p.Unpack(t.p.Mem().Bytes(m.stage, m.size()), 0, m.buf, m.count, m.dt)
		t.end(s)
		if err != nil {
			return err
		}
	}
	t.unpack = t.unpack[:0]
	return nil
}

func (t *port) send(m msg, dst, tag int) error {
	if !t.manual {
		s := t.begin("Send", "mpi")
		defer t.end(s)
		return t.p.Send(m.buf, m.count, m.dt, dst, tag)
	}
	r, err := t.isend(m, dst, tag)
	if err != nil {
		return err
	}
	return t.wait(r)
}

func (t *port) recv(m msg, src, tag int) error {
	if !t.manual {
		s := t.begin("Recv", "mpi")
		defer t.end(s)
		_, err := t.p.Recv(m.buf, m.count, m.dt, src, tag)
		return err
	}
	return t.wait(t.irecv(m, src, tag))
}

// alltoall exchanges block i of s (n blocks of one dt each) with rank i.
func (t *port) alltoall(s, r msg, n int) error {
	if !t.manual {
		sp := t.begin("Alltoall", "mpi")
		defer t.end(sp)
		return t.p.Alltoall(s.buf, 1, s.dt, r.buf, 1, r.dt)
	}
	size, ext, m := s.dt.Size(), s.dt.Extent(), t.p.Mem()
	sp := t.begin("Pack", "mpi")
	for i := 0; i < n; i++ {
		if _, err := t.p.Pack(mem.Addr(int64(s.buf)+int64(i)*ext), 1, s.dt, m.Bytes(s.stage, int64(n)*size), i*int(size)); err != nil {
			return err
		}
	}
	t.end(sp)
	sp = t.begin("Alltoall", "mpi")
	err := t.p.Alltoall(s.stage, int(size), datatype.Byte, r.stage, int(size), datatype.Byte)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("Unpack", "mpi")
	defer t.end(sp)
	for i := 0; i < n; i++ {
		if _, err := t.p.Unpack(m.Bytes(r.stage, int64(n)*size), i*int(size), mem.Addr(int64(r.buf)+int64(i)*ext), 1, r.dt); err != nil {
			return err
		}
	}
	return nil
}

// The gate opens each op. It is a barrier rooted at rank 0 — rank 0 tells
// every rank to get ready, every rank answers, rank 0 tells every rank to
// start — rather than MPI_Barrier, because every message of it is sent
// strictly outside rank 0's timed interval: a rank that finished its op early
// sends nothing until rank 0, past the end of the interval, has told it to,
// and no rank starts the next op before rank 0 does. A dissemination
// barrier's first round would land inside the interval and in the traced
// counters.
const (
	tagGetReady = 1<<20 + iota
	tagReady
	tagStart
)

// openGate is rank 0's side: it returns once every rank has been told to
// start the op.
func (t *port) openGate() error {
	n := t.p.Size()
	if t.gate == nil {
		t.token = t.p.Mem().MustAlloc(8)
		t.gate = make([]*core.Request, 0, 2*n)
	}
	t.gate = t.gate[:0]
	for r := 1; r < n; r++ {
		t.gate = append(t.gate, t.p.Isend(t.token, 1, datatype.Int32, r, tagGetReady))
		t.gate = append(t.gate, t.p.Irecv(t.token, 1, datatype.Int32, r, tagReady))
	}
	if err := t.p.Wait(t.gate...); err != nil {
		return err
	}
	t.gate = t.gate[:0]
	for r := 1; r < n; r++ {
		t.gate = append(t.gate, t.p.Isend(t.token, 1, datatype.Int32, r, tagStart))
	}
	return t.p.Wait(t.gate...)
}

// awaitGate is every other rank's side: once told to get ready, run ready
// (the gauge reading rank 0 will look at), answer, and wait for the start.
func (t *port) awaitGate(ready func()) error {
	if t.token == 0 {
		t.token = t.p.Mem().MustAlloc(8)
	}
	if _, err := t.p.Recv(t.token, 1, datatype.Int32, 0, tagGetReady); err != nil {
		return err
	}
	ready()
	if err := t.p.Send(t.token, 1, datatype.Int32, 0, tagReady); err != nil {
		return err
	}
	_, err := t.p.Recv(t.token, 1, datatype.Int32, 0, tagStart)
	return err
}

func (t *port) barrier() error {
	s := t.begin("Barrier", "mpi")
	defer t.end(s)
	return t.p.Barrier()
}

// span is one benchmark-owned interval: a call into a module's public
// function (or a batch of n identical calls), its parent, and the op it
// belongs to.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"` // 0: a root
	Name     string `json:"name"`
	Module   string `json:"module"`
	Workload string `json:"workload"`
	Backend  string `json:"backend,omitempty"`
	Rank     int    `json:"rank"`
	Op       int    `json:"op"`
	Calls    int    `json:"calls"` // calls the interval covers (probe batches)
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// spanLog keeps every span in memory until the run ends.
type spanLog struct {
	workload string
	epoch    time.Time
	nextID   atomic.Int64
	ranks    []*rankSpans
}

// rankSpans is one rank's share of the log: each rank appends only to its
// own, so the real-time backend's goroutines need no lock.
type rankSpans struct {
	log     *spanLog
	rank    int
	backend string
	spans   []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, epoch: time.Now()}
}

// start opens the log for a world of n ranks on one backend.
func (l *spanLog) start(backend string, n int) {
	for r := 0; r < n; r++ {
		l.ranks = append(l.ranks, &rankSpans{log: l, rank: r, backend: backend})
	}
}

// rank returns the most recently started world's log for rank r.
func (l *spanLog) rank(r int) *rankSpans {
	for i := len(l.ranks) - 1; i >= 0; i-- {
		if l.ranks[i].rank == r {
			return l.ranks[i]
		}
	}
	return nil
}

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

func (rs *rankSpans) open(name, module string, op int, parent int64) int {
	rs.spans = append(rs.spans, span{
		ID: rs.log.nextID.Add(1), Parent: parent, Name: name, Module: module,
		Workload: rs.log.workload, Backend: rs.backend, Rank: rs.rank, Op: op,
		Calls: 1, StartNs: rs.log.now(),
	})
	return len(rs.spans) - 1
}

// begin opens a span under the innermost open one; it returns -1 (which end
// ignores) when the leg records no spans.
func (t *port) begin(name, module string) int {
	if t.spans == nil {
		return -1
	}
	var parent int64
	if n := len(t.stack); n > 0 {
		parent = t.spans.spans[t.stack[n-1]].ID
	}
	i := t.spans.open(name, module, t.op, parent)
	t.stack = append(t.stack, i)
	return i
}

func (t *port) end(i int) {
	if i < 0 {
		return
	}
	t.spans.spans[i].EndNs = t.spans.log.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// all returns every span, rank by rank.
func (l *spanLog) all() []span {
	var out []span
	for _, rs := range l.ranks {
		out = append(out, rs.spans...)
	}
	return out
}

// write stores the log as one JSON array.
func (l *spanLog) write(path string) error {
	b, err := json.Marshal(l.all())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
