package fabric

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/allocsite"
	"repro/internal/mem"
	"repro/internal/simtime"
	"repro/internal/verbs"
)

// A ring is FIFO across wrap-around and growth, and forgets what it popped.
func TestRing(t *testing.T) {
	var r Ring[*int]
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			v := next
			r.Push(&v)
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if got := *r.Pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	push(5)
	pop(3)
	push(6) // wraps the 8-slot buffer
	pop(2)
	push(20) // grows while wrapped
	if r.Len() != next-want {
		t.Fatalf("Len = %d, want %d", r.Len(), next-want)
	}
	pop(r.Len())
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a popped element", i)
		}
	}
	capBefore := len(r.buf)
	for i := 0; i < 10*capBefore; i++ { // steady depth: no reallocation
		push(1)
		pop(1)
	}
	if len(r.buf) != capBefore {
		t.Fatalf("ring grew from %d to %d slots at depth 1", capBefore, len(r.buf))
	}
}

// A train record is poisoned when it returns to the free list — window,
// failures, lag, payload, completion entry — and any stage run on it
// afterwards panics instead of walking a stale window.
func TestRecycledFlightIsPoisoned(t *testing.T) {
	f := New("test", verbs.DefaultModel(), nil, Shared{})
	n := f.Attach("n", nil, nil, nil)
	fl := n.getFlight(stageLanded)
	wrs := make([]verbs.SendWR, 8)
	fl.qp, fl.wrs, fl.lag, fl.data = &QP{}, wrs[2:7], 9, []byte("x")
	fl.fails = append(fl.fails, failure{1, errors.New("refused")}, failure{4, errors.New("faulted")})
	fl.one[0].SGL = []verbs.SGE{{Len: 7}}
	fl.cqe.Data = fl.data
	fails := fl.fails[:2]
	n.putFlight(fl)
	if fl.stage != stageFree || fl.qp != nil || fl.wrs != nil || fl.lag != 0 || fl.data != nil ||
		len(fl.fails) != 0 || fl.one[0].SGL != nil || fl.cqe.Data != nil || fl.cq != nil {
		t.Fatalf("recycled record keeps state: %+v", fl)
	}
	if fails[0] != (failure{}) || fails[1] != (failure{}) {
		t.Fatalf("recycled record keeps its members' errors reachable: %+v", fails)
	}
	if live, free := n.Flights(); live != 0 || free != 1 {
		t.Fatalf("Flights() = %d live, %d free", live, free)
	}
	for name, stage := range map[string]func(){"deliver": fl.deliverFn, "ack": fl.ackFn, "dispatch": fl.dispatchFn} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "used after recycle") {
					t.Errorf("%s on a recycled record: recovered %q, want the stage panic", name, msg)
				}
			}()
			stage()
		}()
	}
	if again := n.getFlight(stagePosted); again != fl {
		t.Fatal("the free list did not hand the recycled record back")
	}
}

// instant is a pricing under which every stage is due at once.
type instant struct{}

func (instant) Launch(_ *QP, _ *verbs.SendWR, _ int64, ready simtime.Time) Plan {
	return Plan{Deliver: ready}
}

func (instant) Fault(_ *QP, _ *verbs.SendWR, ready simtime.Time) simtime.Time { return ready }

// Channel sends of 8-byte done frames and 2 KiB CTS frames, interleaved
// through one node in rounds of changing depth, allocate nothing once warm:
// each payload is copied into a buffer of its own size class, on the sender
// at post and on the receiver at arrival, so a small buffer is never popped
// for a large payload and dropped.
func TestMixedChannelSendsAllocateNothing(t *testing.T) {
	eng := simtime.NewEngine()
	f := New("test", verbs.DefaultModel(), instant{}, Shared{})
	a := f.Attach("a", eng, mem.NewMemory("a", 1<<16), nil)
	b := f.Attach("b", eng, mem.NewMemory("b", 1<<16), nil)
	asend, arecv, bsend, brecv := NewCQ(a), NewCQ(a), NewCQ(b), NewCQ(b)
	qa, qb := Connect(a, b, asend, arecv, bsend, brecv)
	asend.SetHandler(func(verbs.CQE) {})
	got := 0
	brecv.SetHandler(func(e verbs.CQE) {
		got += len(e.Data)
		qb.PostRecv(verbs.RecvWR{})
	})
	for i := 0; i < 8; i++ {
		qb.PostRecv(verbs.RecvWR{})
	}
	done, cts := make([]byte, 8), make([]byte, 2<<10)
	burst := func(n int, p []byte) (r [][]byte) {
		for i := 0; i < n; i++ {
			r = append(r, p)
		}
		return r
	}
	rounds := [][][]byte{burst(16, done), {cts}, {cts, done, cts}}
	k, sent := 0, 0
	round := func() {
		for _, p := range rounds[k%len(rounds)] {
			if err := qa.PostSend(verbs.SendWR{Op: verbs.OpSend, Inline: p}); err != nil {
				t.Fatal(err)
			}
			sent += len(p)
		}
		k++
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for range rounds {
		round()
	}
	win := allocsite.Open()
	for i := 0; i < 100; i++ {
		round()
	}
	if n, sites := win.Close(10); n != 0 {
		t.Errorf("100 warm rounds of mixed channel sends allocate %d objects, want 0; at\n%s", n, sites)
	}
	if got != sent {
		t.Errorf("%d payload bytes arrived, want %d", got, sent)
	}
}
