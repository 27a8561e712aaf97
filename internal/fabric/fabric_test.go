package fabric

import (
	"errors"
	"strings"
	"testing"

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
