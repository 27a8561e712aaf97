package rtfab

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/verbs"
)

// pair builds a two-node fabric with polling CQs and one connected QP pair,
// with credits pre-posted on both sides.
func pair(t *testing.T, credits int) (*Fabric, [2]*Node, [2]verbs.QP, [4]verbs.CQ) {
	t.Helper()
	f := New(verbs.DefaultModel())
	var nodes [2]*Node
	for i := range nodes {
		m := mem.NewMemory(fmt.Sprintf("n%d", i), 4<<20)
		nodes[i] = f.AddNode(fmt.Sprintf("n%d", i), m, &stats.Counters{})
	}
	cqs := [4]verbs.CQ{nodes[0].NewCQ(), nodes[0].NewCQ(), nodes[1].NewCQ(), nodes[1].NewCQ()}
	q0, q1 := nodes[0].Connect(nodes[1], cqs[0], cqs[1], cqs[2], cqs[3])
	for i := 0; i < credits; i++ {
		q0.PostRecv(verbs.RecvWR{})
		q1.PostRecv(verbs.RecvWR{})
	}
	return f, nodes, [2]verbs.QP{q0, q1}, cqs
}

// Two nodes ping-pong concurrently over channel semantics while a third
// pair of processes hammers RDMA writes; with -race this exercises the
// cross-goroutine delivery paths.
func TestConcurrentTraffic(t *testing.T) {
	f := New(verbs.DefaultModel())
	const n = 4
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = f.AddNode(fmt.Sprintf("n%d", i), mem.NewMemory(fmt.Sprintf("n%d", i), 4<<20), nil)
	}
	// Full mesh of QPs; one shared polling CQ per node carries both send
	// completions and arrivals, so a waiting process wakes on either.
	cq := make([]verbs.CQ, n)
	for i := range nodes {
		cq[i] = nodes[i].NewCQ()
	}
	qps := make([][]verbs.QP, n)
	for i := range qps {
		qps[i] = make([]verbs.QP, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			qa, qb := nodes[i].Connect(nodes[j], cq[i], cq[i], cq[j], cq[j])
			qa.SetUserData(j)
			qb.SetUserData(i)
			qps[i][j], qps[j][i] = qa, qb
			for k := 0; k < 64; k++ {
				qa.PostRecv(verbs.RecvWR{})
				qb.PostRecv(verbs.RecvWR{})
			}
		}
	}
	const rounds = 50
	var delivered atomic.Int64
	for i := 0; i < n; i++ {
		i := i
		nodes[i].Engine().Spawn(fmt.Sprintf("rank%d", i), func(p *simtime.Process) {
			next := (i + 1) % n
			payload := []byte(fmt.Sprintf("from %d", i))
			for r := 0; r < rounds; r++ {
				if err := qps[i][next].PostSend(verbs.SendWR{Op: verbs.OpSend, Inline: payload}); err != nil {
					t.Error(err)
					return
				}
				// One send completion and one arrival per round (in any order,
				// possibly from different rounds).
				for got := 0; got < 2; got++ {
					e := cq[i].WaitPoll(p)
					if e.Err != nil {
						t.Error(e.Err)
					}
					if e.Op == verbs.OpRecv {
						e.QP.PostRecv(verbs.RecvWR{})
						delivered.Add(1)
					}
				}
			}
		})
	}
	if err := f.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if delivered.Load() != int64(n*rounds) {
		t.Fatalf("delivered %d messages, want %d", delivered.Load(), n*rounds)
	}
}

// A process that waits forever must surface as a deadlock error, not a hang.
func TestDeadlockDetection(t *testing.T) {
	f, nodes, _, cqs := pair(t, 1)
	_ = cqs
	nodes[0].Engine().Spawn("stuck", func(p *simtime.Process) {
		var sig simtime.Signal
		p.Wait(&sig) // never broadcast
	})
	err := f.Run(2 * time.Second)
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}
