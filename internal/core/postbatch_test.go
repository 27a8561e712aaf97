package core

import (
	"fmt"
	"testing"

	"repro/internal/datatype"
	"repro/internal/ib"
	"repro/internal/mem"
	"repro/internal/simtime"
	"repro/internal/verbs"
)

// newTestWorldModel is newTestWorld with a custom cost model — the chunking
// test shrinks MaxPostBatch.
func newTestWorldModel(t *testing.T, n int, cfg Config, memSize int64, model ib.Model) *testWorld {
	t.Helper()
	eng := simtime.NewEngine()
	fab := ib.NewFabric(eng, model)
	eps := make([]*Endpoint, n)
	for i := range eps {
		m := mem.NewMemory(fmt.Sprintf("n%d", i), memSize)
		hca := fab.AddHCA(fmt.Sprintf("n%d", i), m, nil)
		ep, err := NewEndpoint(i, hca, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	ConnectPeers(eps)
	return &testWorld{eng: eng, eps: eps}
}

// TestPostBatchChunkingEndToEnd shrinks MaxPostBatch to 3 and sends a
// Multi-W message needing far more descriptors: the endpoint must chunk the
// doorbells (several list posts), deliver the bytes intact, and count the
// batched descriptors.
func TestPostBatchChunkingEndToEnd(t *testing.T) {
	model := ib.DefaultModel()
	model.MaxPostBatch = 3
	cfg := DefaultConfig()
	cfg.Scheme = SchemeMultiW
	cfg.PoolSize = 4 << 20
	vec := datatype.Must(datatype.TypeVector(64, 64, 128, datatype.Int32)) // 64 runs, 16 KB
	w := newTestWorldModel(t, 2, cfg, 48<<20, model)
	var sent, got []byte
	w.run(t, func(p *simtime.Process, ep *Endpoint) {
		buf := allocFor(ep, vec, 1)
		if ep.Rank() == 0 {
			sent = fillMsg(ep, buf, vec, 1, 0x7D)
			if err := ep.Send(p, buf, 1, vec, 1, 0); err != nil {
				t.Error(err)
			}
			return
		}
		if _, err := ep.Recv(p, buf, 1, vec, 0, 0); err != nil {
			t.Error(err)
		}
		got = readMsg(ep, buf, vec, 1)
	})
	if string(sent) != string(got) {
		t.Fatal("chunked Multi-W delivered wrong bytes")
	}
	c := w.eps[0].Counters()
	// 64 descriptors at 3 per doorbell: at least 22 list posts, and every
	// descriptor flows through the batch counter.
	if c.ListPosts < 22 {
		t.Fatalf("ListPosts = %d, want >= 22 (chunked doorbells)", c.ListPosts)
	}
	if c.BatchedWRs < 64 {
		t.Fatalf("BatchedWRs = %d, want >= 64", c.BatchedWRs)
	}
}

// TestChunkBatches pins the chunker itself: exact division, remainders, a
// non-positive limit (unlimited), and lists already within the limit.
func TestChunkBatches(t *testing.T) {
	mk := func(n int) []verbs.SendWR { return make([]verbs.SendWR, n) }
	for _, tc := range []struct {
		n, limit int
		want     []int
	}{
		{9, 3, []int{3, 3, 3}},
		{10, 3, []int{3, 3, 3, 1}},
		{2, 3, []int{2}},
		{5, 0, []int{5}},
		{5, -1, []int{5}},
		{1, 1, []int{1}},
	} {
		got := chunkBatches(mk(tc.n), tc.limit, nil)
		if len(got) != len(tc.want) {
			t.Fatalf("chunkBatches(%d, %d): %d batches, want %d", tc.n, tc.limit, len(got), len(tc.want))
		}
		total := 0
		for i, b := range got {
			if len(b) != tc.want[i] {
				t.Fatalf("chunkBatches(%d, %d): batch %d has %d, want %d", tc.n, tc.limit, i, len(b), tc.want[i])
			}
			total += len(b)
		}
		if total != tc.n {
			t.Fatalf("chunkBatches(%d, %d) dropped descriptors: %d", tc.n, tc.limit, total)
		}
	}
}
