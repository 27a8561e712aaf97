package exper

import "testing"

// TestParallelSweepMonotone holds the parallelism sweep to what workers are
// for: on the modeled rows a worker more never makes the message slower — the
// cost model charges a fan-out per shard, so the curve flattens where the
// shards run out, but nothing in the pipeline may give the overlap back.
func TestParallelSweepMonotone(t *testing.T) {
	doc, err := parallelSweep(simOnly, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := doc.(*ParallelDoc).SimRows
	if len(rows) != len(parWorkerAxis) {
		t.Fatalf("sweep has %d sim rows, want %d", len(rows), len(parWorkerAxis))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].VirtualUS > rows[i-1].VirtualUS {
			t.Errorf("%d workers take %.3f us, more than %d workers' %.3f us",
				rows[i].Workers, rows[i].VirtualUS, rows[i-1].Workers, rows[i-1].VirtualUS)
		}
	}
}
