package qos

import "testing"

func TestClassOf(t *testing.T) {
	p := DefaultPolicy()
	if got := p.ClassOf(1024); got != LaneLatency {
		t.Fatalf("1KiB class = %v, want latency", got)
	}
	if got := p.ClassOf(p.BulkThreshold); got != LaneBulk {
		t.Fatalf("threshold class = %v, want bulk", got)
	}
	var zero Policy
	if got := zero.ClassOf(1 << 30); got != LaneLatency {
		t.Fatalf("zero policy classified %v, want latency", got)
	}
}

func TestGateParkResumeFIFO(t *testing.T) {
	g := NewGate(Policy{MinFreeSlots: 2})
	free, active := 4, 1
	pr := func() Pressure { return Pressure{FreeSlots: free, ActiveOps: active} }

	var order []int
	run := func(id int) func() { return func() { order = append(order, id) } }

	if d := g.Admit(LaneBulk, pr, run(0)); d != Admit {
		t.Fatalf("healthy admit = %v", d)
	}
	free = 1 // pool tight now
	if d := g.Admit(LaneBulk, pr, run(1)); d != Park {
		t.Fatalf("tight admit = %v, want park", d)
	}
	if d := g.Admit(LaneBulk, pr, run(2)); d != Park {
		t.Fatalf("tight admit = %v, want park", d)
	}
	// Latency is never parked, even under pressure.
	if d := g.Admit(LaneLatency, pr, run(3)); d != Admit {
		t.Fatalf("latency admit = %v", d)
	}
	if g.Parked() != 2 {
		t.Fatalf("parked = %d, want 2", g.Parked())
	}
	g.Drain() // still tight: nothing moves
	if len(order) != 2 {
		t.Fatalf("drain resumed under pressure: %v", order)
	}
	free = 4
	g.Drain()
	if g.Parked() != 0 || len(order) != 4 || order[2] != 1 || order[3] != 2 {
		t.Fatalf("resume order = %v, want [0 3 1 2]", order)
	}
}

func TestGateProgressGuarantee(t *testing.T) {
	g := NewGate(Policy{MinFreeSlots: 8})
	// Pool permanently tight, but nothing active: the transfer must be
	// admitted anyway, or the endpoint deadlocks.
	ran := false
	d := g.Admit(LaneBulk, func() Pressure { return Pressure{FreeSlots: 0, ActiveOps: 0} }, func() { ran = true })
	if d != Admit || !ran {
		t.Fatalf("idle endpoint parked a transfer (decision %v)", d)
	}

	// Same via Drain: parked while others were active, drained when the
	// last active op finished without releasing pool slots.
	active := 1
	pr := func() Pressure { return Pressure{FreeSlots: 0, ActiveOps: active} }
	ran = false
	if d := g.Admit(LaneBulk, pr, func() { ran = true }); d != Park {
		t.Fatalf("admit = %v, want park", d)
	}
	active = 0
	g.Drain()
	if !ran {
		t.Fatal("drain left the only remaining transfer parked")
	}
}
