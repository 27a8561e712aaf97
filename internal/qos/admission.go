package qos

// Pressure is the resource snapshot an admission decision reads. The owning
// endpoint supplies it through a closure so parked transfers re-evaluate
// live state when pressure releases.
type Pressure struct {
	// FreeSlots is the free slot count of the staging pool the transfer
	// would draw from.
	FreeSlots int
	// PoolWaiters counts transfers already parked inside that pool waiting
	// for slots.
	PoolWaiters int
	// ActiveOps counts unfinished rendezvous operations on the endpoint,
	// excluding parked ones. When it reaches zero nothing can ever release
	// pressure, so the gate force-admits (the progress guarantee).
	ActiveOps int
}

// Decision is the outcome of an admission request.
type Decision int

// The admission outcomes.
const (
	// Admit: the transfer proceeds now (run was called).
	Admit Decision = iota
	// Park: the transfer waits FIFO; run fires from Drain once pressure
	// releases.
	Park
)

// String names the decision for traces and errors.
func (d Decision) String() string {
	if d == Park {
		return "park"
	}
	return "admit"
}

// parked is one waiting transfer: its live pressure source and its
// continuation.
type parked struct {
	pr  func() Pressure
	run func()
}

// Gate is the admission controller: transfers whose class is bulk park
// (FIFO) while the staging pool is tight and resume as pressure releases.
// Single-threaded. The parking lot is a head-indexed FIFO with lazy
// compaction, so a warm park/drain cycle reuses retained capacity instead of
// allocating per transfer.
type Gate struct {
	pol      Policy
	q        []parked
	head     int
	draining bool
}

// NewGate returns a gate enforcing p's budgets.
func NewGate(p Policy) *Gate {
	return &Gate{pol: p}
}

// pressured reports whether pr is tight enough to park new bulk work.
func (g *Gate) pressured(pr Pressure) bool {
	if g.pol.MinFreeSlots > 0 && pr.FreeSlots < g.pol.MinFreeSlots {
		return true
	}
	return pr.PoolWaiters > 0
}

// Admit asks to start a transfer of the given lane. Latency-lane transfers
// always run immediately. A bulk transfer runs immediately when the pool is
// healthy (or nothing else is active to ever release it — the progress
// guarantee) and parks FIFO otherwise. run is called exactly once:
// synchronously on Admit, from a later Drain on Park.
func (g *Gate) Admit(lane Lane, pr func() Pressure, run func()) Decision {
	if lane == LaneLatency {
		run()
		return Admit
	}
	p := pr()
	if g.Parked() == 0 && (!g.pressured(p) || p.ActiveOps <= 0) {
		run()
		return Admit
	}
	g.q = append(g.q, parked{pr: pr, run: run})
	return Park
}

// Drain resumes parked transfers in FIFO order while their budgets allow
// (or nothing else is active). Call it wherever pressure releases — pool
// slot returns, transfer completion or abort. Reentrant calls
// (a resumed transfer releasing more pressure) fold into the outer loop.
func (g *Gate) Drain() {
	if g.draining {
		return
	}
	g.draining = true
	defer func() { g.draining = false }()
	for g.Parked() > 0 {
		p := g.q[g.head].pr()
		if g.pressured(p) && p.ActiveOps > 0 {
			return
		}
		e := g.q[g.head]
		g.q[g.head] = parked{}
		g.head++
		if g.head == len(g.q) {
			g.q = g.q[:0]
			g.head = 0
		} else if g.head > 32 && g.head*2 >= len(g.q) {
			n := copy(g.q, g.q[g.head:])
			g.q = g.q[:n]
			g.head = 0
		}
		e.run()
	}
}

// Parked reports the number of transfers currently waiting for admission.
func (g *Gate) Parked() int { return len(g.q) - g.head }
