// Package qos is the service-mode layer of the stack: a traffic class per
// transfer and admission control over whole bulk transfers.
//
// The paper's staging pools stall a transfer when they run dry (its
// buffer-pool exhaustion fallback). Under a service-shaped load — many
// concurrent messages, mixed small and bulk traffic — the Gate makes that
// stall an explicit, FIFO decision taken before a bulk transfer's data phase
// starts: while the staging pool it would draw from is tight, a new bulk
// transfer parks and resumes as pressure releases. Latency-class transfers
// are never parked, and a parked transfer is force-admitted when nothing else
// is active, so admission can never deadlock the endpoint.
//
// The Gate is deliberately single-threaded: every call happens in the owning
// endpoint's simulation context (its engine goroutine), exactly like the
// rest of the protocol state, so it needs no locks and stays deterministic on
// the simulator backend.
package qos

// Lane classifies a transfer, mirroring an InfiniBand service level: the
// latency lane is admitted at once, the bulk lane passes the Gate.
type Lane uint8

// The two lanes.
const (
	// LaneLatency carries latency-sensitive work: eager payloads, protocol
	// control messages, and rendezvous transfers below Policy.BulkThreshold.
	LaneLatency Lane = iota
	// LaneBulk carries bulk data movement: rendezvous transfers at or above
	// Policy.BulkThreshold.
	LaneBulk
)

// String names the lane for traces and metrics keys.
func (l Lane) String() string {
	if l == LaneBulk {
		return "bulk"
	}
	return "latency"
}

// Policy holds the service-mode knobs. The zero value disables every
// mechanism it configures; DefaultPolicy returns working service defaults.
type Policy struct {
	// BulkThreshold is the smallest message size (bytes) classified as bulk
	// traffic. Messages below it ride the latency lane.
	BulkThreshold int64

	// MinFreeSlots parks new bulk transfers while the relevant staging pool
	// has fewer free slots than this (and other transfers are active to
	// release them). <= 0 disables the free-slot pressure test.
	MinFreeSlots int
}

// DefaultPolicy returns service-mode defaults: a 64 KiB bulk threshold and
// parking while the staging pool has no free slot.
func DefaultPolicy() Policy {
	return Policy{BulkThreshold: 64 << 10, MinFreeSlots: 1}
}

// ClassOf maps a message size to its lane.
func (p Policy) ClassOf(bytes int64) Lane {
	if p.BulkThreshold > 0 && bytes >= p.BulkThreshold {
		return LaneBulk
	}
	return LaneLatency
}
