// Package ib is a software InfiniBand: a Verbs-style interface (queue pairs,
// completion queues, send/receive channel semantics, RDMA read/write memory
// semantics with gather/scatter and immediate data) over a deterministic
// discrete-event fabric. It is the simulator implementation of the
// backend-neutral contract in internal/verbs: the queue-pair state machine
// of internal/fabric on one shared engine, priced by this package's link
// model (fabric.go).
//
// Payload bytes are really copied between the simulated nodes' memories, so
// protocol bugs corrupt data and fail tests; timing comes from a calibrated
// cost model (Model) so benchmarks reproduce the *shape* of results measured
// on the paper's Mellanox InfiniHost testbed. Each node has one host CPU
// resource (the MPI library's processing) and one send and one receive port
// on its HCA; contention on those three resources is what creates — or
// destroys — the overlap the paper's schemes exploit.
package ib

import "repro/internal/verbs"

// Model aliases the backend-neutral cost model in internal/verbs; the
// parameter set and the cost functions live there so every backend (and the
// protocol layers) share one definition.
type Model = verbs.Model

// DefaultModel returns the calibrated testbed parameters. See DESIGN.md §5.
func DefaultModel() Model { return verbs.DefaultModel() }
