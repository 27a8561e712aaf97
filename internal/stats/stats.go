// Package stats collects per-rank operation counters for the simulated MPI
// stack. Tests use counters to assert scheme contracts (for example, that the
// Multi-W scheme copies zero payload bytes) and the benchmark harness reports
// them alongside timing figures.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Counters accumulates per-rank event counts. All fields count occurrences
// unless the name says Bytes. The zero value is ready to use.
//
// Concurrency: every writer (both backends' fabrics and the protocol layers)
// increments fields with atomic.AddInt64, so one Counters value may be shared
// across the real-time fabric's node goroutines. Aggregate readers
// (BytesCopied, Add, Snapshot, String) load atomically and are safe to call
// while writers run; direct field reads are safe only after the run's
// goroutines have been joined.
type Counters struct {
	// Host memory-copy traffic, split by purpose.
	BytesPacked   int64 // user buffer -> staging (pack)
	BytesUnpacked int64 // staging -> user buffer (unpack)
	BytesStaged   int64 // staging -> staging (e.g. pack buffer -> eager buffer)

	// Memory registration activity.
	Registrations     int64
	RegisteredBytes   int64
	RegisteredPages   int64
	Deregistrations   int64
	DeregisteredPages int64
	RegCacheHits      int64
	RegCacheMisses    int64
	RegCacheEvictions int64

	// Dynamic staging-buffer management.
	DynamicAllocs int64
	DynamicFrees  int64
	PoolDisabled  int64 // staging was needed while segment pools were disabled
	PoolOverflow  int64 // a message needed more slots than the whole pool holds
	PoolExhausted int64 // a pool genuinely ran dry and a transfer parked waiting

	// Verbs-level activity.
	SendsPosted       int64 // channel-semantics sends
	RDMAWritesPosted  int64
	RDMAReadsPosted   int64
	DescriptorsPosted int64 // total descriptors, counting each list element
	ListPosts         int64 // list-post operations (each covers >=1 descriptor)
	SGEsPosted        int64
	RecvsPosted       int64
	// Completions counts completion entries actually generated, on either
	// queue: one per signaled or failed send-queue descriptor and one per
	// consumed receive credit. An unsignaled descriptor that succeeds
	// (verbs.SendWR.Unsignaled) generates none.
	Completions    int64
	ImmediatesSent int64

	// Protocol-level activity.
	EagerSends        int64
	RendezvousSends   int64
	CtrlMessages      int64
	TypeLayoutsSent   int64 // Multi-W datatype representations shipped
	TypeCacheHits     int64 // Multi-W sender-side datatype cache hits
	TypeCacheReplaced int64 // stale versions replaced
	SegmentsPipelined int64 // segments sent through BC-SPUP/RWG-UP pipelines

	// Parallel segment engine and doorbell batching.
	ParallelPacks   int64 // pack steps that fanned out across >1 worker shard
	ParallelUnpacks int64 // unpack steps that fanned out across >1 worker shard
	BatchedWRs      int64 // descriptors posted through multi-descriptor doorbells

	// Fault handling.
	FaultRetries   int64 // transient-fault retries (descriptors, registrations)
	RequestsFailed int64 // requests completed with a fault error
	PeerAborts     int64 // abort notifications received from a peer rank

	// Adaptive scheme tuning (internal/tuner via core.SchemeSelector).
	TunerExplorations  int64 // decisions taken to gather data, not because best
	TunerExploitations int64 // decisions following the current best estimate
	TunerRegretNs      int64 // summed latency paid above the best arm's estimate

	// Service-mode admission (internal/qos wired through the endpoint).
	QoSAdmitted int64 // bulk transfers admitted immediately
	QoSParked   int64 // bulk transfers parked by admission control
}

// field pairs a counter's name with a pointer to its value.
type field struct {
	name string
	p    *int64
}

// fields lists every counter field in declaration order. Both c's methods and
// the race tests iterate it so no accessor can miss a field.
func (c *Counters) fields() []field {
	return []field{
		{"BytesPacked", &c.BytesPacked},
		{"BytesUnpacked", &c.BytesUnpacked},
		{"BytesStaged", &c.BytesStaged},
		{"Registrations", &c.Registrations},
		{"RegisteredBytes", &c.RegisteredBytes},
		{"RegisteredPages", &c.RegisteredPages},
		{"Deregistrations", &c.Deregistrations},
		{"DeregisteredPages", &c.DeregisteredPages},
		{"RegCacheHits", &c.RegCacheHits},
		{"RegCacheMisses", &c.RegCacheMisses},
		{"RegCacheEvictions", &c.RegCacheEvictions},
		{"DynamicAllocs", &c.DynamicAllocs},
		{"DynamicFrees", &c.DynamicFrees},
		{"PoolDisabled", &c.PoolDisabled},
		{"PoolOverflow", &c.PoolOverflow},
		{"PoolExhausted", &c.PoolExhausted},
		{"SendsPosted", &c.SendsPosted},
		{"RDMAWritesPosted", &c.RDMAWritesPosted},
		{"RDMAReadsPosted", &c.RDMAReadsPosted},
		{"DescriptorsPosted", &c.DescriptorsPosted},
		{"ListPosts", &c.ListPosts},
		{"SGEsPosted", &c.SGEsPosted},
		{"RecvsPosted", &c.RecvsPosted},
		{"Completions", &c.Completions},
		{"ImmediatesSent", &c.ImmediatesSent},
		{"EagerSends", &c.EagerSends},
		{"RendezvousSends", &c.RendezvousSends},
		{"CtrlMessages", &c.CtrlMessages},
		{"TypeLayoutsSent", &c.TypeLayoutsSent},
		{"TypeCacheHits", &c.TypeCacheHits},
		{"TypeCacheReplaced", &c.TypeCacheReplaced},
		{"SegmentsPipelined", &c.SegmentsPipelined},
		{"ParallelPacks", &c.ParallelPacks},
		{"ParallelUnpacks", &c.ParallelUnpacks},
		{"BatchedWRs", &c.BatchedWRs},
		{"FaultRetries", &c.FaultRetries},
		{"RequestsFailed", &c.RequestsFailed},
		{"PeerAborts", &c.PeerAborts},
		{"TunerExplorations", &c.TunerExplorations},
		{"TunerExploitations", &c.TunerExploitations},
		{"TunerRegretNs", &c.TunerRegretNs},
		{"QoSAdmitted", &c.QoSAdmitted},
		{"QoSParked", &c.QoSParked},
	}
}

// BytesCopied reports total host copy traffic (pack + unpack + staging).
func (c *Counters) BytesCopied() int64 {
	return atomic.LoadInt64(&c.BytesPacked) +
		atomic.LoadInt64(&c.BytesUnpacked) +
		atomic.LoadInt64(&c.BytesStaged)
}

// Add accumulates o into c. o may be written concurrently; c gains a
// consistent per-field (not cross-field) snapshot of it.
func (c *Counters) Add(o *Counters) {
	of := o.fields()
	for i, f := range c.fields() {
		atomic.AddInt64(f.p, atomic.LoadInt64(of[i].p))
	}
}

// Snapshot returns a plain copy of the counters, loading each field
// atomically so it can be taken while writers run.
func (c *Counters) Snapshot() Counters {
	var out Counters
	of := out.fields()
	for i, f := range c.fields() {
		*of[i].p = atomic.LoadInt64(f.p)
	}
	return out
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	for _, f := range c.fields() {
		atomic.StoreInt64(f.p, 0)
	}
}

// String renders the non-zero counters, one per line, sorted by name.
func (c *Counters) String() string {
	fs := c.fields()
	names := make([]string, 0, len(fs))
	vals := make(map[string]int64, len(fs))
	for _, f := range fs {
		if v := atomic.LoadInt64(f.p); v != 0 {
			names = append(names, f.name)
			vals[f.name] = v
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%s=%d\n", k, vals[k])
	}
	return b.String()
}
