package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/trace"
)

// Scheme selection (Section 6, grown adaptive). The receiver makes the
// CTS-authoritative choice for every rendezvous message. With
// Config.Scheme != SchemeAuto the configured scheme is used unconditionally;
// under SchemeAuto the static threshold heuristic of Section 6 decides —
// unless a SchemeSelector is plugged into Config.Selector, in which case the
// selector (internal/tuner's measurement-driven Tuner) chooses among the
// eligible schemes and is fed the completion latency of every transfer it
// decided, closing the measure-select loop the static constants cannot.

// SelectorInput describes one rendezvous message at scheme-choice time, as
// the receiver sees it: the sender's layout summary from the RTS and the
// receiver's from its posted datatype. Averages are normalized the way the
// static heuristic reads them — a contiguous side reports the whole message
// as one run.
type SelectorInput struct {
	Peer    int   // sender rank
	Bytes   int64 // effective payload bytes
	SAvg    int64 // sender average contiguous run length
	SContig bool  // sender layout contiguous
	RRuns   int64 // receiver flattened run count
	RAvg    int64 // receiver average contiguous run length
	RContig bool  // receiver layout contiguous

	// Eligible lists the schemes a selector may pick for this shape; every
	// member delivers byte-identical data (the cross-backend conformance
	// suite pins that), so eligibility encodes policy, not correctness.
	Eligible []Scheme

	// Static is what the Section 6 threshold heuristic picks — the
	// selector's fallback and its regret baseline.
	Static Scheme
}

// SchemeDecision is a selector's verdict for one message.
type SchemeDecision struct {
	Scheme    Scheme
	Explored  bool   // chosen to gather data rather than because it looks best
	Rationale string // human-readable why, carried into the decision trace instant
}

// SchemeSelector replaces the static Auto heuristic with external
// per-message selection. Choose runs on the receiver at CTS time; Observe is
// called once per completed transfer with the measured receive latency and
// returns a regret proxy in nanoseconds (0 when the choice matched the best
// current estimate). Implementations must be safe for concurrent use: on the
// real-time backend every rank calls in from its own goroutine.
type SchemeSelector interface {
	Choose(in SelectorInput) SchemeDecision
	Observe(in SelectorInput, chosen Scheme, latencyNs int64) (regretNs int64)
}

// The eligible-scheme sets are fixed per shape class, so they are built
// once; callers treat them as read-only.
var (
	eligibleContig  = []Scheme{SchemeGeneric}
	eligibleNoReuse = []Scheme{SchemeGeneric, SchemeBCSPUP}
	eligibleAll     = []Scheme{SchemeGeneric, SchemeBCSPUP, SchemeRWGUP, SchemePRRS, SchemeMultiW}
)

// eligibleSchemes lists the schemes a selector may choose for this shape.
// Both sides contiguous collapses to the single zero-copy write; without the
// buffer-reuse hint the copy-reduced schemes are excluded because user-buffer
// registration will not amortize (the MPI_Info rule of Section 6).
func eligibleSchemes(cfg *Config, sContig, rContig bool) []Scheme {
	if sContig && rContig {
		return eligibleContig
	}
	if !cfg.BuffersReused {
		return eligibleNoReuse
	}
	return eligibleAll
}

// autoBlockThreshold: if both sides' average contiguous run reaches this many
// bytes, Multi-W is chosen (the "several KBytes" rule of Section 6).
const autoBlockThreshold = 4 << 10

// autoScheme is the decision half of AutoChoice: the Section 6 thresholds
// with no rationale formatting, so the untraced warm path pays no Sprintf.
func autoScheme(cfg *Config, in SelectorInput) Scheme {
	if in.SContig && in.RContig {
		return SchemeGeneric
	}
	if !cfg.BuffersReused {
		return SchemeBCSPUP
	}
	switch {
	case in.SAvg >= autoBlockThreshold && in.RAvg >= autoBlockThreshold:
		return SchemeMultiW
	case in.SContig && in.RAvg >= cfg.AutoGatherThreshold:
		return SchemePRRS
	case in.SAvg >= cfg.AutoGatherThreshold:
		return SchemeRWGUP
	default:
		return SchemeBCSPUP
	}
}

// AutoChoice is the static Section 6 heuristic as a pure function of the
// message shape: fixed layout thresholds decide, and the rationale string
// records which rule fired. It is the behavior SchemeAuto has always had and
// the fallback (and regret baseline) when a selector is plugged in.
func AutoChoice(cfg *Config, in SelectorInput) (Scheme, string) {
	s := autoScheme(cfg, in)
	if in.SContig && in.RContig {
		return s, "both sides contiguous: one zero-copy write"
	}
	if !cfg.BuffersReused {
		return s, "buffers not reused: registration will not amortize"
	}
	switch s {
	case SchemeMultiW:
		return s, fmt.Sprintf("savg %d and ravg %d reach block threshold %d",
			in.SAvg, in.RAvg, autoBlockThreshold)
	case SchemePRRS:
		return s, fmt.Sprintf("contiguous sender, ravg %d reaches gather threshold %d",
			in.RAvg, cfg.AutoGatherThreshold)
	case SchemeRWGUP:
		return s, fmt.Sprintf("savg %d reaches gather threshold %d",
			in.SAvg, cfg.AutoGatherThreshold)
	default:
		return s, fmt.Sprintf("savg %d below gather threshold %d: staged pipeline",
			in.SAvg, cfg.AutoGatherThreshold)
	}
}

// selectorInput assembles the per-message shape summary for scheme choice.
// Only the Auto path asks for the receiver-side layout summary.
func (ep *Endpoint) selectorInput(inb *inbound, req *Request, eff int64) SelectorInput {
	in := SelectorInput{
		Peer:    inb.src,
		Bytes:   eff,
		SAvg:    inb.sAvg,
		SContig: inb.sContig,
		RContig: req.dt.Contig(),
	}
	if in.SContig {
		in.SAvg = inb.size
	}
	if in.RContig {
		in.RAvg = req.dt.Size() * int64(req.count)
		in.RRuns = 1
	} else {
		in.RRuns, in.RAvg = ep.layoutSummary(req.dt, req.count)
	}
	in.Eligible = eligibleSchemes(&ep.cfg, in.SContig, in.RContig)
	return in
}

// decideScheme picks the transfer scheme for a matched rendezvous message
// and emits the decision trace instant (chosen scheme + rationale). Under
// SchemeAuto the message's shape summary is built in *sel, which the caller
// owns (the receive op keeps it, so the decision allocates nothing); with a
// Selector the second result is true and *sel is what completion feeds the
// measured latency back with.
func (ep *Endpoint) decideScheme(inb *inbound, req *Request, eff int64, sel *SelectorInput) (Scheme, bool) {
	if ep.cfg.Scheme != SchemeAuto {
		ep.markDecision(inb.opID, ep.cfg.Scheme, "fixed: ", "configured scheme")
		return ep.cfg.Scheme, false
	}
	*sel = ep.selectorInput(inb, req, eff)
	in := sel
	static := autoScheme(&ep.cfg, *in)
	in.Static = static
	if ep.cfg.Selector == nil {
		if ep.cfg.Tracer != nil {
			// Rationale strings are only formatted when a tracer consumes
			// them — the untraced warm path decides without allocating.
			_, why := AutoChoice(&ep.cfg, *in)
			ep.markDecision(inb.opID, static, "static: ", why)
		}
		return static, false
	}
	d := ep.cfg.Selector.Choose(*in)
	scheme := d.Scheme
	if !schemeIn(in.Eligible, scheme) {
		// A selector must never force an ineligible scheme onto the wire;
		// fall back to the static rule and say so in the trace.
		scheme = static
		d.Explored = false
		if ep.cfg.Tracer != nil {
			_, why := AutoChoice(&ep.cfg, *in)
			d.Rationale = fmt.Sprintf("selector returned ineligible %v, falling back: %s", d.Scheme, why)
		}
	}
	if d.Explored {
		atomic.AddInt64(&ep.ctr.TunerExplorations, 1)
	} else {
		atomic.AddInt64(&ep.ctr.TunerExploitations, 1)
	}
	ep.markDecision(inb.opID, scheme, "tuned: ", d.Rationale)
	return scheme, true
}

// markDecision records the scheme-decision instant on the msg lane: which
// scheme this receiver's CTS will carry, and why. The prefix/why split keeps
// the concatenation off the untraced path.
func (ep *Endpoint) markDecision(opID uint32, s Scheme, prefix, why string) {
	if ep.cfg.Tracer == nil {
		return
	}
	ep.cfg.Tracer.Mark(ep.node, trace.LaneMsg, "decide "+s.String()+": "+prefix+why, "decision", uint64(opID), ep.tnow())
}

func schemeIn(list []Scheme, s Scheme) bool {
	for _, e := range list {
		if e == s {
			return true
		}
	}
	return false
}
