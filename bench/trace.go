package main

import (
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/trace"
)

// tracedDivisor shrinks a traced run's legs: it replays each workload three
// times per backend (untraced, traced, manual pack) beside the layer probes,
// and has to fit the same run length as an end-to-end run.
const tracedDivisor = 10

var schemes = []core.Scheme{core.SchemeGeneric, core.SchemeBCSPUP, core.SchemeRWGUP,
	core.SchemePRRS, core.SchemeMultiW}

// traced is the per-layer run of one workload: on every backend a short
// untraced leg, the same leg with a trace.Recorder, a stats.Registry and
// benchmark-owned spans attached, and the same exchange done by manual pack +
// contiguous send; then the layer probes on the workload's shapes.
func traced(wl *workload, o *options) *report {
	// Replay legs are repeated when disturbed only this long into the run.
	deadline := time.Now().Add(time.Duration(o.seconds * 0.8 * float64(time.Second)))
	rep := newReport(wl, o)
	log := newSpanLog(wl.name)
	log.start("", 1)
	q := &quiet{}
	pr := &prober{spans: log.rank(0), quiet: q, gauge: newGauge(), quick: o.quick}
	if !o.quick {
		pr.patience = time.Duration(o.seconds / 3 * float64(time.Second))
	}

	// The replays.
	var sim, simPlain legResult
	var simReg *stats.Registry
	for bi, b := range backends {
		spec := legSpec{wl: wl, backend: b, seed: o.seed, warm: wl.warm, reps: 1, quiet: q,
			ops: scaled(wl.ops[bi], o.seconds/tracedDivisor)}
		if o.quick {
			spec.quick, spec.warm = true, 2
		}
		plain := runQuiet(spec, rep, deadline)

		reg := stats.NewRegistry()
		spec.rec, spec.reg = trace.New(), reg
		spec.spans = log
		log.start(b, plain.ranks)
		tr := runQuiet(spec, rep, deadline)
		rep.add("trace.overhead_frac."+b, tr.p50.med/plain.p50.med-1, "1")

		spec.rec, spec.reg, spec.spans = nil, nil, nil
		spec.manual = true
		man := runQuiet(spec, rep, deadline)
		rep.add("expect.ddt_over_manual."+b, plain.p50.med/man.p50.med, "1")

		if b != mpi.BackendRT {
			rep.add("model_us."+b, plain.modelUS, "virtual_us")
		}
		if b == mpi.BackendSim {
			sim, simPlain, simReg = tr, plain, reg
		}
	}
	// The probes come after the replays, whose thousands of gauge readings
	// have by then told the prober what this machine reads when it is quiet.
	// Software layers on the workload's own shapes first.
	sp, msgs := pr.shapes(wl.shapes(o.seed))
	rep.add("datatype.runs_per_op", sp.runs*msgs, "count")
	rep.add("datatype.compile_us", sp.compileUS, "us")
	rep.add("datatype.walk_ns_per_run", sp.walkNS, "ns")
	rep.add("datatype.encode_us", sp.encodeUS, "us")
	rep.add("datatype.decode_us", sp.decodeUS, "us")
	rep.add("datatype.wire_bytes", sp.wire, "B")
	rep.add("pack.pack_us", sp.packUS, "us")
	rep.add("pack.unpack_us", sp.unpackUS, "us")
	rep.add("pack.copy_us", sp.copyUS, "us")
	rep.add("pack.pack_over_copy", sp.packUS/sp.copyUS, "1")
	rep.add("pack.ns_per_run", sp.packUS*1e3/sp.runs, "ns")
	rep.add("mem.ogr_us", sp.ogrUS, "us")
	rep.add("mem.regions_per_op", sp.regions*msgs, "count")
	rep.add("mem.register_miss_us", sp.missUS, "us")
	rep.add("mem.register_hit_ns", sp.hitNS, "ns")
	rep.add("core.descbuild_us", sp.descUS, "us")
	rep.add("core.select_ns", sp.selectNS, "ns")

	// The fabrics, the event engine, world set-up and the harness itself.
	fab := map[string]fabricProbe{}
	for _, b := range backends {
		f, err := pr.fabric(b)
		rep.note(err, "fabric probe "+b)
		fab[b] = f
		m := fabricModule[b]
		rep.add(m+".write_ns_per_wr", f.writeNS, "ns")
		rep.add(m+".allocs_per_wr", f.writeAllocs, "count")
		rep.add(m+".gather_ns_per_sge", f.gatherNS, "ns")
		rep.add(m+".read_ns_per_wr", f.readNS, "ns")
		rep.add(m+".send_ns_per_msg", f.sendNS, "ns")
		rep.add(m+".seg_copy_MBps", f.segCopyMBps, "MB/s")
	}
	eventNS, eventAllocs, switchNS := pr.simtime()
	rep.add("simtime.event_ns", eventNS, "ns")
	rep.add("simtime.allocs_per_event", eventAllocs, "count")
	rep.add("simtime.switch_ns", switchNS, "ns")
	barrierUS := map[string]float64{}
	for _, b := range backends {
		buildMS, barrier, err := pr.world(wl, b)
		rep.note(err, "world probe "+b)
		barrierUS[b] = barrier
		rep.add("mpi.world_build_ms."+b, buildMS, "ms")
		rep.add("mpi.barrier_us."+b, barrier, "us")
	}
	hNS, hAllocs, err := harnessOverhead(o.quick)
	rep.note(err, "harness probe")
	rep.add("harness.overhead_ns_per_op", hNS, "ns")
	rep.add("harness.allocs_per_op", hAllocs, "count")

	counterMetrics(rep, &sim, simReg, sp.bytes*msgs)
	rep.add("trace.events_per_op", float64(sim.events)/float64(sim.ops), "count")
	rep.add("model.util_cpu", sim.utilCPU, "1")
	rep.add("model.util_tx", sim.utilTx, "1")
	rep.add("model.util_rx", sim.utilRx, "1")

	acc := accounted(wl, &sp, msgs, fab[mpi.BackendSim], &sim.ctr, float64(sim.ops), rep, barrierUS[mpi.BackendSim])
	rep.add("layers.accounted_frac.sim", acc/simPlain.p50.med, "1")
	rep.add("layers.residual_us.sim", simPlain.p50.med-acc, "us")

	// Every per-layer metric is part of the result line.
	for i := range rep.Metrics {
		rep.Metrics[i].Gated = true
	}
	rep.finish()

	rep.SpanFile = o.traceOut
	if rep.SpanFile == "" {
		rep.SpanFile = filepath.Join(outDir, wl.name+".spans.json")
	}
	rep.note(log.write(rep.SpanFile), "span file")
	return rep
}

// runQuiet runs a short replay leg, and once more if the machine was
// disturbed for nearly all of it — these legs last under a second, which one
// burst of interference can cover — unless the run is past its deadline.
func runQuiet(spec legSpec, rep *report, deadline time.Time) legResult {
	res := runLeg(spec)
	rep.absorb(&res)
	if res.disturbed && res.err == nil && !spec.quick && time.Now().Before(deadline) {
		res = runLeg(spec)
		rep.absorb(&res)
	}
	return res
}

// note records a probe or file error; the run then reports itself incorrect.
func (r *report) note(err error, what string) {
	if err != nil {
		r.Errors = append(r.Errors, what+": "+err.Error())
		r.Failed++
		r.Attempted++
	}
}

// counterMetrics turns the counter deltas of the traced sim leg — taken over
// the timed intervals only, so harness barriers do not count — into per-op
// work counts and ratios.
func counterMetrics(rep *report, leg *legResult, reg *stats.Registry, payload float64) {
	c, ops := &leg.ctr, float64(leg.ops)
	per := func(v int64) float64 { return float64(v) / ops }
	frac := func(hit, miss int64) float64 {
		if hit+miss == 0 {
			return 1 // no lookups: nothing missed
		}
		return float64(hit) / float64(hit+miss)
	}
	rep.add("mem.reg_cache_hit_frac", frac(c.RegCacheHits, c.RegCacheMisses), "1")
	rep.add("mem.registrations_per_op", per(c.Registrations), "count")
	rep.add("mem.evictions_per_op", per(c.RegCacheEvictions), "count")
	rep.add("core.descriptors_per_op", per(c.DescriptorsPosted), "count")
	rep.add("core.sges_per_op", per(c.SGEsPosted), "count")
	rep.add("core.listposts_per_op", per(c.ListPosts), "count")
	rep.add("core.ctrl_msgs_per_op", per(c.CtrlMessages), "count")
	rep.add("core.segments_per_op", per(c.SegmentsPipelined), "count")
	rep.add("core.eager_frac", frac(c.EagerSends, c.RendezvousSends), "1")
	rep.add("core.copies_per_byte", per(c.BytesCopied())/payload, "1")
	rep.add("core.pool_parks_per_op", per(c.PoolExhausted), "count")
	rep.add("core.dynamic_allocs_per_op", per(c.DynamicAllocs), "count")
	rep.add("core.typecache_hit_frac", frac(c.TypeCacheHits, c.TypeLayoutsSent), "1")

	// Scheme shares come from the registry's per-scheme latency histograms
	// (lat_ns/<scheme>/<size class>), one observation per rendezvous message.
	count := map[string]int64{}
	var total int64
	for _, name := range reg.Histograms() {
		if rest, ok := strings.CutPrefix(name, "lat_ns/"); ok {
			scheme, _, _ := strings.Cut(rest, "/")
			n := reg.Histogram(name).Count()
			count[scheme] += n
			total += n
		}
	}
	for _, s := range schemes {
		share := 0.0
		if total > 0 {
			share = float64(count[s.String()]) / float64(total)
		}
		rep.add("core.scheme_share."+s.String(), share, "1")
	}
}

// accounted adds up, per op, what the layer probes say the work the counters
// saw should have cost on sim: Σ (layer time per unit × units per op). What
// it leaves of the measured op is matching, handshake and completion glue
// that no public function reaches.
func accounted(wl *workload, sp *shapeProbe, msgs float64, fab fabricProbe,
	c *stats.Counters, ops float64, rep *report, barrierUS float64) float64 {
	per := func(v int64) float64 { return float64(v) / ops }
	share := func(s core.Scheme) float64 {
		v, _ := rep.get("core.scheme_share." + s.String())
		return v
	}
	rndv := per(c.RendezvousSends)

	// pack: the probes' per-byte rates times the bytes the counters saw move.
	us := per(c.BytesPacked)*sp.packUS/sp.bytes + per(c.BytesUnpacked)*sp.unpackUS/sp.bytes +
		per(c.BytesStaged)*sp.copyUS/sp.bytes
	// datatype: a cold op compiles every message's type once per side pair;
	// every shipped layout is encoded once and decoded once.
	if wl.cold {
		us += msgs * sp.compileUS
	}
	us += per(c.TypeLayoutsSent) * (sp.encodeUS + sp.decodeUS)
	// mem: OGR runs once per registered user buffer (both sides under
	// Multi-W, one side under RWG-UP and P-RRS).
	ogrs := rndv * (2*share(core.SchemeMultiW) + share(core.SchemeRWGUP) + share(core.SchemePRRS))
	us += ogrs*sp.ogrUS + per(c.Registrations)*sp.missUS + per(c.RegCacheHits)*sp.hitNS/1e3
	// core: descriptor build scales with gather entries; Auto decides once
	// per rendezvous message.
	us += per(c.SGEsPosted) * sp.descUS / sp.runs
	if wl.autoSelect {
		us += rndv * sp.selectNS / 1e3
	}
	// fabric: a fixed cost per descriptor, per extra gather entry and per
	// channel message, plus the RDMA bytes at the segment copy rate.
	copyNSPerByte := 1e3 / fab.segCopyMBps
	fixed := func(perWR float64) float64 {
		if f := perWR - fabWrite*copyNSPerByte; f > 0 {
			return f
		}
		return 0
	}
	wrs := per(c.RDMAWritesPosted) + per(c.RDMAReadsPosted)
	ns := per(c.RDMAWritesPosted)*fixed(fab.writeNS) + per(c.RDMAReadsPosted)*fixed(fab.readNS) +
		(per(c.SGEsPosted)-wrs)*fab.gatherNS + per(c.SendsPosted)*fab.sendNS +
		rndv*sp.bytes*copyNSPerByte
	us += ns / 1e3
	// mpi: struct_alltoall's op ends in a barrier.
	if wl.barrierInOp {
		us += barrierUS
	}
	return us
}
