package main

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/mem"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// quickOptions runs every leg at the smallest op count, one set-up, and
// cold_layouts on a small slab: enough to check bytes, names and counts.
func quickOptions(trace int) *options {
	return &options{seed: 7, seconds: 0.001, trace: trace, quick: true,
		traceOut: "", out: ""}
}

// gated returns the names of a report's gated metrics, checking on the way
// that every metric is named once, legally, and has a unit.
func gated(t *testing.T, rep *report) map[string]bool {
	t.Helper()
	seen, out := map[string]bool{}, map[string]bool{}
	for _, m := range rep.Metrics {
		if seen[m.Name] {
			t.Errorf("%s: metric %q emitted twice", rep.Workload, m.Name)
		}
		seen[m.Name] = true
		if !metricName.MatchString(m.Name) {
			t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", rep.Workload, m.Name)
		}
		if m.Unit == "" {
			t.Errorf("%s: metric %q has no unit", rep.Workload, m.Name)
		}
		if m.Gated {
			out[m.Name] = true
		}
	}
	return out
}

func sameNames(t *testing.T, what string, got map[string]bool, want []specMetric) {
	t.Helper()
	for _, m := range want {
		if !got[m.Name] {
			t.Errorf("%s: BENCHMARK.json names %q, the run did not emit it", what, m.Name)
		}
		delete(got, m.Name)
	}
	for name := range got {
		t.Errorf("%s: the run emitted %q, BENCHMARK.json does not name it", what, name)
	}
}

// TestEndToEnd runs every workload on all three backends, twice: bytes must
// verify, the gated metrics must be exactly BENCHMARK.json's end_to_end
// list, and virtual time must repeat exactly.
func TestEndToEnd(t *testing.T) {
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		a, b := measure(wl, quickOptions(0)), measure(wl, quickOptions(0))
		for _, rep := range []*report{a, b} {
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d errors=%v",
					wl.name, rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
			}
		}
		sameNames(t, wl.name, gated(t, a), spec.EndToEnd)
		for _, name := range []string{"model_us.sim", "model_us.shm"} {
			va, oka := a.get(name)
			vb, okb := b.get(name)
			if !oka || !okb || va != vb || va <= 0 {
				t.Errorf("%s: %s = %v and %v; want one positive value twice", wl.name, name, va, vb)
			}
		}
		if v, _ := a.get("failed_frac"); v != 0 {
			t.Errorf("%s: failed_frac = %v", wl.name, v)
		}
	}
}

// TestPerLayer runs the traced replay of every workload: it too must verify
// bytes, emit exactly BENCHMARK.json's per_layer list, and show the harness
// adding no allocations of its own.
func TestPerLayer(t *testing.T) {
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, wl := range workloads {
		o := quickOptions(1)
		o.traceOut = dir + "/" + wl.name + ".spans.json"
		rep := traced(wl, o)
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d errors=%v", wl.name, rep.Correct, rep.Failed, rep.Errors)
		}
		sameNames(t, wl.name, gated(t, rep), spec.PerLayer)
		if v, ok := rep.get("harness.allocs_per_op"); !ok || v != 0 {
			t.Errorf("%s: harness.allocs_per_op = %v, want 0", wl.name, v)
		}
		for _, m := range rep.Metrics {
			if strings.HasPrefix(m.Name, "core.scheme_share.") && (m.Value < 0 || m.Value > 1) {
				t.Errorf("%s: %s = %v", wl.name, m.Name, m.Value)
			}
		}
	}
}

// TestWorkloadsMatchSpec keeps BENCHMARK.json's workload list and the code's
// in step.
func TestWorkloadsMatchSpec(t *testing.T) {
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestOracleCatchesDamage damages a delivered message three ways and expects
// the checksum to notice each: an oracle that cannot fail checks nothing.
func TestOracleCatchesDamage(t *testing.T) {
	lay := flatten(eagerType, 1)
	if lay.bytes != 256 || len(lay.runs) != 64 {
		t.Fatalf("eagerType flattens to %d bytes in %d runs", lay.bytes, len(lay.runs))
	}
	m := mem.NewMemory("oracle", 1<<20)
	a, b := m.MustAlloc(lay.span), m.MustAlloc(lay.span)
	src := newStamped(&lay, m, a, newRNG(1, "oracle"), 3)
	want := src.stamp(41)
	delivered := m.Bytes(b, lay.span)
	copy(delivered, m.Bytes(a, lay.span))
	if got := lay.checksum(m, b); got != want {
		t.Fatalf("intact copy: checksum %x, want %x", got, want)
	}
	if src.stamp(42) == want {
		t.Error("the next op's stamp has the same checksum")
	}
	word := func(i int) []byte { return delivered[lay.runs[i].off : lay.runs[i].off+4] }
	word(5)[0] ^= 1
	if lay.checksum(m, b) == want {
		t.Error("a flipped bit went unnoticed")
	}
	word(5)[0] ^= 1
	var tmp [4]byte
	copy(tmp[:], word(7))
	copy(word(7), word(9))
	copy(word(9), tmp[:])
	if lay.checksum(m, b) == want {
		t.Error("two swapped runs went unnoticed")
	}
	lay.scrub(m, b)
	if lay.checksum(m, b) == want {
		t.Error("a scrubbed buffer passed")
	}
}
