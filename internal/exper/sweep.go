package exper

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Doc is a sweep's result: it marshals to the artifact's JSON and renders
// the text table dtbench prints.
type Doc interface{ Table() string }

// Options are the knobs dtbench's flags turn on a sweep. The zero value is
// how every committed artifact was recorded, and what Guard runs.
type Options struct {
	BenchIters int               // backends: round trips per cell (0 = 50)
	TunerMsgs  int               // tuner: messages per mode (0 = 160)
	Mut        func(*mpi.Config) // backends: edits each world's configuration
	Trace      *trace.Recorder   // backends: per-message spans, namespaced "backend/scheme/rankN"
	Metrics    *stats.Registry   // backends: per-scheme latency/bandwidth histograms
}

// Sweep is one row of the measurement table: a named experiment, the
// artifact in the repository root it regenerates, and which part of that
// document reproduces byte-for-byte.
type Sweep struct {
	Name     string
	Artifact string
	// Backends is what Run accepts, in presentation order.
	Backends []string
	// DetKey is the member of the document that is deterministic when Run is
	// given DetBackends; "" means the whole document. A sweep with no
	// DetBackends has nothing to guard: its rows mix virtual and wall-clock
	// fields.
	DetKey      string
	DetBackends []string
	Run         func(backends []string, o Options) (Doc, error)
}

var (
	simOnly = []string{mpi.BackendSim}
	simRT   = []string{mpi.BackendSim, mpi.BackendRT}
)

// Sweeps is the table: every BENCH_*.json / SOAK_*.json this package owns is
// one row here, and `dtbench run` / `dtbench guard` are loops over it.
var Sweeps = []Sweep{
	{Name: "backends", Artifact: "BENCH_backends.json", Backends: mpi.AllBackends, Run: backendsSweep},
	{Name: "tuner", Artifact: "BENCH_tuner.json", Backends: simOnly, DetBackends: simOnly, Run: tunerSweep},
	{Name: "parallel", Artifact: "BENCH_parallel.json", Backends: simRT, DetKey: "sim_rows", DetBackends: simOnly, Run: parallelSweep},
	{Name: "compile", Artifact: "BENCH_compile.json", Backends: []string{"sim", "host"}, DetKey: "sim_rows", DetBackends: simOnly, Run: compilerSweep},
	{Name: "soak", Artifact: "SOAK_traffic.json", Backends: simOnly, DetBackends: simOnly, Run: soakSweep},
	{Name: "scale", Artifact: "BENCH_scale.json", Backends: simRT, DetKey: "sim_rows", DetBackends: simOnly, Run: scaleSweep},
	{Name: "zoo", Artifact: "BENCH_zoo.json", Backends: zooBackends, DetKey: "modeled_rows", DetBackends: []string{mpi.BackendSim, mpi.BackendSHM}, Run: zooSweep},
}

// Lookup returns the named sweep, or nil.
func Lookup(name string) *Sweep {
	for i := range Sweeps {
		if Sweeps[i].Name == name {
			return &Sweeps[i]
		}
	}
	return nil
}

// Encode renders a document as its artifact's bytes.
func Encode(doc Doc) ([]byte, error) {
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}

// Guard regenerates the sweep's deterministic part and compares it
// byte-for-byte, whitespace aside, against the same part of the committed
// artifact. A mismatch means virtual timing drifted or the file is stale.
func (s *Sweep) Guard(committed []byte) error {
	doc, err := s.Run(s.DetBackends, Options{})
	if err != nil {
		return err
	}
	return s.compare(doc, committed)
}

func (s *Sweep) compare(doc Doc, committed []byte) error {
	encoded, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	fresh, err := s.detPart(encoded)
	if err != nil {
		return err
	}
	want, err := s.detPart(committed)
	if err != nil {
		return fmt.Errorf("%s guard: bad committed %s: %w", s.Name, s.Artifact, err)
	}
	if !bytes.Equal(fresh, want) {
		return fmt.Errorf("%s guard: %s drifted from a fresh run\ncommitted: %s\nfresh:     %s",
			s.Name, s.Part(), want, fresh)
	}
	return nil
}

// Part names what of the artifact the guard compares.
func (s *Sweep) Part() string {
	if s.DetKey == "" {
		return s.Artifact
	}
	return s.DetKey + " of " + s.Artifact
}

// detPart extracts the deterministic part of an encoded document, compacted.
func (s *Sweep) detPart(doc []byte) ([]byte, error) {
	if s.DetKey != "" {
		var members map[string]json.RawMessage
		if err := json.Unmarshal(doc, &members); err != nil {
			return nil, err
		}
		var ok bool
		if doc, ok = members[s.DetKey]; !ok {
			return nil, fmt.Errorf("no %q member", s.DetKey)
		}
	}
	var out bytes.Buffer
	err := json.Compact(&out, doc)
	return out.Bytes(), err
}

// concat joins a document's row parts for its table.
func concat[R any](parts ...[]R) []R {
	var out []R
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// cell formats a table value, "-" for a field the row's backend leaves empty.
func cell(v float64, format string) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf(format, v)
}
