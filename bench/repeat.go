package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself reads:
// the gated metrics and how far each may move.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readSpec finds BENCHMARK.json at the root of the checkout: the working
// directory under `go run -C bench`, or its parent.
func readSpec() (*benchmarkSpec, error) {
	var firstErr error
	for _, path := range []string{"../BENCHMARK.json", "BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchmarkSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// runRepeat runs the whole suite o.repeat times, every workload in a fresh
// process each time, and prints for every (workload, metric) the values, how
// far apart they are relative to their median, the bound BENCHMARK.json puts
// on the metric, and whether the runs agree within it. This is how the
// bounds were derived and how "two runs of the same code agree" is checked.
func runRepeat(o *options) int {
	spec, err := readSpec()
	if err != nil {
		fatalf("%v", err)
	}
	bound := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bound[m.Name] = m.Bound
	}
	runs := make([][]*report, o.repeat)
	code := 0
	for i := range runs {
		var c int
		runs[i], c = suite(o, fmt.Sprintf(".run%d", i+1))
		code = max(code, c)
		if len(runs[i]) != len(workloads) {
			fmt.Fprintf(os.Stderr, "bench: run %d lost a workload; nothing to compare\n", i+1)
			return 1
		}
	}
	fmt.Printf("\n# %d runs compared: workload metric values... spread bound verdict\n", o.repeat)
	disagree := 0
	for wi, wl := range workloads {
		for _, m := range runs[0][wi].Metrics {
			vals := make([]float64, 0, len(runs))
			for _, run := range runs {
				if v, ok := run[wi].get(m.Name); ok {
					vals = append(vals, v)
				}
			}
			line := fmt.Sprintf("%s %s", wl.name, m.Name)
			for _, v := range vals {
				line += " " + formatValue(v)
			}
			spread := relSpread(vals)
			b, gated := bound[m.Name]
			switch {
			case !gated:
				line += fmt.Sprintf(" %.4f - reported", spread)
			case spread <= b:
				line += fmt.Sprintf(" %.4f %.4f agree", spread, b)
			default:
				line += fmt.Sprintf(" %.4f %.4f DISAGREE", spread, b)
				disagree++
			}
			fmt.Println(line)
		}
	}
	fmt.Printf("# %d gated (workload, metric) pairs disagree\n", disagree)
	if disagree > 0 && code == 0 {
		code = 3
	}
	if o.out != "" {
		if err := writeJSON(o.out, runs); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}
	return code
}

// relSpread is (max − min) / median of the values: with two runs, their
// relative difference.
func relSpread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	if med == 0 {
		if s[0] == s[len(s)-1] {
			return 0
		}
		return math.Inf(1)
	}
	return (s[len(s)-1] - s[0]) / math.Abs(med)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
