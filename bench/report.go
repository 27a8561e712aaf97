package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// metric is one reported number. Gated metrics are the ones BENCHMARK.json
// bounds; the rest (spreads, p99, model time, counts) are printed and stored
// but never decide a comparison.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Gated bool    `json:"gated,omitempty"`
}

// report is one workload's run: what -out stores and -repeat compares.
type report struct {
	Workload  string   `json:"workload"`
	Why       string   `json:"why"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     int      `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   []metric `json:"metrics"`
	Legs      []legOut `json:"legs,omitempty"`
	Machine   machine  `json:"machine"`
	SpanFile  string   `json:"span_file,omitempty"`
}

// legOut records how much one leg measured.
type legOut struct {
	Backend  string `json:"backend"`
	Ranks    int    `json:"ranks"`
	Ops      int    `json:"ops"`
	QuietOps int    `json:"quiet_ops"` // samples behind the timing metrics
	Segments int    `json:"segments"`
	GCs      uint32 `json:"gcs"`
}

// machine describes where the numbers were taken.
type machine struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1m"`
}

func (r *report) add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit})
}

func (r *report) gate(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit, Gated: true})
}

func (r *report) get(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// print writes one "workload metric value unit" line per metric and, last,
// the one-line JSON result the driver reads: the gated metrics only.
func (r *report) print(w io.Writer) {
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, m.Name, formatValue(m.Value), m.Unit)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%s error %s\n", r.Workload, strings.ReplaceAll(e, "\n", " | "))
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]val{}}
	for _, m := range r.Metrics {
		if m.Gated {
			last.Metrics[m.Name] = val{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(last)
	if err != nil {
		panic(err) // static struct of finite floats
	}
	fmt.Fprintf(w, "%s\n", b)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', 8, 64)
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func machineInfo() machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit(),
	}
	m.LoadAvg1, _ = loadAvg1()
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checkout; a checkout that is not a git repository (the
// driver's) reads "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func loadAvg1() (float64, bool) {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(f[0], 64)
	return v, err == nil
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
