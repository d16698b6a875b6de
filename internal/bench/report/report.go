// Package report is the unified benchmark-report schema shared by the
// repository's benchmark commands (maxoid-bench, maxoid-indexbench,
// maxoid-loadbench). Every command emits the same JSON shape — machine
// info, named sections, named metrics with units — so the continuous
// perf trajectory (BENCH_PR*.json artifacts and the CI regression
// gates) can be read, diffed, and gated by one loader regardless of
// which benchmark produced a file.
package report

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// Schema is the current report schema version. Bump it only for
// incompatible shape changes; additive fields do not require a bump.
const Schema = 1

// Machine describes the environment a report was measured on.
type Machine struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Metric is one named measurement. Value's meaning is given by Unit
// ("ops/s", "ns/op", "B/op", "allocs/op", "count", "ratio", ...).
// Latency metrics may carry quantiles (nanoseconds) alongside Value.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`

	P50  float64 `json:"p50_ns,omitempty"`
	P99  float64 `json:"p99_ns,omitempty"`
	P999 float64 `json:"p999_ns,omitempty"`
}

// Section groups the metrics of one scenario (one workload shape, one
// table, one configuration) together with the parameters that shaped
// it.
type Section struct {
	Name    string             `json:"name"`
	Params  map[string]float64 `json:"params,omitempty"`
	Notes   map[string]string  `json:"notes,omitempty"`
	Metrics []Metric           `json:"metrics"`
}

// Add appends a plain metric to the section and returns it for
// optional quantile decoration.
func (s *Section) Add(name, unit string, value float64) *Metric {
	s.Metrics = append(s.Metrics, Metric{Name: name, Unit: unit, Value: value})
	return &s.Metrics[len(s.Metrics)-1]
}

// Metric returns the named metric, if present.
func (s *Section) Metric(name string) (Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Report is one benchmark run.
type Report struct {
	Benchmark string            `json:"benchmark"` // generating command
	Schema    int               `json:"schema"`
	Command   string            `json:"command,omitempty"` // reproduction command line
	Machine   Machine           `json:"machine"`
	Notes     map[string]string `json:"notes,omitempty"`
	Sections  []Section         `json:"sections"`
}

// New starts a report for the named benchmark, stamped with the
// current machine.
func New(benchmark string) *Report {
	return &Report{
		Benchmark: benchmark,
		Schema:    Schema,
		Machine: Machine{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
}

// Section appends and returns a new named section.
func (r *Report) Section(name string) *Section {
	r.Sections = append(r.Sections, Section{Name: name})
	return &r.Sections[len(r.Sections)-1]
}

// Find returns the named section, if present.
func (r *Report) Find(name string) (*Section, bool) {
	for i := range r.Sections {
		if r.Sections[i].Name == name {
			return &r.Sections[i], true
		}
	}
	return nil, false
}

// Lookup resolves a "section/metric" path to its metric.
func (r *Report) Lookup(path string) (Metric, bool) {
	sec, met, ok := strings.Cut(path, "/")
	if !ok {
		return Metric{}, false
	}
	s, ok := r.Find(sec)
	if !ok {
		return Metric{}, false
	}
	return s.Metric(met)
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a report written by WriteFile. Reports with a newer
// schema than this package understands are rejected rather than
// misread.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("report %s: %w", path, err)
	}
	if r.Schema > Schema {
		return nil, fmt.Errorf("report %s: schema %d newer than supported %d", path, r.Schema, Schema)
	}
	return &r, nil
}

// Regression describes one gated metric's baseline comparison.
type Regression struct {
	Path     string // "section/metric"
	Baseline float64
	Current  float64
	Delta    float64 // fractional change, signed ((cur-base)/base)
	Failed   bool
}

// CompareHigherBetter gates a higher-is-better metric (throughput)
// against a baseline report: the result fails when current falls more
// than tolerance (fractional, e.g. 0.10) below baseline. Metrics
// missing from either side are not failures — they gate nothing.
func CompareHigherBetter(baseline, current *Report, path string, tolerance float64) (Regression, bool) {
	b, okB := baseline.Lookup(path)
	c, okC := current.Lookup(path)
	if !okB || !okC || b.Value <= 0 {
		return Regression{Path: path}, false
	}
	delta := (c.Value - b.Value) / b.Value
	return Regression{
		Path:     path,
		Baseline: b.Value,
		Current:  c.Value,
		Delta:    delta,
		Failed:   delta < -tolerance,
	}, true
}
