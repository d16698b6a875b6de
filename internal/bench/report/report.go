// Package report is the benchmark-report schema shared by the
// repository's benchmark commands (maxoid-bench -json and
// maxoid-indexbench). Every command emits the same JSON shape — machine
// info, named sections, named metrics with units — so their output
// files read alike regardless of which benchmark produced them.
package report

import (
	"encoding/json"
	"os"
	"runtime"
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

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
