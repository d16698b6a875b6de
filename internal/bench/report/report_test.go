package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRoundTripAndLookup(t *testing.T) {
	r := New("maxoid-bench")
	r.Command = "maxoid-bench -json r.json"
	sec := r.Section("table3")
	sec.Params = map[string]float64{"rows": 1000}
	sec.Add("throughput", "ops/s", 123456)
	m := sec.Add("latency", "ns/op", 8100)
	m.P50, m.P99, m.P999 = 7000, 21000, 40000

	path := filepath.Join(t.TempDir(), "r.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Benchmark != "maxoid-bench" || got.Schema != Schema || got.Command != r.Command {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Machine.GoVersion == "" || got.Machine.NumCPU < 1 || got.Machine.GOMAXPROCS < 1 {
		t.Fatalf("machine not stamped: %+v", got.Machine)
	}
	if len(got.Sections) != 1 || got.Sections[0].Name != "table3" || got.Sections[0].Params["rows"] != 1000 {
		t.Fatalf("sections = %+v", got.Sections)
	}
	ms := got.Sections[0].Metrics
	if len(ms) != 2 {
		t.Fatalf("metrics = %+v", ms)
	}
	if thr := ms[0]; thr.Name != "throughput" || thr.Unit != "ops/s" || thr.Value != 123456 {
		t.Fatalf("throughput = %+v", thr)
	}
	if lat := ms[1]; lat.Name != "latency" || lat.P50 != 7000 || lat.P99 != 21000 || lat.P999 != 40000 {
		t.Fatalf("quantiles lost: %+v", lat)
	}
}
