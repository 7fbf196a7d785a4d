package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is the subset of BENCHMARK.json the names must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNamesMatchBenchmark checks every printed metric name's
// alphabet and the name counts, and that the program's workloads and
// metrics match BENCHMARK.json exactly: names, units, directions, order.
func TestMetricNamesMatchBenchmark(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q uses characters outside letters, digits, _, . and -", d.name)
			}
			if seen[d.name] {
				t.Errorf("metric name %q used twice", d.name)
			}
			seen[d.name] = true
		}
	}
	match := func(kind string, prog []metricDef, file []benchMetric) {
		if len(prog) != len(file) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(prog), len(file))
			return
		}
		for i, d := range prog {
			if f := file[i]; f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("%s[%d]: program %+v, BENCHMARK.json %+v", kind, i, d, f)
			}
		}
	}
	match("end_to_end", endToEnd, bf.EndToEnd)
	match("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: program %q, BENCHMARK.json %q", i, w.name, bf.Workloads[i].Name)
		}
	}
}

// TestPrintedMetricsAreDeclared checks that a run's metric map carries
// exactly the declared names.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	var c checker
	c.attempted = 1
	res := c.result(plainMetrics(nil))
	if len(res.Metrics) != len(endToEnd) {
		t.Fatalf("plain run prints %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("plain run metric %q: %+v, declared unit %q", d.name, m, d.unit)
		}
	}
}
