package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	for _, tc := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 7 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// With 1000 samples, p99 leaves exactly ten samples above it.
	var many []float64
	for i := 1; i <= 1000; i++ {
		many = append(many, float64(i))
	}
	if got := percentile(many, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{4}, 4}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestResultLine(t *testing.T) {
	defs := []metricDef{{"wall_s", "s", "lower"}, {"req_per_s", "1/s", "higher"}}
	if _, err := newResult(defs, map[string]float64{"wall_s": 1}, 1, 0); err == nil {
		t.Error("a missing metric was not an error")
	}
	if _, err := newResult(defs, map[string]float64{"wall_s": math.NaN(), "req_per_s": 1}, 1, 0); err == nil {
		t.Error("a NaN metric was not an error")
	}
	r, err := newResult(defs, map[string]float64{"wall_s": 1.25, "req_per_s": 3, "extra": 9}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := r.write(&out, defs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want two metric lines and the JSON line, got:\n%s", out.String())
	}
	for i, d := range defs {
		f := strings.Fields(lines[i])
		if len(f) != 3 || f[0] != d.Name || f[2] != d.Unit {
			t.Errorf("line %d = %q, want name, value and unit of %s", i, lines[i], d.Name)
		}
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"correct": false, "attempted": 5.0, "failed": 1.0,
		"metrics": map[string]any{
			"wall_s":    map[string]any{"value": 1.25, "unit": "s"},
			"req_per_s": map[string]any{"value": 3.0, "unit": "1/s"},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result line = %v, want %v", got, want)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables in step
// with the benchmark definition the runs are checked against.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no benchmark definition: %v", err)
	}
	var def struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\ntable:\n%v", def.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(def.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\ntable:\n%v", def.PerLayer, perLayer)
	}
}
