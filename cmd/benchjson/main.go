// Command benchjson converts `go test -bench` output into the
// BENCH_sim_throughput.json artifact and gates paired speedups.
//
// Each benchmark line becomes a record carrying ns/op plus any custom
// metrics (events/sec, ns/row-bit). For every benchmark with a paired
// baseline in the same input — Foo / FooBitSerial (the bit-serial
// comparator reference) or Foo / FooRef (the reference-scheduler baselines) — the
// tool computes speedup = ns/op(baseline) / ns/op(Foo); the baseline is
// recorded in the same run, on the same machine, so the ratio is
// load-comparable.
//
//	go test -bench ... ./... | benchjson -min-speedup 3 -gate CmpConst,Schedule,Module > BENCH_sim_throughput.json
//
// With -min-speedup > 0, a gated pair below the threshold fails the
// run (exit 1) after writing the JSON, so CI still uploads the
// artifact that shows the regression. -gate selects which pairs the
// threshold applies to (default: every pair found).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed `go test -bench` result line. AllocsPerOp and
// BytesPerOp are first-class (from -benchmem's allocs/op and B/op columns)
// so allocation gates don't dig through Metrics.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the JSON document benchjson emits. AllocRatios maps each
// benchmark with a FooUnpooled counterpart to allocs/op(Foo) /
// allocs/op(FooUnpooled) — 0.5 means pooling removed half the
// allocations.
type Report struct {
	Benchmarks  []Benchmark        `json:"benchmarks"`
	Speedups    map[string]float64 `json:"speedups,omitempty"`
	AllocRatios map[string]float64 `json:"alloc_ratios,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	minSpeedup := fs.Float64("min-speedup", 0, "fail (exit 1) when a gated Foo/FooBitSerial pair is below this ratio (0 = report only)")
	gate := fs.String("gate", "", "comma-separated benchmark names the -min-speedup gate applies to (default: every pair)")
	maxAllocRatio := fs.Float64("max-alloc-ratio", 0, "fail (exit 1) when a gated Foo/FooUnpooled allocs/op ratio exceeds this (0 = report only); 0.5 requires pooling to remove half the allocations")
	allocGate := fs.String("alloc-gate", "", "comma-separated benchmark names the -max-alloc-ratio gate applies to (default: every Unpooled pair)")
	minMetric := fs.String("min-metric", "", "comma-separated Name:metric=value gates; fail (exit 1) when the named benchmark's metric is below value or missing (e.g. ServeWarm:hit-rate=0.99)")
	maxMetric := fs.String("max-metric", "", "comma-separated Name:metric=value gates; fail (exit 1) when the named benchmark's metric is above value or missing (e.g. ServeWarm:p99-ns=1e9)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	minGates, err := parseMetricGates(*minMetric)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: -min-metric: %v\n", err)
		return 2
	}
	maxGates, err := parseMetricGates(*maxMetric)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: -max-metric: %v\n", err)
		return 2
	}

	benches, err := parseBench(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 2
	}
	if len(benches) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines on stdin")
		return 2
	}
	report := Report{Benchmarks: benches, Speedups: speedups(benches), AllocRatios: allocRatios(benches)}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 2
	}

	fail := false
	if *minSpeedup > 0 {
		for _, name := range gatedNames(*gate, report.Speedups) {
			ratio, ok := report.Speedups[name]
			if !ok {
				fmt.Fprintf(stderr, "benchjson: gated pair for %s (no %s{%s} baseline) not found in input\n",
					name, name, strings.Join(baselineSuffixes, ","))
				fail = true
				continue
			}
			if ratio < *minSpeedup {
				fmt.Fprintf(stderr, "benchjson: %s speedup %.2fx below the %.2fx gate\n", name, ratio, *minSpeedup)
				fail = true
			} else {
				fmt.Fprintf(stderr, "benchjson: %s speedup %.2fx (gate %.2fx)\n", name, ratio, *minSpeedup)
			}
		}
	}
	if *maxAllocRatio > 0 {
		for _, name := range gatedNames(*allocGate, report.AllocRatios) {
			ratio, ok := report.AllocRatios[name]
			if !ok {
				fmt.Fprintf(stderr, "benchjson: alloc-gated pair for %s (no %sUnpooled baseline with allocs/op) not found in input\n", name, name)
				fail = true
				continue
			}
			if ratio > *maxAllocRatio {
				fmt.Fprintf(stderr, "benchjson: %s allocs/op ratio %.3f above the %.3f gate\n", name, ratio, *maxAllocRatio)
				fail = true
			} else {
				fmt.Fprintf(stderr, "benchjson: %s allocs/op ratio %.3f (gate %.3f)\n", name, ratio, *maxAllocRatio)
			}
		}
	}
	if len(minGates)+len(maxGates) > 0 {
		byName := map[string]Benchmark{}
		for _, b := range benches {
			byName[b.Name] = b
		}
		checkGate := func(g metricGate, min bool) {
			rel, bound := "above", "max"
			if min {
				rel, bound = "below", "min"
			}
			b, ok := byName[g.bench]
			if !ok {
				fmt.Fprintf(stderr, "benchjson: %s-metric gate: benchmark %s not found in input\n", bound, g.bench)
				fail = true
				return
			}
			v, ok := metricValue(b, g.metric)
			if !ok {
				fmt.Fprintf(stderr, "benchjson: %s-metric gate: %s has no %s metric\n", bound, g.bench, g.metric)
				fail = true
				return
			}
			if (min && v < g.value) || (!min && v > g.value) {
				fmt.Fprintf(stderr, "benchjson: %s %s %g %s the %g gate\n", g.bench, g.metric, v, rel, g.value)
				fail = true
				return
			}
			fmt.Fprintf(stderr, "benchjson: %s %s %g (%s gate %g)\n", g.bench, g.metric, v, bound, g.value)
		}
		for _, g := range minGates {
			checkGate(g, true)
		}
		for _, g := range maxGates {
			checkGate(g, false)
		}
	}
	if fail {
		return 1
	}
	return 0
}

// metricGate is one -min-metric/-max-metric bound: a threshold on a
// named benchmark's named metric.
type metricGate struct {
	bench, metric string
	value         float64
}

// parseMetricGates parses comma-separated Name:metric=value specs.
func parseMetricGates(s string) ([]metricGate, error) {
	if s == "" {
		return nil, nil
	}
	var out []metricGate
	for _, part := range strings.Split(s, ",") {
		bench, rest, ok := strings.Cut(part, ":")
		if !ok || bench == "" {
			return nil, fmt.Errorf("%q is not Name:metric=value", part)
		}
		metric, val, ok := strings.Cut(rest, "=")
		if !ok || metric == "" {
			return nil, fmt.Errorf("%q is not Name:metric=value", part)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("%q: bad value %q", part, val)
		}
		out = append(out, metricGate{bench: bench, metric: metric, value: v})
	}
	return out, nil
}

// metricValue reads one metric off a benchmark record; the three
// first-class columns are addressable by their go-bench unit names.
func metricValue(b Benchmark, metric string) (float64, bool) {
	switch metric {
	case "ns/op":
		return b.NsPerOp, b.NsPerOp > 0
	case "allocs/op":
		return b.AllocsPerOp, true
	case "B/op":
		return b.BytesPerOp, true
	}
	v, ok := b.Metrics[metric]
	return v, ok
}

// parseBench extracts benchmark result lines: name, iteration count,
// then (value, unit) pairs. GOMAXPROCS suffixes (-8) are stripped from
// names so pairing is machine-independent.
func parseBench(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // PASS/ok/header lines that happen to start with Benchmark
		}
		b := Benchmark{Name: benchName(fields[0]), Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", sc.Text(), fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
				continue
			case "allocs/op":
				b.AllocsPerOp = v
				continue
			case "B/op":
				b.BytesPerOp = v
				continue
			}
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[fields[i+1]] = v
		}
		out = append(out, b)
	}
	return out, sc.Err()
}

func benchName(s string) string {
	s = strings.TrimPrefix(s, "Benchmark")
	if i := strings.LastIndex(s, "-"); i > 0 {
		if _, err := strconv.Atoi(s[i+1:]); err == nil {
			s = s[:i]
		}
	}
	return s
}

// baselineSuffixes mark baseline benchmarks: FooBitSerial is Foo's
// bit-serial reference, FooRef its reference-scheduler (linear
// conflict scan) counterpart, FooUnpooled its pool-disabled allocation
// baseline.
var baselineSuffixes = []string{"BitSerial", "Ref", "Unpooled"}

// speedups pairs every Foo with its baseline-suffixed counterpart from
// the same run.
func speedups(benches []Benchmark) map[string]float64 {
	byName := map[string]Benchmark{}
	for _, b := range benches {
		byName[b.Name] = b
	}
	out := map[string]float64{}
	for name, base := range byName {
		for _, suffix := range baselineSuffixes {
			if !strings.HasSuffix(name, suffix) {
				continue
			}
			fast, ok := byName[strings.TrimSuffix(name, suffix)]
			if !ok || fast.NsPerOp <= 0 {
				continue
			}
			out[fast.Name] = base.NsPerOp / fast.NsPerOp
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// allocRatios pairs every Foo with its FooUnpooled baseline by allocs/op.
// A pair with a zero-allocation baseline is skipped (nothing to remove).
func allocRatios(benches []Benchmark) map[string]float64 {
	byName := map[string]Benchmark{}
	for _, b := range benches {
		byName[b.Name] = b
	}
	out := map[string]float64{}
	for name, base := range byName {
		if !strings.HasSuffix(name, "Unpooled") || base.AllocsPerOp <= 0 {
			continue
		}
		fast, ok := byName[strings.TrimSuffix(name, "Unpooled")]
		if !ok {
			continue
		}
		out[fast.Name] = fast.AllocsPerOp / base.AllocsPerOp
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// gatedNames resolves the -gate list; empty means every pair, sorted
// for stable diagnostics.
func gatedNames(gate string, pairs map[string]float64) []string {
	if gate != "" {
		var names []string
		for _, n := range strings.Split(gate, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		return names
	}
	names := make([]string, 0, len(pairs))
	for n := range pairs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
