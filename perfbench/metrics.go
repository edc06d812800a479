package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one metric the benchmark reports: its name, its unit and
// which direction is an improvement. The two tables below mirror the
// end_to_end and per_layer lists of BENCHMARK.json (a unit test keeps
// them in step).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the harness sees, reported by every
// untraced run. An op is one grid point (sweep workloads) or one HTTP
// request (serve-warm); a pass is one walk over every op of the
// workload. Times are at reference speed (ref.go).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},       // one pass over every op
	{"setup_s", "s", "lower"},      // median of several set-ups
	{"req_per_s", "1/s", "higher"}, // ops completed per second
	{"alloc_mb", "MB", "lower"},    // heap bytes allocated per pass
	{"peak_rss_mb", "MB", "lower"}, // peak resident set of the measuring process
}

// profileLayers are the packages a CPU-profile sample is attributed to
// (its innermost bulkpim frame). Samples in other bulkpim packages fold
// into other_bulkpim; samples without a bulkpim frame into runtime.
var profileLayers = []string{
	"sim", "cpu", "cache", "noc", "memctrl", "pim", "mem", "core", "system",
	"ycsb", "tpch", "pimdb", "resultcache", "serve", "bulkpim", "runner",
	"report", "stats", "other_bulkpim",
}

// perLayer are the metrics of the traced run.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range profileLayers {
		defs = append(defs, metricDef{l + ".self_pct", "%", "lower"})
	}
	return append(defs,
		metricDef{"runtime.other_pct", "%", "lower"},
		metricDef{"bench.profile_samples", "count", "higher"},
		metricDef{"bench.trace_overhead_pct", "%", "lower"},
		metricDef{"bench.host_slowdown", "ratio", "lower"}, // reference loop time / refNominal
		// Public calls timed from outside, per pass (s) or per call.
		metricDef{"ycsb.zipf_init_s", "s", "lower"},
		metricDef{"ycsb.gen_s", "s", "lower"},
		metricDef{"system.build_s", "s", "lower"},
		metricDef{"system.run_s", "s", "lower"},
		metricDef{"resultcache.store_us", "us", "lower"},
		metricDef{"resultcache.lookup_us", "us", "lower"},
		metricDef{"bulkpim.manifest_ms", "ms", "lower"},
		metricDef{"report.render_ms", "ms", "lower"},
		metricDef{"serve.p50_ms", "ms", "lower"},
		metricDef{"serve.p99_ms", "ms", "lower"},
		metricDef{"serve.submit_p50_ms", "ms", "lower"},
		metricDef{"serve.artifact_p50_ms", "ms", "lower"},
		metricDef{"serve.result_p50_ms", "ms", "lower"},
		// Simulated behaviour per pass: exact counts that a host-speed
		// change must leave unchanged, plus host cost per event.
		metricDef{"sim.events", "count", "lower"},
		metricDef{"sim.cycles", "count", "lower"},
		metricDef{"sim.ns_per_event", "ns", "lower"},
		metricDef{"sim.events_per_s", "1/s", "higher"},
		metricDef{"cpu.instrs", "count", "lower"},
		metricDef{"cpu.stalls", "count", "lower"},
		metricDef{"cache.llc_hits", "count", "higher"},
		metricDef{"cache.llc_misses", "count", "lower"},
		metricDef{"cache.scans", "count", "lower"},
		metricDef{"cache.sb_hit_rate", "ratio", "higher"},
		metricDef{"cache.sbv_skip_ratio", "ratio", "higher"},
		metricDef{"memctrl.loads", "count", "lower"},
		metricDef{"memctrl.writes", "count", "lower"},
		metricDef{"memctrl.pim_forwarded", "count", "lower"},
		metricDef{"memctrl.queue_len_mean", "count", "lower"},
		metricDef{"pim.ops_executed", "count", "lower"},
		metricDef{"core.violations", "count", "lower"},
		metricDef{"resultcache.hit_rate", "ratio", "higher"},
		metricDef{"system.allocs_per_event", "count", "lower"},
	)
}()

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle sample, averaging the middle two of an even
// count, or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult pairs every metric of defs with its value and unit. A metric
// missing from values, or a value that is not finite, is an error: the
// result line must name every metric with a number.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}

// write prints one "name value unit" line per metric, in table order,
// then the result as one JSON line.
func (r result) write(w io.Writer, defs []metricDef) error {
	for _, d := range defs {
		m := r.Metrics[d.Name]
		if _, err := fmt.Fprintf(w, "%-28s %16.6g %s\n", d.Name, m.Value, m.Unit); err != nil {
			return err
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
