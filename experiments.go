package bulkpim

// Shared experiment-harness infrastructure: measurement scales, the
// Options value threaded through every phase, the serialized progress
// log, and the suite timing accounting. The experiments themselves are
// declared in the registry (registry.go) with one spec file per
// family: exp_ycsb.go, exp_tpch.go, exp_litmus.go, exp_tables.go.
// Planning and manifests live in plan.go, the coordinated fleet run in
// coordinate.go.

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"bulkpim/internal/workload/ycsb"
)

// Scale selects how much of the paper's measurement volume the harness
// reproduces. Distributions, scope counts and model behaviour are identical
// at every scale; only operation counts and sweep densities shrink.
type Scale string

const (
	// ScaleSmoke is the smallest scale: one record count, a handful of
	// operations — a CI smoke signal that every experiment still runs
	// end to end (seconds for the whole suite).
	ScaleSmoke Scale = "smoke"
	// ScaleBench is the minimal scale used by `go test -bench` (seconds
	// per figure).
	ScaleBench Scale = "bench"
	// ScaleQuick regenerates every figure's shape in minutes.
	ScaleQuick Scale = "quick"
	// ScaleMedium densifies the sweeps (tens of minutes).
	ScaleMedium Scale = "medium"
	// ScaleFull is the paper's measurement volume (1000 YCSB ops, 10 runs
	// per TPC-H query, full sweep densities). Expect hours sequentially;
	// use Parallelism to bound it by the slowest single point, or
	// spread the planned suite over a worker fleet (see coordinate.go).
	ScaleFull Scale = "full"
)

// Scales lists the valid measurement scales, smallest first.
func Scales() []Scale {
	return []Scale{ScaleSmoke, ScaleBench, ScaleQuick, ScaleMedium, ScaleFull}
}

// ValidScale reports whether s names a known scale.
func ValidScale(s Scale) bool {
	for _, v := range Scales() {
		if s == v {
			return true
		}
	}
	return false
}

// Options configures the experiment harness.
type Options struct {
	Scale Scale
	// Log receives progress lines; nil discards them. Every executor
	// serializes its calls (lockedLog), so Log need not be
	// goroutine-safe.
	Log func(format string, args ...interface{})
	// Seed lets repeated harness runs vary; 0 uses the default.
	Seed uint64
	// Parallelism caps concurrent simulation jobs; 0 uses GOMAXPROCS, 1
	// forces sequential execution. Every sweep's grid points are
	// independent simulations, so results — figures, tables, CSVs — are
	// byte-identical at every value.
	Parallelism int
	// Cache, when non-nil, memoizes finished grid points across harness
	// invocations: every simulation job is looked up by (key, config +
	// workload fingerprint) before executing and written back after.
	// The simulations are deterministic and results round-trip exactly
	// through the store, so cached and computed runs emit byte-identical
	// reports; an interrupted run resumes by skipping finished points,
	// and a run whose cache holds every planned point executes nothing
	// (the report pass of a coordinated suite).
	Cache *ResultCache
}

func (o Options) log(format string, args ...interface{}) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// lockedLog returns Log serialized behind one mutex (nil stays nil).
// The executors call it from many goroutines, while Log itself need
// not be goroutine-safe.
func (o Options) lockedLog() func(format string, args ...any) {
	if o.Log == nil {
		return nil
	}
	var mu sync.Mutex
	base := o.Log
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		base(format, args...)
	}
}

// ycsbRecordCounts returns the record-count sweep (x axis of Figs. 3/7/10..12).
func (o Options) ycsbRecordCounts() []int {
	switch o.Scale {
	case ScaleFull:
		return []int{100_000, 250_000, 500_000, 1_000_000, 2_000_000, 4_000_000,
			8_000_000, 16_000_000, 24_000_000, 32_000_000}
	case ScaleMedium:
		return []int{100_000, 500_000, 2_000_000, 8_000_000, 16_000_000, 32_000_000}
	case ScaleBench:
		return []int{100_000, 2_000_000}
	case ScaleSmoke:
		return []int{100_000}
	default:
		return []int{100_000, 500_000, 2_000_000, 8_000_000}
	}
}

func (o Options) ycsbOps() int {
	switch o.Scale {
	case ScaleFull:
		return 1000
	case ScaleMedium:
		return 60
	case ScaleBench:
		return 8
	case ScaleSmoke:
		return 4
	default:
		return 16
	}
}

func (o Options) tpchScale() float64 {
	switch o.Scale {
	case ScaleFull:
		return 1.0
	case ScaleMedium:
		return 0.1
	case ScaleBench, ScaleSmoke:
		return 0.01
	default:
		return 0.02
	}
}

// lastRecordsParams returns the parameter set of the sweep's largest
// YCSB workload — the database the ablation, sizing, multi-module and
// Fig. 9 YCSB batches all run against.
func (o Options) lastRecordsParams() ycsb.Params {
	counts := o.ycsbRecordCounts()
	return o.ycsbParams(counts[len(counts)-1], nil)
}

// ExperimentTiming is one experiment's wall-clock accounting inside an
// "all" suite: the time from suite start to the experiment's last
// artifact emission. Every experiment's jobs share one pool, so Wall
// is completion latency, not exclusive compute: static tables finish
// near zero, and the walls sum to more than the suite's elapsed time.
type ExperimentTiming struct {
	Name string
	Wall time.Duration
}

// TimingFooter renders a suite's timing accounting as one line,
// suitable for a report footer. Wall times vary run to run, so the
// footer belongs next to the other accounting (stderr in pimbench),
// not inside the byte-stable experiment reports. total sums the
// overlapping per-experiment walls; every wall counts from suite
// start, so it exceeds the suite's elapsed time.
func TimingFooter(timings []ExperimentTiming) string {
	var b strings.Builder
	b.WriteString("timing (overlapping):")
	var total time.Duration
	for _, t := range timings {
		total += t.Wall
		fmt.Fprintf(&b, " %s=%s", t.Name, t.Wall.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, " total=%s", total.Round(time.Millisecond))
	return b.String()
}
