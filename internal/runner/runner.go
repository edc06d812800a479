// Package runner executes independent simulation points on a worker
// pool. The paper's evaluation is a large grid of independent runs
// (model variants x record counts x queries x ablations); each point
// owns a private single-threaded sim.Kernel, so the grid is
// embarrassingly parallel. RunJobs preserves the sequential contract:
// results come back ordered by submission index, so any consumer that
// folds them into figures or tables produces byte-identical output at
// every parallelism level. Each batch runs on its own private pool;
// the harness submits a whole suite as one batch, deduplicated by
// fingerprint before it gets here, so the pool width bounds
// concurrency suite-wide.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"bulkpim/internal/resultcache"
	"bulkpim/internal/sim"
	"bulkpim/internal/system"
)

// Job is one unit of work. Run builds whatever state the point needs —
// for simulation jobs, a fresh System — and returns its value. Anything
// the closure shares with sibling jobs (a generated workload, a query
// spec) must be read-only while the batch runs.
type Job[T any] struct {
	// Key stably identifies the point (e.g. "ycsb/records=100000/
	// model=scope"); errors are reported against it.
	Key string
	// Fingerprint content-addresses the point: a digest of everything
	// that determines its result (final config + workload identity).
	// With Options.Lookup/Store set, a non-empty Fingerprint makes the
	// job memoizable; empty means always execute.
	Fingerprint string
	Run         func() (T, error)
}

// JobResult pairs a job's outcome with its submission index. A failed
// or panicking job is captured in Err without disturbing its siblings.
type JobResult[T any] struct {
	Index int
	Key   string
	Value T
	Err   error
	// Cached marks a value served from Options.Lookup instead of
	// executed here. Cached and computed values are interchangeable:
	// the simulations are deterministic, so consumers produce
	// byte-identical output either way.
	Cached bool
	// Wall is the job's own wall-clock time (the batch's elapsed time
	// is bounded by the slowest chain, not this sum).
	Wall time.Duration
}

// Options configures a RunJobs batch.
type Options[T any] struct {
	// Parallelism caps concurrent workers; <= 0 means GOMAXPROCS.
	// Results are identical at every value.
	Parallelism int
	// OnResult, when non-nil, is invoked serially as jobs complete (in
	// completion order, which varies under parallelism). done counts
	// finished jobs including this one.
	OnResult func(done, total int, r JobResult[T])
	// Lookup, when non-nil, is consulted before executing any job with
	// a non-empty Fingerprint; a hit skips execution. Store, when
	// non-nil, receives every successful computed result for write-back.
	// Both must be safe for concurrent use.
	Lookup func(key, fingerprint string) (T, bool)
	Store  func(key, fingerprint string, v T)
}

func (o Options[T]) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// RunJobs executes jobs on a private worker pool, Options.Parallelism
// wide, and returns one JobResult per job, re-ordered by submission
// index: the same sequence a sequential loop would produce. One failed point does not abort the batch. With cache hooks
// set, each fingerprinted job is looked up before executing and its
// computed result written back after.
func RunJobs[T any](jobs []Job[T], opts Options[T]) []JobResult[T] {
	results := make([]JobResult[T], len(jobs))
	if len(jobs) == 0 {
		return results
	}
	var (
		mu   sync.Mutex // serializes OnResult
		done int
	)
	exec := func(i int) {
		start := time.Now()
		r := JobResult[T]{Index: i, Key: jobs[i].Key}
		if v, ok := cacheLookup(jobs[i], opts); ok {
			r.Value, r.Cached = v, true
		} else {
			r.Value, r.Err = runOne(jobs[i])
			if r.Err == nil && opts.Store != nil && jobs[i].Fingerprint != "" {
				opts.Store(jobs[i].Key, jobs[i].Fingerprint, r.Value)
			}
		}
		r.Wall = time.Since(start)
		results[i] = r
		if opts.OnResult != nil {
			mu.Lock()
			done++
			opts.OnResult(done, len(jobs), results[i])
			mu.Unlock()
		}
	}

	workers := opts.parallelism()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				exec(i)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// cacheLookup consults the batch's cache hook for a fingerprinted job.
func cacheLookup[T any](j Job[T], opts Options[T]) (v T, ok bool) {
	if opts.Lookup == nil || j.Fingerprint == "" {
		return v, false
	}
	return opts.Lookup(j.Key, j.Fingerprint)
}

// runOne invokes a job, converting a panic into a per-job error so a
// crashing point cannot take the whole sweep down.
func runOne[T any](j Job[T]) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	if j.Run == nil {
		return v, fmt.Errorf("nil Run")
	}
	return j.Run()
}

// SimJob is the concrete job shape of the experiment harness: one grid
// point, described by a stable key, a base machine configuration, an
// optional Config mutator (model selection, ablation switches), and an
// Execute that builds a fresh System for the final config and runs the
// workload the closure shares read-only with its siblings. Extra
// carries workload identity the Config cannot see — operation counts,
// seeds, query scale — and is folded into the cache fingerprint;
// omitting it for a sweep whose workload varies outside the Config
// would let differently-shaped runs alias in the result cache.
type SimJob struct {
	Key     string
	Base    system.Config
	Mutate  func(*system.Config)
	Execute func(system.Config) (system.Result, error)
	Extra   string
}

// Fingerprint content-addresses the point: a digest of the final
// (mutated) Config plus the Extra workload identity. Mutate must be a
// pure field-setter — it is applied to a fresh copy of Base here and
// again at run time. TraceWriter is excluded: tracing is observational
// and its sink is not part of the simulated machine.
func (j SimJob) FingerprintID() string {
	cfg := j.finalConfig()
	cfg.TraceWriter = nil
	return resultcache.Fingerprint(cfg, j.Extra)
}

func (j SimJob) finalConfig() system.Config {
	cfg := j.Base
	if j.Mutate != nil {
		j.Mutate(&cfg)
	}
	return cfg
}

// Run executes the point on a fresh copy of its final config, so
// Mutate never leaks across points.
func (j SimJob) Run() (system.Result, error) {
	if j.Execute == nil {
		return system.Result{}, fmt.Errorf("nil Execute")
	}
	return j.Execute(j.finalConfig())
}

// Job lowers the spec into a runnable job.
func (j SimJob) Job() Job[system.Result] {
	return Job[system.Result]{Key: j.Key, Fingerprint: j.FingerprintID(), Run: j.Run}
}

// SimJobs lowers a batch of specs.
func SimJobs(specs []SimJob) []Job[system.Result] {
	jobs := make([]Job[system.Result], len(specs))
	for i, s := range specs {
		jobs[i] = s.Job()
	}
	return jobs
}

// Summary is a batch's wall-clock / sim-cycle accounting.
type Summary struct {
	Jobs   int
	Failed int
	// Cached counts results served from the result cache instead of
	// executed.
	Cached int
	// Wall sums per-job wall time over executed (non-cached) jobs: the
	// compute the batch consumed, not its elapsed time. Cache hits are
	// excluded — they cost nothing.
	Wall time.Duration
	// Cycles sums simulated cycles over the successful jobs.
	Cycles sim.Tick
}

// Summarize folds a batch of simulation results into its accounting.
func Summarize(rs []JobResult[system.Result]) Summary {
	s := Summary{Jobs: len(rs)}
	for _, r := range rs {
		if r.Cached {
			s.Cached++
		} else {
			s.Wall += r.Wall
		}
		if r.Err != nil {
			s.Failed++
			continue
		}
		s.Cycles += r.Value.Cycles
	}
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("%d jobs (%d failed, %d cached), %d sim cycles, %s total job wall time",
		s.Jobs, s.Failed, s.Cached, s.Cycles, s.Wall.Round(time.Millisecond))
}
