package bulkpim

// Tests for the executor (execute) on in-process workers and synthetic
// suites: the registry is swapped for small specs whose jobs count,
// fail, panic or block on demand, so dedup, fan-out, failure and panic
// capture, the cache, the concurrency bound and fail-fast planning are
// checked — directly and through the public entry points — without
// simulating anything.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bulkpim/internal/coord"
)

// withRegistry replaces the experiment registry for one test.
func withRegistry(t *testing.T, specs ...ExperimentSpec) {
	t.Helper()
	saved := registry
	registry = specs
	t.Cleanup(func() { registry = saved })
}

// synthJob is a job whose fingerprint is fixed by identity: equal
// identities under different keys alias one simulation.
func synthJob(key, identity string, run func() (Result, error)) SimJob {
	return SimJob{Key: key, Base: DefaultConfig(), Extra: "synthetic:" + identity,
		Execute: countExec(func(Config) (Result, error) { return run() })}
}

// synthSpec declares an experiment over jobs. Without arts it has one
// artifact, named after the experiment, listening on every job key.
// Each artifact renders as its name followed by its keys.
func synthSpec(name string, jobs []SimJob, arts ...Artifact) ExperimentSpec {
	if len(arts) == 0 {
		a := Artifact{Name: name}
		for _, j := range jobs {
			a.Keys = append(a.Keys, j.Key)
		}
		arts = []Artifact{a}
	}
	return ExperimentSpec{
		Name:      name,
		Plan:      func(Options) ([]SimJob, error) { return jobs, nil },
		Artifacts: func(Options) []Artifact { return arts },
		Render: func(_ Options, artifact string, rs *ResultSet) ([]ReportItem, error) {
			for _, a := range arts {
				if a.Name != artifact {
					continue
				}
				out := a.Name
				for _, k := range a.Keys {
					r, ok := rs.Lookup(k)
					if !ok {
						return nil, fmt.Errorf("missing %s", k)
					}
					out += fmt.Sprintf(" %s=%d", k, r.Cycles)
				}
				return []ReportItem{textItem(out)}, nil
			}
			return nil, fmt.Errorf("unknown artifact %q", artifact)
		},
	}
}

// textItem is a synthetic artifact's one report item: the same text as
// report and as CSV.
type textItem string

func (t textItem) String() string { return string(t) }
func (t textItem) CSV() string    { return string(t) }

// TestExecuteParallelismBound: the executor runs a whole suite as one
// batch, so the number of simulations running at once never exceeds
// Parallelism across all experiments together, and every job still
// lands in its own experiment's report.
func TestExecuteParallelismBound(t *testing.T) {
	var inflight, peak atomic.Int32
	run := func() (Result, error) {
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
		}
		time.Sleep(2 * time.Millisecond)
		return Result{Cycles: 1}, nil
	}
	var specs []ExperimentSpec
	for e := 0; e < 4; e++ {
		var jobs []SimJob
		for i := 0; i < 6; i++ {
			key := fmt.Sprintf("e%d/j%d", e, i)
			jobs = append(jobs, synthJob(key, key, run))
		}
		specs = append(specs, synthSpec(fmt.Sprintf("e%d", e), jobs))
	}
	withRegistry(t, specs...)

	for _, width := range []int{1, 3} {
		peak.Store(0)
		before := execCount.Load()
		out, err := RunExperiment("all", Options{Scale: ScaleSmoke, Parallelism: width})
		if err != nil {
			t.Fatal(err)
		}
		if got := execCount.Load() - before; got != 24 {
			t.Fatalf("width %d: %d executions, want 24", width, got)
		}
		if got := peak.Load(); got > int32(width) {
			t.Fatalf("width %d: %d simulations ran at once", width, got)
		}
		for e := 0; e < 4; e++ {
			if !strings.Contains(out, fmt.Sprintf("==== e%d ====\ne%d e%d/j0=1", e, e, e)) {
				t.Fatalf("width %d: report lacks experiment e%d:\n%s", width, e, out)
			}
		}
	}
}

// TestExecuteFailedGroupFansOut: a failing fingerprint group executes
// once, stores nothing under any of its keys — canonical, alias or
// same-key twin — and fails every artifact listening on any of them,
// while its siblings' artifacts and cache entries are unaffected. The
// report keeps an experiment's surviving artifacts under its header.
func TestExecuteFailedGroupFansOut(t *testing.T) {
	var badRuns atomic.Int32
	bad := func() (Result, error) {
		badRuns.Add(1)
		return Result{}, errors.New("boom")
	}
	ok := func() (Result, error) { return Result{Cycles: 7}, nil }
	withRegistry(t,
		synthSpec("ta", []SimJob{synthJob("ta/bad", "bad", bad), synthJob("ta/ok", "ta-ok", ok)}),
		synthSpec("tb", []SimJob{
			synthJob("tb/alias", "bad", bad), // aliases ta/bad's fingerprint
			synthJob("ta/bad", "bad", bad),   // same-key twin of ta/bad
			synthJob("tb/ok", "tb-ok", ok),
		},
			Artifact{Name: "tb", Keys: []string{"tb/alias"}},
			Artifact{Name: "tb2", Keys: []string{"tb/ok"}},
			Artifact{Name: "tb3", Keys: []string{"ta/bad"}}),
	)
	cache, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	var out bytes.Buffer
	failed := map[string]bool{}
	_, err = StreamReport("all", Options{Scale: ScaleSmoke, Parallelism: 2, Cache: cache}, func(e StreamEmit) {
		failed[e.Experiment+"/"+e.Artifact] = e.Err != nil
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("run error %v, want the group's failure", err)
	}
	if n := badRuns.Load(); n != 1 {
		t.Fatalf("failing group executed %d times, want 1", n)
	}
	want := map[string]bool{"ta/ta": true, "tb/tb": true, "tb/tb2": false, "tb/tb3": true}
	for a, f := range want {
		if got, seen := failed[a]; !seen || got != f {
			t.Errorf("artifact %s: emitted=%v failed=%v, want failed=%v", a, seen, got, f)
		}
		if f && !strings.Contains(err.Error(), a+": ") {
			t.Errorf("run error does not name failed artifact %s: %v", a, err)
		}
	}
	if got, want := out.String(), "==== tb ====\ntb2 tb/ok=7\n\n"; got != want {
		t.Errorf("report %q, want %q", got, want)
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d entries, want only the 2 successful keys", cache.Len())
	}
	for _, key := range []string{"ta/ok", "tb/ok"} {
		if _, hit := cache.Lookup(key, synthJob(key, strings.ReplaceAll(key, "/", "-"), nil).FingerprintID()); !hit {
			t.Errorf("successful key %s not cached", key)
		}
	}
}

// TestExecuteReleasesSettledWorkloads: the executor drops each group's
// job once it settles, so a workload its jobs shared becomes garbage
// as soon as the last of them settles — not when the suite's batch
// ends. At Parallelism 1 the second experiment's job runs only after
// the first experiment's jobs settled, and must see their workload
// collected.
func TestExecuteReleasesSettledWorkloads(t *testing.T) {
	type workload struct{ buf []byte }
	var released atomic.Bool
	first := synthSpec("first", nil, Artifact{Name: "first", Keys: []string{"first/0", "first/1"}})
	first.Plan = func(Options) ([]SimJob, error) {
		w := &workload{buf: make([]byte, 1<<20)}
		runtime.SetFinalizer(w, func(*workload) { released.Store(true) })
		var jobs []SimJob
		for i := 0; i < 2; i++ {
			key := fmt.Sprintf("first/%d", i)
			jobs = append(jobs, synthJob(key, key, func() (Result, error) {
				return Result{Cycles: Tick(len(w.buf))}, nil
			}))
		}
		return jobs, nil
	}
	var collected bool
	second := synthSpec("second", []SimJob{synthJob("second/0", "second/0", func() (Result, error) {
		for deadline := time.Now().Add(5 * time.Second); !collected && time.Now().Before(deadline); {
			runtime.GC()
			collected = released.Load()
			time.Sleep(time.Millisecond)
		}
		return Result{Cycles: 1}, nil
	})})
	withRegistry(t, first, second)

	if _, err := RunExperiment("all", Options{Scale: ScaleSmoke, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if !collected {
		t.Fatal("the first experiment's workload was still reachable after its jobs settled")
	}
}

// TestExecutePlanErrorFailsFast: a Plan error fails a local run before
// any simulation starts, naming the experiment, on every local entry
// point — even when the failing experiment plans after healthy ones.
func TestExecutePlanErrorFailsFast(t *testing.T) {
	healthy := synthSpec("healthy", []SimJob{synthJob("healthy/j", "healthy", func() (Result, error) {
		return Result{Cycles: 1}, nil
	})})
	broken := synthSpec("broken", nil)
	broken.Plan = func(Options) ([]SimJob, error) { return nil, errors.New("bad grid") }
	withRegistry(t, healthy, broken)

	opts := Options{Scale: ScaleSmoke}
	runs := map[string]func() (string, error){
		"RunExperiment": func() (string, error) { return RunExperiment("all", opts) },
		"StreamReport": func() (string, error) {
			var b strings.Builder
			_, err := StreamReport("all", opts, nil, &b)
			return b.String(), err
		},
	}
	for name, run := range runs {
		before := execCount.Load()
		out, err := run()
		if err == nil || !strings.Contains(err.Error(), "broken") || !strings.Contains(err.Error(), "bad grid") {
			t.Fatalf("%s: error %v, want the plan error naming the experiment", name, err)
		}
		if got := execCount.Load() - before; got != 0 {
			t.Fatalf("%s: %d simulations ran before the plan error", name, got)
		}
		if out != "" {
			t.Fatalf("%s: wrote %q before failing", name, out)
		}
	}
}

// TestExecuteLogSerialized: Options.Log need not be goroutine-safe.
// Here two jobs run at once and both fail their cache write-back
// (json.Marshal rejects NaN), so each logs a store error; under -race
// an unserialized Log is reported on the unguarded slice below.
func TestExecuteLogSerialized(t *testing.T) {
	cache, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	var lines []string
	opts := Options{Scale: ScaleSmoke, Parallelism: 2, Cache: cache,
		Log: func(format string, args ...interface{}) { lines = append(lines, fmt.Sprintf(format, args...)) }}
	var jobs []SimJob
	for i := 0; i < 2; i++ {
		key := fmt.Sprintf("nan/%d", i)
		jobs = append(jobs, synthJob(key, key, func() (Result, error) {
			return Result{Cycles: 1, Stats: map[string]float64{"x": math.NaN()}}, nil
		}))
	}
	results, _, _ := executeJobs(t, opts, jobs...)
	if len(results) != 2 {
		t.Fatalf("%d results, want 2: a failed write-back must not fail the job", len(results))
	}
	stores := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "cache store nan/") {
			stores++
		}
	}
	if stores != 2 || cache.Stats().StoreErrors != 2 {
		t.Fatalf("%d store-error log lines, %d store errors, want 2 of each:\n%s",
			stores, cache.Stats().StoreErrors, strings.Join(lines, "\n"))
	}
}

// executeJobs runs jobs through execute on in-process workers and
// returns each key's settled result or error, and the run's accounting.
func executeJobs(t *testing.T, opts Options, jobs ...SimJob) (map[string]Result, map[string]error, CoordSummary) {
	t.Helper()
	groups, _ := dedupPlan([]plannedExperiment{{name: "synthetic", jobs: jobs}})
	results, errs := map[string]Result{}, map[string]error{}
	sum, err := execute(opts, groups, func(key string, r Result, jobErr error) {
		if jobErr != nil {
			errs[key] = jobErr
			return
		}
		results[key] = r
	}, inProcess)
	if err != nil {
		t.Fatal(err)
	}
	return results, errs, sum
}

// countedJobs builds n synthetic jobs; job i returns i*10 cycles and
// fails when fail[i].
func countedJobs(n int, fail map[int]bool) []SimJob {
	jobs := make([]SimJob, n)
	for i := range jobs {
		key := fmt.Sprintf("job-%d", i)
		jobs[i] = synthJob(key, key, func() (Result, error) {
			if fail[i] {
				return Result{}, fmt.Errorf("boom %d", i)
			}
			return Result{Cycles: Tick(i * 10)}, nil
		})
	}
	return jobs
}

// TestExecuteErrorCapture: a mid-batch failure is reported against its
// job key; siblings keep their results.
func TestExecuteErrorCapture(t *testing.T) {
	results, errs, sum := executeJobs(t, Options{Parallelism: 3}, countedJobs(9, map[int]bool{4: true})...)
	if err := errs["job-4"]; err == nil || !strings.Contains(err.Error(), "boom 4") || len(errs) != 1 {
		t.Fatalf("job 4 errors = %v", errs)
	}
	for i := 0; i < 9; i++ {
		if r, ok := results[fmt.Sprintf("job-%d", i)]; i != 4 && (!ok || r.Cycles != Tick(i*10)) {
			t.Fatalf("sibling %d lost: %+v", i, r)
		}
	}
	if sum.Distinct != 9 || sum.Done != 8 || sum.Failed != 1 {
		t.Fatalf("summary %+v", sum)
	}
}

// TestExecutePanicCapture: a panicking job becomes a per-job error
// instead of crashing its worker; siblings, before and after it, still
// run.
func TestExecutePanicCapture(t *testing.T) {
	jobs := countedJobs(4, nil)
	jobs[2].Execute = func(Config) (Result, error) { panic("kaboom") }
	for _, width := range []int{1, 4} {
		results, errs, _ := executeJobs(t, Options{Parallelism: width}, jobs...)
		if err := errs["job-2"]; err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("width %d: panic not captured: %v", width, errs)
		}
		if len(results) != 3 {
			t.Fatalf("width %d: %d sibling results, want 3", width, len(results))
		}
	}
}

// TestExecuteFailureNeverStored: a failed job is never written back,
// and an in-process job that always fails executes exactly once, even
// with a second worker free to retry it — a simulation error is
// deterministic, so in-process workers never retry.
func TestExecuteFailureNeverStored(t *testing.T) {
	cache, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	// The sibling keeps a second worker in the pool; its Execute is
	// not counted, so execCount counts the failing job alone.
	sibling := SimJob{Key: "ok", Base: DefaultConfig(), Extra: "synthetic:ok",
		Execute: func(Config) (Result, error) { return Result{Cycles: 1}, nil }}
	before := execCount.Load()
	_, errs, sum := executeJobs(t, Options{Parallelism: 2, Cache: cache},
		synthJob("bad", "bad", func() (Result, error) { return Result{}, errors.New("boom") }), sibling)
	if got := execCount.Load() - before; got != 1 {
		t.Fatalf("always-failing job executed %d times, want 1", got)
	}
	if errs["bad"] == nil || sum.Failed != 1 || sum.Retried != 0 {
		t.Fatalf("errors %v, summary %+v", errs, sum)
	}
	if _, hit := cache.Lookup("bad", synthJob("bad", "bad", nil).FingerprintID()); hit || cache.Len() != 1 || sum.Stored != 1 {
		t.Fatalf("failed job written back: %d entries, %d stored", cache.Len(), sum.Stored)
	}
}

// TestExecuteCacheHitsSkipExecution: execute consults the cache before
// executing and writes each computed result back; a rerun over the
// warm cache executes nothing, starts no pool, returns the same values
// and reports every group cached.
func TestExecuteCacheHitsSkipExecution(t *testing.T) {
	cache, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	var lines []string
	opts := Options{Parallelism: 3, Cache: cache,
		Log: func(format string, args ...interface{}) { lines = append(lines, fmt.Sprintf(format, args...)) }}

	before := execCount.Load()
	cold, _, sum := executeJobs(t, opts, countedJobs(6, nil)...)
	if got := execCount.Load() - before; got != 6 || sum.Cached != 0 || sum.Stored != 6 || cache.Len() != 6 {
		t.Fatalf("cold: %d executions, summary %+v, %d entries", got, sum, cache.Len())
	}
	lines = nil
	before = execCount.Load()
	warm, _, sum := executeJobs(t, opts, countedJobs(6, nil)...)
	if got := execCount.Load() - before; got != 0 {
		t.Fatalf("warm: %d executions, want 0", got)
	}
	if sum.Done != 6 || sum.Cached != 6 || sum.Stored != 0 || !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm: summary %+v, results %v, want %v", sum, warm, cold)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "pool: ") {
			t.Fatalf("warm run started a pool: %q", l)
		}
	}
}

// TestExecuteEmpty: an empty plan settles nothing and staffs no pool.
func TestExecuteEmpty(t *testing.T) {
	sum, err := execute(Options{}, nil, nil, executor{pool: func([]*fpGroup) coord.PoolOptions {
		t.Fatal("staffed a pool for no jobs")
		return coord.PoolOptions{}
	}})
	if err != nil || sum != (CoordSummary{}) {
		t.Fatalf("%+v, %v", sum, err)
	}
}

// TestExecuteProgress: settlements are serialized, and the per-job log
// lines count done jobs up to the total, one at a time.
func TestExecuteProgress(t *testing.T) {
	var lines []string
	opts := Options{Parallelism: 4,
		Log: func(format string, args ...interface{}) { lines = append(lines, fmt.Sprintf(format, args...)) }}
	executeJobs(t, opts, countedJobs(16, nil)...)
	done := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "[") {
			done++
			if want := fmt.Sprintf("[%d/16] ", done); !strings.HasPrefix(l, want) {
				t.Fatalf("progress line %q, want prefix %q", l, want)
			}
		}
	}
	if done != 16 {
		t.Fatalf("%d progress lines, want 16", done)
	}
}

// TestExecuteSequentialOrder: Parallelism 1 runs jobs strictly in plan
// order.
func TestExecuteSequentialOrder(t *testing.T) {
	var order []int
	jobs := make([]SimJob, 8)
	for i := range jobs {
		key := fmt.Sprintf("j%d", i)
		jobs[i] = synthJob(key, key, func() (Result, error) {
			order = append(order, i)
			return Result{}, nil
		})
	}
	executeJobs(t, Options{Parallelism: 1}, jobs...)
	for i, v := range order {
		if v != i {
			t.Fatalf("execution order %v", order)
		}
	}
	if len(order) != 8 {
		t.Fatalf("%d executions, want 8", len(order))
	}
}

// TestExecuteSimJobMutateIsolated: SimJob copies Base per run so Mutate
// never leaks across points, and applies the mutator before Execute.
func TestExecuteSimJobMutateIsolated(t *testing.T) {
	base := DefaultConfig()
	base.Cores = 4
	var seen []int
	record := func(c Config) (Result, error) {
		seen = append(seen, c.Cores)
		return Result{}, nil
	}
	executeJobs(t, Options{Parallelism: 1},
		SimJob{Key: "a", Base: base, Mutate: func(c *Config) { c.Cores = 16 }, Execute: record},
		SimJob{Key: "b", Base: base, Execute: record})
	if len(seen) != 2 || seen[0] != 16 || seen[1] != 4 {
		t.Fatalf("configs seen: %v", seen)
	}
	if base.Cores != 4 {
		t.Fatalf("base mutated: %d", base.Cores)
	}
}

// TestExecuteSimJobFingerprint: SimJob fingerprints must be stable,
// sensitive to config mutation and Extra workload identity, and
// computed without leaking the mutation into Base; dedup groups carry
// them unchanged.
func TestExecuteSimJobFingerprint(t *testing.T) {
	base := DefaultConfig()
	j := SimJob{Key: "k", Base: base, Extra: "ops=8",
		Mutate:  func(c *Config) { c.Cores = 16 },
		Execute: func(Config) (Result, error) { return Result{}, nil }}
	fp1, fp2 := j.FingerprintID(), j.FingerprintID()
	if fp1 == "" || fp1 != fp2 {
		t.Fatalf("fingerprint unstable: %q vs %q", fp1, fp2)
	}
	if base.Cores != DefaultConfig().Cores {
		t.Fatal("FingerprintID mutated Base")
	}
	j2 := j
	j2.Mutate = func(c *Config) { c.Cores = 8 }
	if j2.FingerprintID() == fp1 {
		t.Fatal("config mutation not reflected in fingerprint")
	}
	j3 := j
	j3.Extra = "ops=16"
	if j3.FingerprintID() == fp1 {
		t.Fatal("Extra not reflected in fingerprint")
	}
	if groups, _ := dedupPlan([]plannedExperiment{{name: "e", jobs: []SimJob{j}}}); groups[0].fp != fp1 {
		t.Fatal("dedup dropped the fingerprint")
	}
}
