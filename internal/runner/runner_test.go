package runner

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bulkpim/internal/system"
)

func intJobs(n int, fail map[int]bool) []Job[int] {
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job[int]{Key: fmt.Sprintf("job-%d", i), Run: func() (int, error) {
			if fail[i] {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i * 10, nil
		}}
	}
	return jobs
}

// Results must come back ordered by submission index at every
// parallelism level.
func TestRunJobsSubmissionOrder(t *testing.T) {
	for _, par := range []int{1, 2, 8, 0} {
		rs := RunJobs(intJobs(37, nil), Options[int]{Parallelism: par})
		if len(rs) != 37 {
			t.Fatalf("par=%d: got %d results", par, len(rs))
		}
		for i, r := range rs {
			if r.Index != i || r.Value != i*10 || r.Err != nil {
				t.Fatalf("par=%d: result %d = %+v", par, i, r)
			}
			if r.Key != fmt.Sprintf("job-%d", i) {
				t.Fatalf("par=%d: result %d key %q", par, i, r.Key)
			}
		}
	}
}

// A mid-batch failure is reported against its job key; siblings keep
// their results.
func TestRunJobsErrorCapture(t *testing.T) {
	rs := RunJobs(intJobs(9, map[int]bool{4: true}), Options[int]{Parallelism: 3})
	for i, r := range rs {
		if i == 4 {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "boom 4") {
				t.Fatalf("job 4 error = %v", r.Err)
			}
			if r.Key != "job-4" {
				t.Fatalf("job 4 key = %q", r.Key)
			}
			continue
		}
		if r.Err != nil || r.Value != i*10 {
			t.Fatalf("sibling %d lost: %+v", i, r)
		}
	}
}

// A panicking job becomes a per-job error instead of crashing the pool.
func TestRunJobsPanicCapture(t *testing.T) {
	jobs := intJobs(4, nil)
	jobs[2].Run = func() (int, error) { panic("kaboom") }
	rs := RunJobs(jobs, Options[int]{Parallelism: 4})
	if rs[2].Err == nil || !strings.Contains(rs[2].Err.Error(), "kaboom") {
		t.Fatalf("panic not captured: %v", rs[2].Err)
	}
	for _, i := range []int{0, 1, 3} {
		if rs[i].Err != nil {
			t.Fatalf("sibling %d: %v", i, rs[i].Err)
		}
	}
}

// OnResult is serialized and sees a monotonically increasing done count
// reaching the total.
func TestRunJobsProgress(t *testing.T) {
	var calls int32
	last := 0
	rs := RunJobs(intJobs(16, nil), Options[int]{
		Parallelism: 4,
		OnResult: func(done, total int, r JobResult[int]) {
			atomic.AddInt32(&calls, 1)
			if total != 16 || done != last+1 {
				t.Errorf("done=%d total=%d last=%d", done, total, last)
			}
			last = done
		},
	})
	if len(rs) != 16 || calls != 16 {
		t.Fatalf("results=%d calls=%d", len(rs), calls)
	}
}

// Parallelism 1 runs jobs strictly in submission order.
func TestRunJobsSequentialOrder(t *testing.T) {
	var order []int
	jobs := make([]Job[int], 8)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Key: fmt.Sprintf("j%d", i), Run: func() (int, error) {
			order = append(order, i)
			return i, nil
		}}
	}
	RunJobs(jobs, Options[int]{Parallelism: 1})
	for i, v := range order {
		if v != i {
			t.Fatalf("execution order %v", order)
		}
	}
}

func TestRunJobsEmpty(t *testing.T) {
	if rs := RunJobs(nil, Options[int]{}); len(rs) != 0 {
		t.Fatalf("got %d results", len(rs))
	}
}

// SimJob copies Base per run so Mutate never leaks across points, and
// applies the mutator before Execute.
func TestSimJobMutateIsolated(t *testing.T) {
	base := system.Default()
	base.Cores = 4
	var seen []int
	specs := []SimJob{
		{Key: "a", Base: base,
			Mutate: func(c *system.Config) { c.Cores = 16 },
			Execute: func(c system.Config) (system.Result, error) {
				seen = append(seen, c.Cores)
				return system.Result{}, nil
			}},
		{Key: "b", Base: base,
			Execute: func(c system.Config) (system.Result, error) {
				seen = append(seen, c.Cores)
				return system.Result{}, nil
			}},
	}
	rs := RunJobs(SimJobs(specs), Options[system.Result]{Parallelism: 1})
	for _, r := range rs {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if len(seen) != 2 || seen[0] != 16 || seen[1] != 4 {
		t.Fatalf("configs seen: %v", seen)
	}
	if base.Cores != 4 {
		t.Fatalf("base mutated: %d", base.Cores)
	}
}

// Summarize counts failures and sums cycles over successes only.
func TestSummarize(t *testing.T) {
	rs := []JobResult[system.Result]{
		{Value: system.Result{Cycles: 100}, Wall: 3 * time.Second},
		{Err: fmt.Errorf("x"), Value: system.Result{Cycles: 999}, Wall: time.Second},
		// Cached: a cache hit's wall is lookup, not compute —
		// excluded from Summary.Wall.
		{Value: system.Result{Cycles: 50}, Cached: true, Wall: time.Minute},
	}
	s := Summarize(rs)
	if s.Jobs != 3 || s.Failed != 1 || s.Cached != 1 || s.Cycles != 150 {
		t.Fatalf("summary %+v", s)
	}
	if s.Wall != 4*time.Second {
		t.Fatalf("cached wall not excluded: %v", s.Wall)
	}
	if !strings.Contains(s.String(), "3 jobs (1 failed, 1 cached)") {
		t.Fatalf("summary string %q", s.String())
	}
}

// Cache hooks: a fingerprinted job consults Lookup before executing
// and writes back through Store; a hit skips execution entirely and is
// flagged Cached. Jobs without a fingerprint never touch the cache.
func TestRunJobsCacheHooks(t *testing.T) {
	var mu sync.Mutex
	store := map[string]int{}
	var executions int32
	mkJobs := func() []Job[int] {
		jobs := intJobs(6, nil)
		for i := range jobs {
			i := i
			if i != 5 { // job 5 stays unfingerprinted (uncacheable)
				jobs[i].Fingerprint = fmt.Sprintf("fp-%d", i)
			}
			inner := jobs[i].Run
			jobs[i].Run = func() (int, error) {
				atomic.AddInt32(&executions, 1)
				return inner()
			}
		}
		return jobs
	}
	opts := Options[int]{
		Parallelism: 3,
		Lookup: func(key, fp string) (int, bool) {
			mu.Lock()
			defer mu.Unlock()
			v, ok := store[key+fp]
			return v, ok
		},
		Store: func(key, fp string, v int) {
			mu.Lock()
			defer mu.Unlock()
			store[key+fp] = v
		},
	}
	cold := RunJobs(mkJobs(), opts)
	for i, r := range cold {
		if r.Cached || r.Err != nil || r.Value != i*10 {
			t.Fatalf("cold result %d: %+v", i, r)
		}
	}
	if executions != 6 || len(store) != 5 {
		t.Fatalf("cold: executions=%d stored=%d", executions, len(store))
	}
	warm := RunJobs(mkJobs(), opts)
	for i, r := range warm {
		if r.Err != nil || r.Value != i*10 {
			t.Fatalf("warm result %d: %+v", i, r)
		}
		wantCached := i != 5
		if r.Cached != wantCached {
			t.Fatalf("warm result %d cached=%v, want %v", i, r.Cached, wantCached)
		}
	}
	if executions != 7 { // only the unfingerprinted job re-ran
		t.Fatalf("warm: executions=%d", executions)
	}
}

// A failed job must not be written back.
func TestRunJobsCacheSkipsFailures(t *testing.T) {
	stored := 0
	RunJobs([]Job[int]{{Key: "k", Fingerprint: "fp", Run: func() (int, error) {
		return 0, fmt.Errorf("boom")
	}}}, Options[int]{
		Lookup: func(string, string) (int, bool) { return 0, false },
		Store:  func(string, string, int) { stored++ },
	})
	if stored != 0 {
		t.Fatalf("failed job written back %d times", stored)
	}
}

// SimJob fingerprints must be stable, sensitive to config mutation and
// Extra workload identity, and computed without leaking the mutation
// into Base.
func TestSimJobFingerprint(t *testing.T) {
	base := system.Default()
	j := SimJob{Key: "k", Base: base, Extra: "ops=8",
		Mutate:  func(c *system.Config) { c.Cores = 16 },
		Execute: func(c system.Config) (system.Result, error) { return system.Result{}, nil }}
	fp1, fp2 := j.FingerprintID(), j.FingerprintID()
	if fp1 == "" || fp1 != fp2 {
		t.Fatalf("fingerprint unstable: %q vs %q", fp1, fp2)
	}
	if base.Cores != system.Default().Cores {
		t.Fatal("FingerprintID mutated Base")
	}
	j2 := j
	j2.Mutate = func(c *system.Config) { c.Cores = 8 }
	if j2.FingerprintID() == fp1 {
		t.Fatal("config mutation not reflected in fingerprint")
	}
	j3 := j
	j3.Extra = "ops=16"
	if j3.FingerprintID() == fp1 {
		t.Fatal("Extra not reflected in fingerprint")
	}
	if SimJobs([]SimJob{j})[0].Fingerprint != fp1 {
		t.Fatal("lowering dropped the fingerprint")
	}
}
