package bulkpim

// Tests for the parallel job runner's core contract: a sweep's results
// are identical at every parallelism level, and one failed grid point
// is reported against its job key without losing sibling results.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestRunnerDeterminism executes the same ScaleBench YCSB sweep —
// fig7's grid, all six variants — sequentially and on 8 workers and
// requires identical per-key results: same cycles, drain cycles,
// seconds and stats.
func TestRunnerDeterminism(t *testing.T) {
	runAt := func(parallelism int) map[string]Result {
		opts := Options{Scale: ScaleBench, Parallelism: parallelism}
		groups, _, err := planGroups("fig7", opts)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]Result{}
		if _, err := execute(opts, "fig7", groups, func(key string, r Result, jobErr error) {
			if jobErr == nil {
				out[key] = r
			}
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq, par := runAt(1), runAt(8)
	if len(seq) == 0 || len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for key, s := range seq {
		p, ok := par[key]
		if !ok {
			t.Fatalf("%s: missing from the parallel run", key)
		}
		if s.Cycles != p.Cycles || s.DrainCycles != p.DrainCycles || s.Seconds != p.Seconds {
			t.Fatalf("%s: cycles %d/%d drain %d/%d seconds %v/%v",
				key, s.Cycles, p.Cycles, s.DrainCycles, p.DrainCycles, s.Seconds, p.Seconds)
		}
		if !reflect.DeepEqual(s.Stats, p.Stats) {
			t.Fatalf("%s: stats differ\nseq: %v\npar: %v", key, s.Stats, p.Stats)
		}
	}
}

// TestRunnerErrorKeepsSiblings enqueues a batch where one mid-sweep job
// fails: the error must carry the failing job's key and every sibling
// must still deliver its result.
func TestRunnerErrorKeepsSiblings(t *testing.T) {
	w := NewYCSB(func() YCSBParamsT {
		p := YCSBParams(100_000)
		p.Operations = 4
		return p
	}())
	w.Precompute()
	boom := fmt.Errorf("injected failure")
	mkJob := func(key string, m Model, fail bool) Job {
		return SimJob{
			Key:  key,
			Base: DefaultConfig(),
			Mutate: func(cfg *Config) {
				cfg.Model = m
			},
			Execute: func(cfg Config) (Result, error) {
				if fail {
					return Result{}, boom
				}
				return RunYCSB(w, cfg)
			},
		}.Job()
	}
	jobs := []Job{
		mkJob("point-a", Naive, false),
		mkJob("point-b", Scope, true),
		mkJob("point-c", SWFlush, false),
	}
	rs := RunJobs(jobs, JobOptions{Parallelism: 2})
	if len(rs) != 3 {
		t.Fatalf("got %d results", len(rs))
	}
	if rs[1].Err == nil || !strings.Contains(rs[1].Err.Error(), "injected failure") || rs[1].Key != "point-b" {
		t.Fatalf("failed job not reported against its key: %+v", rs[1])
	}
	for _, i := range []int{0, 2} {
		if rs[i].Err != nil || rs[i].Value.Cycles == 0 {
			t.Fatalf("sibling %s lost: err=%v cycles=%d", rs[i].Key, rs[i].Err, rs[i].Value.Cycles)
		}
	}
	sum := SummarizeJobs(rs)
	if sum.Jobs != 3 || sum.Failed != 1 {
		t.Fatalf("summary %+v", sum)
	}
}

// TestNormalizeToNaiveMissingBaseline: a sweep without a (successful)
// Naive point must fail loudly instead of emitting +Inf ratios.
func TestNormalizeToNaiveMissingBaseline(t *testing.T) {
	recs := []runRecord{
		{Model: Scope, Records: 1000, Result: Result{Cycles: 42}},
	}
	if _, err := normalizeToNaive(recs); err == nil {
		t.Fatal("expected error for sweep without Naive baseline")
	}
	recs = append(recs, runRecord{Model: Naive, Records: 1000, Result: Result{Cycles: 84}})
	norm, err := normalizeToNaive(recs)
	if err != nil {
		t.Fatal(err)
	}
	if got := norm[1000][Scope.String()]; got != 0.5 {
		t.Fatalf("ratio = %v, want 0.5", got)
	}
}
