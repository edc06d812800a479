package bulkpim

// Tests for the coordinator's bulkpim-side wiring: the batch run on
// coord.Pool over in-memory workers (exactly-once delivery over the
// real suite manifest, job failure, launch failure, fleet loss, a
// stranded job, plan skew, the progress footer), the fleet's
// replacement policy, the worker launch template, and the cache
// precondition. The pool's own retry/exclusion machinery is tested in
// internal/coord; the subprocess protocol end to end in cmd/pimbench.

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bulkpim/internal/coord"
	"bulkpim/internal/system"
)

// manifestWorker is an in-memory coord.Worker over the real planned
// suite: it "executes" a task by recording its fingerprint and spec,
// with seeded random delays to shuffle dispatch order.
type manifestWorker struct {
	rng   *rand.Rand
	mu    *sync.Mutex
	count map[string]int
	specs map[coord.JobSpec]bool
}

func (w *manifestWorker) Run(t coord.Task) (system.Result, error) {
	time.Sleep(time.Duration(w.rng.Intn(100)) * time.Microsecond)
	w.mu.Lock()
	w.count[t.Fingerprint]++
	w.specs[t.Spec] = true
	w.mu.Unlock()
	return system.Result{Cycles: 1}, nil
}

func (w *manifestWorker) Close() error { return nil }

// coordinateWithin runs the batch path over launch and fails the test,
// instead of hanging it, if the run does not settle in time.
func coordinateWithin(t *testing.T, name string, opts Options, copts CoordOptions,
	launch func(id int) (coord.Worker, error)) (CoordSummary, error) {
	t.Helper()
	if opts.Cache == nil {
		cache, err := OpenResultCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cache.Close() })
		opts.Cache = cache
	}
	type ret struct {
		sum CoordSummary
		err error
	}
	done := make(chan ret, 1)
	go func() {
		sum, err := coordinate(name, opts, copts, nil, io.Discard, launch)
		done <- ret{sum, err}
	}()
	select {
	case r := <-done:
		return r.sum, r.err
	case <-time.After(60 * time.Second):
		t.Fatalf("coordinated %s run did not settle", name)
		return CoordSummary{}, nil
	}
}

// TestCoordinateDeliversEachFingerprintOnce: over the paper's
// full-scale manifest, the coordinator's dedup-then-dispatch on the
// pool must deliver each distinct fingerprint to exactly one execution
// under randomized worker timing (seeded), for several fleet sizes —
// no distinct simulation skipped or run twice — with
// every task carrying the run's spec (experiment name lowercased, as
// workers plan it) and every key, aliases included, stored.
func TestCoordinateDeliversEachFingerprintOnce(t *testing.T) {
	planned, err := planFor("all", Options{Scale: ScaleFull})
	if err != nil {
		t.Fatal(err)
	}
	groups, manifest := dedupPlan(planned)
	if len(groups) == 0 || len(groups) >= len(manifest) {
		t.Fatalf("degenerate dedup: %d groups of %d planned entries", len(groups), len(manifest))
	}
	keys := 0
	for _, g := range groups {
		keys += len(g.keys)
	}

	for _, workers := range []int{1, 3, 8} {
		var mu sync.Mutex
		count := map[string]int{}
		specs := map[coord.JobSpec]bool{}
		sum, err := coordinateWithin(t, "ALL", Options{Scale: ScaleFull, Parallelism: workers}, CoordOptions{},
			func(id int) (coord.Worker, error) {
				return &manifestWorker{rng: rand.New(rand.NewSource(int64(workers*100 + id))),
					mu: &mu, count: count, specs: specs}, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sum.Distinct != len(groups) || sum.Done != len(groups) || sum.Failed != 0 ||
			sum.Retried != 0 || sum.WorkersLost != 0 || sum.Stored != keys {
			t.Fatalf("workers=%d: summary %+v", workers, sum)
		}
		for _, g := range groups {
			if got := count[g.fp]; got != 1 {
				t.Fatalf("workers=%d: fingerprint %s (key %s) executed %d times, want exactly 1",
					workers, g.fp, g.keys[0], got)
			}
		}
		want := map[coord.JobSpec]bool{{Exp: "all", Scale: "full"}: true}
		if !reflect.DeepEqual(specs, want) {
			t.Fatalf("workers=%d: tasks carried specs %v, want %v", workers, specs, want)
		}
	}
}

// scriptedWorker is an in-memory worker that fails the fingerprints in
// jobErrs at job level and, with dieAfter >= 0, crashes (a worker-lost
// error) once it has served dieAfter jobs.
type scriptedWorker struct {
	jobErrs  map[string]bool
	dieAfter int
	served   int
}

func (w *scriptedWorker) Run(t coord.Task) (system.Result, error) {
	if w.dieAfter >= 0 && w.served >= w.dieAfter {
		return system.Result{}, errors.New("simulated crash")
	}
	w.served++
	if w.jobErrs[t.Fingerprint] {
		return system.Result{}, &coord.JobError{Msg: "simulated job failure"}
	}
	return system.Result{Cycles: 1}, nil
}

func (w *scriptedWorker) Close() error { return nil }

// fig3Groups plans fig3 at smoke scale: three distinct jobs.
func fig3Groups(t *testing.T) []*fpGroup {
	t.Helper()
	planned, err := planFor("fig3", Options{Scale: ScaleSmoke})
	if err != nil {
		t.Fatal(err)
	}
	groups, _ := dedupPlan(planned)
	if len(groups) < 2 {
		t.Fatalf("fig3 plans %d distinct jobs", len(groups))
	}
	return groups
}

// TestCoordinatePermanentFailure: a job that fails on every worker
// settles as permanently failed — reported against its key — without
// taking the rest of the batch down.
func TestCoordinatePermanentFailure(t *testing.T) {
	groups := fig3Groups(t)
	bad := groups[1]
	sum, err := coordinateWithin(t, "fig3", Options{Scale: ScaleSmoke, Parallelism: 2}, CoordOptions{},
		func(int) (coord.Worker, error) {
			return &scriptedWorker{dieAfter: -1, jobErrs: map[string]bool{bad.fp: true}}, nil
		})
	if err == nil || !strings.Contains(err.Error(), bad.keys[0]) {
		t.Fatalf("error must name the failed job %s: %v", bad.keys[0], err)
	}
	if sum.Done != len(groups)-1 || sum.Failed != 1 || sum.WorkersLost != 0 {
		t.Fatalf("summary %+v", sum)
	}
}

// TestCoordinateLaunchFailure: a worker that cannot launch is a lost
// worker, not a fatal error — the rest of the fleet absorbs its share —
// and the returned error names it exactly once.
func TestCoordinateLaunchFailure(t *testing.T) {
	groups := fig3Groups(t)
	sum, err := coordinateWithin(t, "fig3", Options{Scale: ScaleSmoke, Parallelism: 3}, CoordOptions{},
		func(id int) (coord.Worker, error) {
			if id == 2 {
				return nil, errors.New("ssh: connection refused")
			}
			return &scriptedWorker{dieAfter: -1}, nil
		})
	if err == nil || err.Error() != "worker 2: launch: ssh: connection refused" {
		t.Fatalf("launch failure must be reported once: %v", err)
	}
	if sum.Done != len(groups) || sum.Failed != 0 || sum.WorkersLost != 1 {
		t.Fatalf("summary %+v", sum)
	}
}

// TestCoordinateAllWorkersLost: when every worker dies and no
// replacement launches, the remaining jobs settle as failed and the run
// returns instead of waiting on the pool for a worker that never joins.
func TestCoordinateAllWorkersLost(t *testing.T) {
	groups := fig3Groups(t)
	var launches atomic.Int32
	sum, err := coordinateWithin(t, "fig3", Options{Scale: ScaleSmoke, Parallelism: 2}, CoordOptions{},
		func(id int) (coord.Worker, error) {
			if launches.Add(1) > 2 {
				return nil, fmt.Errorf("host %d unreachable", id)
			}
			return &scriptedWorker{dieAfter: 0}, nil
		})
	if err == nil || !strings.Contains(err.Error(), "no live worker") {
		t.Fatalf("a fleet-wide loss must fail the remaining jobs: %v", err)
	}
	// Two deaths plus the two replacements that failed to launch.
	if sum.WorkersLost != 4 || sum.Done != 0 || sum.Failed != len(groups) {
		t.Fatalf("every job must settle failed: %+v", sum)
	}
}

// funcWorker is an in-memory worker whose Run is the function itself.
type funcWorker func(coord.Task) (system.Result, error)

func (f funcWorker) Run(t coord.Task) (system.Result, error) { return f(t) }
func (funcWorker) Close() error                              { return nil }

// TestCoordinateStrandedJobFails: worker 0 fails one job, which is
// then left for worker 1 alone; worker 1 crashes and its replacement
// cannot launch. The job every survivor is excluded from settles as
// failed instead of waiting for a worker that never joins, and the
// rest of the batch completes on worker 0.
func TestCoordinateStrandedJobFails(t *testing.T) {
	groups := fig3Groups(t)
	bad := groups[0]
	started, running, requeued := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var startOnce, requeueOnce sync.Once
	sum, err := coordinateWithin(t, "fig3", Options{Scale: ScaleSmoke, Parallelism: 2}, CoordOptions{},
		func(id int) (coord.Worker, error) {
			switch id {
			case 0: // takes the first job, bad, before worker 1 joins
				failedBad := false
				return funcWorker(func(tk coord.Task) (system.Result, error) {
					startOnce.Do(func() { close(started) })
					if tk.Fingerprint == bad.fp {
						<-running // fail bad with worker 1 in the fleet
						failedBad = true
						return system.Result{}, &coord.JobError{Msg: "simulated job failure"}
					}
					if failedBad {
						// The pool requeued bad before this dispatch.
						requeueOnce.Do(func() { close(requeued) })
					}
					return system.Result{Cycles: 1}, nil
				}), nil
			case 1: // crashes on its first job once bad waits for it alone
				<-started
				return funcWorker(func(coord.Task) (system.Result, error) {
					close(running)
					<-requeued
					return system.Result{}, errors.New("simulated crash")
				}), nil
			}
			return nil, fmt.Errorf("host %d unreachable", id)
		})
	if err == nil || !strings.Contains(err.Error(), bad.keys[0]+": failed after 1 attempt(s): simulated job failure") {
		t.Fatalf("the stranded job must fail: %v", err)
	}
	// One death plus the replacement that failed to launch.
	if sum.Done != len(groups)-1 || sum.Failed != 1 || sum.WorkersLost != 2 {
		t.Fatalf("summary %+v", sum)
	}
}

// TestCoordinatePlanSkewFailsFast: workers that plan differently from
// the coordinator (here: planning every spec at another scale, as a
// different build might) report plan skew, and the run fails every job
// on the first report instead of spending each job's retries and
// backoffs on it.
func TestCoordinatePlanSkewFailsFast(t *testing.T) {
	groups := fig3Groups(t)
	pc := newPlanCache(Options{})
	var runs atomic.Int32
	start := time.Now()
	sum, err := coordinateWithin(t, "fig3", Options{Scale: ScaleSmoke, Parallelism: 2}, CoordOptions{},
		func(int) (coord.Worker, error) {
			return funcWorker(func(tk coord.Task) (system.Result, error) {
				runs.Add(1)
				tk.Spec.Scale = string(ScaleBench)
				v, err := pc.execute(tk)
				if err != nil {
					return v, &coord.JobError{Msg: err.Error(), Skew: errors.Is(err, coord.ErrPlanSkew)}
				}
				return v, nil
			}), nil
		})
	if !errors.Is(err, coord.ErrPlanSkew) || sum.Failed != len(groups) || sum.Done != 0 {
		t.Fatalf("plan skew must fail the run: %+v, %v", sum, err)
	}
	if n := runs.Load(); n > 2 || sum.Retried != 0 {
		t.Fatalf("%d executions (%d retried) after plan skew, want at most one per worker", n, sum.Retried)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("plan skew took %v to fail the run", el)
	}
}

// TestCoordinateProgressFooter: the live footer carries jobs-done/ETA
// and terminates with the final accounting on its own line.
func TestCoordinateProgressFooter(t *testing.T) {
	groups := fig3Groups(t)
	var progress bytes.Buffer
	if _, err := coordinateWithin(t, "fig3", Options{Scale: ScaleSmoke, Parallelism: 2},
		CoordOptions{Progress: &progress},
		func(int) (coord.Worker, error) { return &scriptedWorker{dieAfter: -1}, nil }); err != nil {
		t.Fatal(err)
	}
	out := progress.String()
	if !strings.Contains(out, "coord: ") || !strings.Contains(out, "ETA") {
		t.Fatalf("footer missing: %q", out)
	}
	lines := strings.Split(out, "\r")
	final := fmt.Sprintf("coord: %d/%d jobs done (0 failed, 0 retried, 0 workers lost) in ", len(groups), len(groups))
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, final) || !strings.HasSuffix(last, "\n") {
		t.Fatalf("footer does not end with the final accounting line: %q", out)
	}
}

// TestCoordinateWarmCacheExecutesNothing: a coordinated run resumes
// from the cache. A second coordinated run over a cache the first one
// filled launches no worker, stores nothing, reports every group
// cached, and prints the same report.
func TestCoordinateWarmCacheExecutesNothing(t *testing.T) {
	groups := fig3Groups(t)
	cache, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	opts := Options{Scale: ScaleSmoke, Parallelism: 2, Cache: cache}
	var cold, warm bytes.Buffer
	if _, err := coordinate("fig3", opts, CoordOptions{}, nil, &cold,
		func(int) (coord.Worker, error) { return &scriptedWorker{dieAfter: -1}, nil }); err != nil {
		t.Fatal(err)
	}
	stores := cache.Stats().Stores
	sum, err := coordinate("fig3", opts, CoordOptions{}, nil, &warm, func(int) (coord.Worker, error) {
		t.Error("launched a worker over a full cache")
		return nil, errors.New("unreachable")
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cached != len(groups) || sum.Done != len(groups) || sum.Stored != 0 || cache.Stats().Stores != stores {
		t.Fatalf("warm run: summary %+v, %d stores after %d", sum, cache.Stats().Stores, stores)
	}
	if cold.Len() == 0 || warm.String() != cold.String() {
		t.Fatalf("warm report differs from the cold one:\n--- cold ---\n%s\n--- warm ---\n%s", cold.String(), warm.String())
	}
}

// TestCoordinateEveryJobFailsTerminates pins the backoff decision: a
// subprocess fleet keeps its retries and per-worker backoff (a job
// error there may be host-local), yet a fleet that fails every job on
// every worker still terminates, with every job failed and named.
func TestCoordinateEveryJobFailsTerminates(t *testing.T) {
	groups := fig3Groups(t)
	bad := map[string]bool{}
	for _, g := range groups {
		bad[g.fp] = true
	}
	sum, err := coordinateWithin(t, "fig3", Options{Scale: ScaleSmoke, Parallelism: 2}, CoordOptions{},
		func(int) (coord.Worker, error) { return &scriptedWorker{dieAfter: -1, jobErrs: bad}, nil })
	if sum.Failed != sum.Distinct || sum.Distinct != len(groups) || sum.Retried == 0 {
		t.Fatalf("summary %+v, want every job failed after a retry", sum)
	}
	for _, g := range groups {
		if err == nil || !strings.Contains(err.Error(), g.keys[0]+": failed after") {
			t.Fatalf("error does not name failed job %s: %v", g.keys[0], err)
		}
	}
}

// TestCoordinateEmpty: a plan with no distinct jobs completes
// immediately without launching a worker.
func TestCoordinateEmpty(t *testing.T) {
	sum, err := coordinateWithin(t, "table1", Options{Scale: ScaleSmoke, Parallelism: 4}, CoordOptions{},
		func(int) (coord.Worker, error) {
			t.Error("launched a worker for zero jobs")
			return nil, errors.New("unreachable")
		})
	if err != nil || sum.Distinct != 0 || sum.Done != 0 {
		t.Fatalf("%+v, %v", sum, err)
	}
}

// TestFleetStop: once stopped (a daemon shutting down), a fleet
// replaces no lost worker and logs no replacement; and a daemon's fleet
// (no onEmpty) keeps no launch-error history, which would only grow.
func TestFleetStop(t *testing.T) {
	var launches atomic.Int32
	var (
		mu   sync.Mutex
		logs []string
	)
	f := newFleet(coord.PoolOptions{
		Launch: func(id int) (coord.Worker, error) {
			if launches.Add(1) == 2 {
				return nil, errors.New("host unreachable")
			}
			return &scriptedWorker{dieAfter: 0}, nil
		},
		Log: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	}, 2, nil)
	defer f.pool.Close()
	if errs := f.grow(2); len(errs) != 1 || len(f.failedLaunches()) != 0 {
		t.Fatalf("grow errors %v, kept %v", errs, f.failedLaunches())
	}
	f.stop()
	lost := make(chan coord.Outcome, 1)
	if err := f.pool.Submit(coord.Task{Key: "k", Fingerprint: "fp"}, func(o coord.Outcome) { lost <- o }); err != nil {
		t.Fatal(err)
	}
	for f.pool.Stats().Lost == 0 {
		time.Sleep(time.Millisecond)
	}
	f.pool.Close()
	if o := <-lost; !errors.Is(o.Err, coord.ErrClosed) {
		t.Fatalf("queued task outcome %+v", o)
	}
	if n := launches.Load(); n != 2 {
		t.Fatalf("%d launches after stop, want the 2 initial ones", n)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range logs {
		if strings.Contains(l, "replacement") {
			t.Fatalf("stopped fleet logged %q", l)
		}
	}
}

// TestDedupPlanGroupsCoverManifest: the fingerprint groups partition
// the manifest's distinct (key, fingerprint) identities — every
// planned identity appears in exactly one group, canonical key first
// in plan order.
func TestDedupPlanGroupsCoverManifest(t *testing.T) {
	planned, err := planFor("all", Options{Scale: ScaleFull})
	if err != nil {
		t.Fatal(err)
	}
	groups, manifest := dedupPlan(planned)
	type identity struct{ key, fp string }
	want := map[identity]bool{}
	firstKey := map[string]string{}
	for _, j := range manifest {
		want[identity{j.Key, j.Fingerprint}] = true
		if _, ok := firstKey[j.Fingerprint]; !ok {
			firstKey[j.Fingerprint] = j.Key
		}
	}
	got := map[identity]bool{}
	for _, g := range groups {
		if g.keys[0] != firstKey[g.fp] {
			t.Fatalf("group %s canonical key %s, want first-in-plan-order %s", g.fp, g.keys[0], firstKey[g.fp])
		}
		for _, k := range g.keys {
			id := identity{k, g.fp}
			if got[id] {
				t.Fatalf("identity %v in two groups", id)
			}
			got[id] = true
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("groups cover %d identities, manifest has %d", len(got), len(want))
	}
}

// TestWorkerArgv covers the launch template grammar.
func TestWorkerArgv(t *testing.T) {
	workArgs := []string{"work", "-exp", "all", "-scale", "smoke"}

	self, err := workerArgv("", workArgs)
	if err != nil || len(self) != len(workArgs)+1 || self[0] == "" || self[1] != "work" {
		t.Fatalf("self-exec argv = %v, %v", self, err)
	}

	ssh, err := workerArgv("ssh build-02 /opt/pimbench {args}", workArgs)
	want := append([]string{"ssh", "build-02", "/opt/pimbench"}, workArgs...)
	if err != nil || !reflect.DeepEqual(ssh, want) {
		t.Fatalf("template argv = %v, %v", ssh, err)
	}

	appended, err := workerArgv("nice -n 10 /opt/pimbench", workArgs)
	want = append([]string{"nice", "-n", "10", "/opt/pimbench"}, workArgs...)
	if err != nil || !reflect.DeepEqual(appended, want) {
		t.Fatalf("no-placeholder argv = %v, %v", appended, err)
	}

	if _, err := workerArgv("   ", workArgs); err == nil {
		t.Fatal("blank template accepted")
	}
}

// TestServeWorkArgsRoundTrip: the worker argv Coordinate and Server
// launch must round-trip through the work subcommand's flag set —
// nothing dropped, nothing the workers cannot parse. Experiment, scale
// and seed ride each job's spec, never the command line, so a plain
// worker gets the bare subcommand.
func TestServeWorkArgsRoundTrip(t *testing.T) {
	if args := workArgs(0); !reflect.DeepEqual(args, []string{"work"}) {
		t.Fatalf("plain worker argv = %v", args)
	}
	fs := flag.NewFlagSet("work", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Bool("v", false, "")
	failAfter := fs.Int("fail-after", 0, "")
	args := workArgs(2)
	if len(args) == 0 || args[0] != "work" {
		t.Fatalf("argv must start with the work subcommand: %v", args)
	}
	if err := fs.Parse(args[1:]); err != nil {
		t.Fatalf("work flag set rejects worker argv %v: %v", args, err)
	}
	if fs.NArg() != 0 {
		t.Fatalf("argv %v leaves unparsed operands %v — a flag was dropped or misspelled", args, fs.Args())
	}
	if *failAfter != 2 {
		t.Errorf("-fail-after = %d, want 2", *failAfter)
	}
}

// TestCoordinateRequiresCache: a coordinated run without a cache would
// compute results and drop them.
func TestCoordinateRequiresCache(t *testing.T) {
	if _, err := Coordinate("fig3", Options{Scale: ScaleSmoke}, CoordOptions{}, nil, io.Discard); err == nil {
		t.Fatal("cache-less coordinated run accepted")
	}
}
