package bulkpim

// The one executor, built on internal/coord. Every run — a local
// report (RunExperiment, StreamReport, Fig8Fig9) and a coordinated
// fleet run (Coordinate) alike — plans its suite, dedups it to
// distinct simulations (dedupPlan), settles the groups the result
// cache already holds, and submits only the misses as tasks to one
// coord.Pool, the executor the serve daemon uses too. The pool's
// workers are either in-process (local runs; `serve -local`) or
// `pimbench work` subprocesses launched from a template (coord;
// serve). A subprocess fleet work-steals, retries a job from a
// crashed or erroring worker on the survivors (at most 3 attempts,
// since a job error there may be host-local), and replaces lost
// workers; in-process workers never retry, because a simulation error
// is deterministic. Every settled group fans out through the result
// cache — under the canonical key and every alias — into the run's
// report stream, so a coordinated run prints the same bytes as a
// single-process one, and a mid-run kill loses at most in-flight jobs:
// re-running resumes from the cache.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"bulkpim/internal/coord"
)

// CoordOptions configures a coordinated run. The fleet size is
// Options.Parallelism.
type CoordOptions struct {
	// WorkerCmd is the worker launch template. Empty re-executes the
	// current binary; otherwise it is split on whitespace and its
	// "{args}" field expands to the work-subcommand arguments (appended
	// when absent) — e.g. "ssh build-02 /opt/pimbench {args}" for an
	// ssh-style remote worker.
	WorkerCmd string
	// Progress, when non-nil, receives the live jobs-done/ETA footer.
	Progress io.Writer
	// WorkerStderr, when non-nil, receives the workers' stderr (their
	// log channel); nil discards it.
	WorkerStderr io.Writer
	// FailWorker/FailAfter are the crash-injection test hook: with
	// FailAfter > 0, worker FailWorker is launched with `-fail-after
	// FailAfter` and dies after serving that many jobs — losing its
	// next job in flight, which the coordinator must retry elsewhere.
	FailWorker int
	FailAfter  int
}

// CoordSummary accounts one execute run.
type CoordSummary struct {
	// Planned counts the suite's manifest entries; Distinct the unique
	// simulations after fingerprint dedup; Done/Failed the settled
	// ones, Cached the part of Done served from the result cache;
	// Retried the re-dispatches after worker crashes or job errors;
	// WorkersLost the workers that failed to launch or died.
	Planned, Distinct, Done, Failed, Cached, Retried, WorkersLost int
	// Stored counts cache entries written, aliases included.
	Stored int
}

func (s CoordSummary) String() string {
	return fmt.Sprintf("%d/%d distinct jobs done (%d planned, %d failed, %d retried, %d workers lost), %d cached, %d cache entries",
		s.Done, s.Distinct, s.Planned, s.Failed, s.Retried, s.WorkersLost, s.Cached, s.Stored)
}

// workArgs is the work-subcommand argv of a fleet worker. Workers plan
// from each job's spec, so only the crash-injection hook (failAfter >
// 0) travels on the command line. TestServeWorkArgsRoundTrip asserts
// the round-trip through the work subcommand's flag set.
func workArgs(failAfter int) []string {
	if failAfter > 0 {
		return []string{"work", "-fail-after", strconv.Itoa(failAfter)}
	}
	return []string{"work"}
}

// workerArgv builds one worker's launch argv from the template. See
// CoordOptions.WorkerCmd for the template grammar.
func workerArgv(tmpl string, workArgs []string) ([]string, error) {
	if tmpl == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("worker argv: %w", err)
		}
		return append([]string{exe}, workArgs...), nil
	}
	fields := strings.Fields(tmpl)
	if len(fields) == 0 {
		return nil, errors.New("blank -worker-cmd template")
	}
	var argv []string
	expanded := false
	for _, f := range fields {
		if f == "{args}" {
			argv = append(argv, workArgs...)
			expanded = true
			continue
		}
		argv = append(argv, f)
	}
	if !expanded {
		argv = append(argv, workArgs...)
	}
	return argv, nil
}

// procLauncher launches `pimbench work` subprocesses from the
// workerCmd template (see CoordOptions.WorkerCmd). With failAfter > 0,
// worker failWorker is launched with `-fail-after failAfter`, the
// crash-injection test hook; replacements get fresh ids and are never
// injected.
func procLauncher(workerCmd string, stderr io.Writer, failWorker, failAfter int) func(id int) (coord.Worker, error) {
	return func(id int) (coord.Worker, error) {
		n := 0
		if id == failWorker {
			n = failAfter
		}
		argv, err := workerArgv(workerCmd, workArgs(n))
		if err != nil {
			return nil, err
		}
		w, err := coord.StartProc(id, argv, stderr)
		if err != nil {
			return nil, err
		}
		return w, nil
	}
}

// fleet staffs a coord.Pool for execute and Server alike: it
// launches workers and replaces each lost one while the pool is below
// its target size, until stop. The pool keeps tasks queued while it
// has no worker, waiting for a join; when the last worker is gone and
// no launch is pending, onEmpty (when set) runs once so a batch caller
// can fail what is left instead of waiting forever.
type fleet struct {
	pool    *coord.Pool
	target  int
	logf    func(format string, args ...any)
	onEmpty func()

	mu        sync.Mutex
	launching int // launches decided and not yet finished
	deaths    int // worker deaths whose replacement was decided
	stopped   bool
	emptied   bool
	// launchErrs collects failed launches for a batch caller (onEmpty
	// set); a daemon's list would only grow.
	launchErrs []error
}

// newFleet builds the pool over po (whose Log must be set), with the
// fleet's replacement logic as its OnWorkerLost. Launch workers with
// grow.
func newFleet(po coord.PoolOptions, target int, onEmpty func()) *fleet {
	f := &fleet{target: target, logf: po.Log, onEmpty: onEmpty}
	po.OnWorkerLost = f.workerLost
	f.pool = coord.NewPool(po)
	return f
}

// grow launches n workers concurrently (subprocess startup is slow)
// and returns the launch errors, not counting a closed pool.
func (f *fleet) grow(n int) []error {
	f.mu.Lock()
	f.launching += n
	f.mu.Unlock()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f.launch()
		}()
	}
	wg.Wait()
	var failed []error
	for _, err := range errs {
		if err != nil && !errors.Is(err, coord.ErrClosed) {
			failed = append(failed, err)
		}
	}
	return failed
}

// launch adds one worker the caller has already counted in launching.
func (f *fleet) launch() error {
	_, err := f.pool.AddWorker()
	f.mu.Lock()
	f.launching--
	if err != nil && !errors.Is(err, coord.ErrClosed) && f.onEmpty != nil {
		f.launchErrs = append(f.launchErrs, err)
	}
	f.mu.Unlock()
	f.checkEmpty()
	return err
}

// stop ends replacement: a worker lost from now on stays lost.
func (f *fleet) stop() {
	f.mu.Lock()
	f.stopped = true
	f.mu.Unlock()
}

// workerLost is the pool's OnWorkerLost: replace the loss while the
// fleet is below target and not stopped. Each death opens one vacancy
// and each replacement fills one, so launches in flight (filling other
// vacancies) do not count against it.
func (f *fleet) workerLost(id int, err error) {
	f.mu.Lock()
	f.deaths++
	replace := !f.stopped && len(f.pool.Stats().Workers) < f.target
	if replace {
		f.launching++
	}
	f.mu.Unlock()
	if !replace {
		f.checkEmpty()
		return
	}
	switch lerr := f.launch(); {
	case errors.Is(lerr, coord.ErrClosed):
		// The pool closed meanwhile: there is nothing to replace.
	case lerr != nil:
		f.logf("fleet: worker %d lost (%v), replacement failed: %v", id, err, lerr)
	default:
		f.logf("fleet: worker %d lost (%v), replacement joined", id, err)
	}
}

// checkEmpty runs onEmpty the first time the fleet is provably gone:
// no live worker, no launch in flight, and no death whose replacement
// is still undecided.
func (f *fleet) checkEmpty() {
	if f.onEmpty == nil {
		return
	}
	f.mu.Lock()
	st := f.pool.Stats()
	fire := !f.emptied && f.launching == 0 && len(st.Workers) == 0 && st.Lost == f.deaths
	f.emptied = f.emptied || fire
	f.mu.Unlock()
	if fire {
		f.onEmpty()
	}
}

// failedLaunches returns the launch errors so far.
func (f *fleet) failedLaunches() []error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]error(nil), f.launchErrs...)
}

// localWorker is the one in-process coord.Worker, behind local runs,
// `serve -local` and the `pimbench work` endpoint: it runs a task
// through the function itself. A job error or panic is job-level
// (*coord.JobError), so the worker survives to serve its siblings.
type localWorker func(coord.Task) (Result, error)

func (run localWorker) Run(t coord.Task) (v Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			v, err = Result{}, &coord.JobError{Msg: fmt.Sprintf("panic: %v", p)}
		}
	}()
	if v, err = run(t); err != nil {
		return Result{}, &coord.JobError{Msg: err.Error(), Skew: errors.Is(err, coord.ErrPlanSkew)}
	}
	return v, nil
}

func (localWorker) Close() error { return nil }

// executor staffs execute's pool. pool returns the pool's options —
// its Launch and retry budget — for the groups the result cache could
// not serve; execute calls it only when there is at least one. spec
// rides every task to subprocess workers, which plan from it.
// progress, when non-nil, receives the live jobs-done/ETA footer.
type executor struct {
	pool     func(misses []*fpGroup) coord.PoolOptions
	spec     coord.JobSpec
	progress io.Writer
}

// inProcess is the executor of local runs: in-process workers running
// each missed group's own SimJob, which execute drops once the group
// settles, so its workload can be released. A simulation error is
// deterministic, so they never retry and never back off.
var inProcess = executor{pool: func(misses []*fpGroup) coord.PoolOptions {
	byFP := make(map[string]*fpGroup, len(misses))
	for _, g := range misses {
		byFP[g.fp] = g
	}
	w := localWorker(func(t coord.Task) (Result, error) { return byFP[t.Fingerprint].job.Run() })
	return coord.PoolOptions{
		Launch:      func(int) (coord.Worker, error) { return w, nil },
		MaxAttempts: 1,
		BaseBackoff: time.Nanosecond,
		MaxBackoff:  time.Nanosecond,
	}
}}

// execute is the one executor. It settles each group of a deduplicated
// plan (dedupPlan) exactly once, through fanOut under every key the
// plan lists for it (settle, when non-nil, observes each): a group the
// result cache holds settles at once, and only the misses run, as
// tasks on one coord.Pool staffed by a fleet of x's workers,
// Options.Parallelism wide (<= 0 means GOMAXPROCS, never more than
// the misses). The pool thus bounds simulation concurrency
// suite-wide, and when every group is a cache hit no pool starts. A
// settled group's job is dropped, so a generated workload stays alive
// only until the last group using it settles. A job failure settles
// under its keys; the returned error names every failed worker launch.
// Pool callbacks are serialized here, so settle, the cache stores, the
// log and the footer never run concurrently.
func execute(opts Options, groups []*fpGroup, settle func(key string, r Result, err error), x executor) (CoordSummary, error) {
	opts.Log = opts.lockedLog()
	sum := CoordSummary{Distinct: len(groups)}
	var (
		mu      sync.Mutex
		settled = make([]bool, len(groups))
		done    int
	)
	// finish settles group i unless it already settled (the pool
	// failing a task the fleet's loss already failed); once the pool
	// runs, callers hold mu.
	finish := func(i int, o coord.Outcome, cached bool) bool {
		if settled[i] {
			return false
		}
		settled[i] = true
		done++
		g := groups[i]
		switch {
		case o.Err != nil:
			sum.Failed++
			opts.log("[%d/%d] %s FAILED: %v", done, len(groups), g.keys[0], o.Err)
		case cached:
			sum.Done++
			sum.Cached++
			opts.log("[%d/%d] %s cycles=%d (cached)", done, len(groups), g.keys[0], o.Value.Cycles)
		default:
			sum.Done++
			opts.log("[%d/%d] %s cycles=%d on worker %d (attempt %d)",
				done, len(groups), g.keys[0], o.Value.Cycles, o.Worker, o.Attempts)
		}
		sum.Stored += opts.fanOut(g, o.Value, o.Err, cached, settle)
		g.job = SimJob{}
		return true
	}
	var misses []*fpGroup
	var index []int // misses[k] is groups[index[k]]
	for i, g := range groups {
		if opts.Cache != nil {
			if r, hit := opts.Cache.Lookup(g.keys[0], g.fp); hit {
				finish(i, coord.Outcome{Value: r}, true)
				continue
			}
		}
		misses, index = append(misses, g), append(index, i)
	}
	if len(misses) == 0 {
		return sum, nil
	}

	po := x.pool(misses)
	po.Log = opts.log
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(misses))
	footer := &coordFooter{w: x.progress, total: len(misses), workers: workers, start: time.Now()}
	var (
		left     = len(misses)
		finished = make(chan struct{})
		f        *fleet
	)
	run := func(k int, o coord.Outcome) {
		mu.Lock()
		defer mu.Unlock()
		if !finish(index[k], o, false) {
			return
		}
		left--
		st := f.pool.Stats()
		footer.update(len(misses)-left, sum.Failed, st.Retried, len(st.Workers))
		if left == 0 {
			close(finished)
		}
	}
	tasks := make([]coord.Task, len(misses))
	for k, g := range misses {
		tasks[k] = coord.Task{Key: g.keys[0], Fingerprint: g.fp, Spec: x.spec}
	}
	failRest := func(err error) {
		for k, t := range tasks {
			run(k, coord.Outcome{Task: t, Err: err, Worker: -1})
		}
	}
	// Every worker runs the same launch, so a worker reporting plan
	// skew means the whole fleet plans differently from this build:
	// fail the run at once rather than let each job spend its retries
	// and backoffs on the same error.
	launch := po.Launch
	po.Launch = func(id int) (coord.Worker, error) {
		w, err := launch(id)
		if err != nil {
			return nil, err
		}
		return skewGuard{w, func(err error) { failRest(fmt.Errorf("run abandoned, worker %d: %w", id, err)) }}, nil
	}
	f = newFleet(po, workers, func() { failRest(errors.New("no live worker")) })
	for k, t := range tasks {
		if err := f.pool.Submit(t, func(o coord.Outcome) { run(k, o) }); err != nil {
			run(k, coord.Outcome{Task: t, Err: err, Worker: -1})
		}
	}
	for _, err := range f.grow(workers) {
		opts.log("fleet: %v", err)
	}
	<-finished
	f.pool.Close()

	launchErrs, st := f.failedLaunches(), f.pool.Stats()
	sum.Retried, sum.WorkersLost = st.Retried, len(launchErrs)+st.Lost
	footer.finish(sum)
	return sum, errors.Join(launchErrs...)
}

// fanOut settles one fingerprint group's outcome under every key the
// plan lists for it. On success each key the cache lacks is stored:
// aliases are looked up first, while the canonical key is stored
// unless cached reports that the result was served from it. settle,
// when non-nil, then observes every key, failed or not. fanOut returns
// the number of cache entries written.
func (o Options) fanOut(g *fpGroup, r Result, err error, cached bool, settle func(key string, r Result, err error)) (stored int) {
	for i, key := range g.keys {
		write := err == nil && o.Cache != nil
		if write && i == 0 {
			write = !cached
		} else if write {
			_, hit := o.Cache.Lookup(key, g.fp)
			write = !hit
		}
		if write {
			// A failed write-back only costs a future recompute; it is
			// counted in the cache stats and logged, never fatal.
			if serr := o.Cache.Store(key, g.fp, r); serr != nil {
				o.log("cache store %s: %v", key, serr)
			} else {
				stored++
			}
		}
		if settle != nil {
			settle(key, r, err)
		}
	}
	return stored
}

// Coordinate is the coordinator half of `pimbench coord`: the named
// experiment ("all" for the suite) run like StreamReport — same
// report bytes to w, same emissions to emit (which may be nil) — but
// with its cache misses executed on a fleet of Options.Parallelism
// `pimbench work` subprocesses, each result landing in opts.Cache as
// it settles. A run over a cache that holds every group launches no
// worker. The run completes as long as a worker survives or a
// replacement launches, and fails at once on plan skew; the returned
// error names every failed launch and every failed artifact with each
// failed job it listens on.
func Coordinate(name string, opts Options, copts CoordOptions, emit func(StreamEmit), w io.Writer) (CoordSummary, error) {
	return coordinate(name, opts, copts, emit, w, nil)
}

// coordinate is Coordinate with an injectable worker launch; nil
// launches `pimbench work` subprocesses as copts describes.
func coordinate(name string, opts Options, copts CoordOptions, emit func(StreamEmit), w io.Writer,
	launch func(id int) (coord.Worker, error)) (CoordSummary, error) {
	if opts.Cache == nil {
		return CoordSummary{}, errors.New("coordinated run needs Options.Cache: results stream into the shared result cache")
	}
	if launch == nil {
		launch = procLauncher(copts.WorkerCmd, copts.WorkerStderr, copts.FailWorker, copts.FailAfter)
	}
	x := executor{
		spec:     coord.JobSpec{Exp: strings.ToLower(name), Scale: string(opts.Scale), Seed: opts.Seed},
		progress: copts.Progress,
		pool: func([]*fpGroup) coord.PoolOptions {
			return coord.PoolOptions{Launch: launch}
		},
	}
	_, sum, err := streamRun(name, opts, emit, w, x)
	return sum, err
}

// skewGuard passes a worker's plan-skew job errors to onSkew.
type skewGuard struct {
	coord.Worker
	onSkew func(error)
}

func (g skewGuard) Run(t coord.Task) (Result, error) {
	v, err := g.Worker.Run(t)
	if errors.Is(err, coord.ErrPlanSkew) {
		g.onSkew(err)
	}
	return v, err
}

// coordFooter renders the live jobs-done/ETA line, rewritten in place
// on w (nil disables it), and the run's final accounting line.
type coordFooter struct {
	w              io.Writer
	total, workers int
	start          time.Time
	lastLen        int
}

func (c *coordFooter) update(done, failed, retried, live int) {
	eta := "--"
	if done > 0 && done < c.total {
		per := time.Since(c.start) / time.Duration(done)
		eta = (per * time.Duration(c.total-done)).Round(time.Second).String()
	}
	c.print(fmt.Sprintf("coord: %d/%d jobs (%d failed, %d retried), %d/%d workers, ETA %s",
		done, c.total, failed, retried, live, c.workers, eta), "")
}

// finish prints the final line over the executed jobs, cache hits
// excluded.
func (c *coordFooter) finish(s CoordSummary) {
	c.print(fmt.Sprintf("coord: %d/%d jobs done (%d failed, %d retried, %d workers lost) in %s",
		s.Done-s.Cached, c.total, s.Failed, s.Retried, s.WorkersLost,
		time.Since(c.start).Round(time.Millisecond)), "\n")
}

func (c *coordFooter) print(line, end string) {
	if c.w == nil {
		return
	}
	pad := ""
	if n := c.lastLen - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	c.lastLen = len(line)
	fmt.Fprintf(c.w, "\r%s%s%s", line, pad, end)
}
