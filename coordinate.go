package bulkpim

// Fault-tolerant coordinated execution, built on internal/coord: the
// coordinator plans the suite, dedups it to distinct simulations
// (dedupPlan — the same rule the shard pipeline uses), and submits each
// as a task carrying its JobSpec to a coord.Pool of `pimbench work`
// subprocesses — the executor, worker mode and protocol the serve
// daemon uses. The pool work-steals, retries a job from a crashed or
// erroring worker on the survivors (at most 3 attempts), and the fleet
// replaces lost workers. Every finished result streams straight into
// the shared result cache — under the canonical key and every alias —
// so a mid-run kill loses at most in-flight jobs and a subsequent
// report pass (pimbench -exp ... -cache-dir ...) is served entirely
// from cache hits, byte-identical to a single-process run.

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

// CoordOptions configures a coordinated run.
type CoordOptions struct {
	// Workers is the worker-subprocess fleet size, kept up by replacing
	// lost workers; <= 0 means GOMAXPROCS (never more than the distinct
	// job count).
	Workers int
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
	// Stream, when non-nil, receives each artifact emission the moment
	// its last planned job settles (see ReportStream): the coordinated
	// run renders figures coordinator-side from worker results instead
	// of deferring everything to a warm report pass. Workers stay
	// execute-only. Calls arrive serialized.
	Stream func(StreamEmit)
}

// CoordSummary accounts one coordinated run.
type CoordSummary struct {
	// Planned counts the suite's manifest entries; Distinct the unique
	// simulations after fingerprint dedup; Done/Failed the settled
	// tasks; Retried the re-dispatches after worker crashes or job
	// errors; WorkersLost the workers that failed to launch or died.
	Planned, Distinct, Done, Failed, Retried, WorkersLost int
	// Stored counts cache entries written, aliases included.
	Stored int
}

func (s CoordSummary) String() string {
	return fmt.Sprintf("%d/%d distinct jobs done (%d planned, %d failed, %d retried, %d workers lost), %d cache entries",
		s.Done, s.Distinct, s.Planned, s.Failed, s.Retried, s.WorkersLost, s.Stored)
}

// workArgs builds the work-subcommand argv of a fleet worker. Workers
// plan per job spec, so only the shared resources they attach to (the
// snapshot store directory) travel on the command line.
// TestServeWorkArgsRoundTrip asserts the round-trip through the work
// subcommand's flag set.
func workArgs(opts Options) []string {
	args := []string{"work"}
	if opts.Snapshots != nil {
		args = append(args, "-snapshot-dir", opts.Snapshots.Dir())
	}
	return args
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
func procLauncher(opts Options, workerCmd string, stderr io.Writer, failWorker, failAfter int) func(id int) (coord.Worker, error) {
	args := workArgs(opts)
	return func(id int) (coord.Worker, error) {
		a := args
		if failAfter > 0 && id == failWorker {
			a = append(append([]string(nil), args...), "-fail-after", strconv.Itoa(failAfter))
		}
		argv, err := workerArgv(workerCmd, a)
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

// fleet staffs a coord.Pool for Coordinate and Server alike: it
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

// Coordinate is the coordinator half of `pimbench coord`: an
// execute-only fleet run of the named experiment ("all" for the suite)
// whose results land in opts.Cache as they finish. Reports stay with a
// later warm pass against the same cache (or stream coordinator-side
// with copts.Stream). The run completes as long as a worker survives
// or a replacement launches, and fails at once on plan skew; it
// returns an error naming every failed launch and every permanently
// failed job.
func Coordinate(name string, opts Options, copts CoordOptions) (CoordSummary, error) {
	return coordinate(name, opts, copts, nil)
}

// coordinate is Coordinate with an injectable worker launch; nil
// launches `pimbench work` subprocesses as copts describes.
func coordinate(name string, opts Options, copts CoordOptions, launch func(id int) (coord.Worker, error)) (CoordSummary, error) {
	var sum CoordSummary
	if opts.Cache == nil {
		return sum, errors.New("coordinated run needs Options.Cache: results stream into the shared result cache")
	}
	planned, err := planFor(name, opts)
	if err != nil {
		return sum, err
	}
	groups, manifest := dedupPlan(planned)
	sum.Planned, sum.Distinct = len(manifest), len(groups)

	// The pool logs and settles from every worker goroutine.
	opts.Log = opts.lockedLog()
	logf := opts.log

	// The streaming countdown listens on the same alias keys the cache
	// writes below fan out to, so artifacts complete exactly when their
	// last distinct simulation settles — including ones whose keys this
	// experiment shares with a sibling's fingerprint group.
	var streamSettle func(key string, r Result, err error)
	if copts.Stream != nil {
		stream, err := NewReportStream(name, opts, copts.Stream)
		if err != nil {
			return sum, err
		}
		streamSettle = stream.Settle
	}
	if len(groups) == 0 {
		return sum, nil
	}

	// Pre-warm the snapshot store before any worker launches: the
	// biggest databases this plan references are published once by the
	// coordinator, so the fleet — sharing the store's filesystem —
	// loads them instead of racing to regenerate them per worker. The
	// already-built plan is reused; the suite is not planned twice.
	if opts.Snapshots != nil {
		if n := prewarmPlanned(opts, plannedIdentities(planned)); n > 0 {
			logf("coord: pre-warmed %d workload snapshot(s) into %s", n, opts.Snapshots.Dir())
		}
	}

	workers := copts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(groups))
	if launch == nil {
		launch = procLauncher(opts, copts.WorkerCmd, copts.WorkerStderr, copts.FailWorker, copts.FailAfter)
	}

	// Pool callbacks arrive concurrently from worker goroutines, so
	// settle serializes everything they touch: the cache stores, the
	// stream, the summary and the footer. A task settles once; a later
	// outcome for it (the pool failing a task the fleet's loss already
	// settled) is ignored. Streaming each result as it settles is what
	// bounds a mid-run kill's loss to in-flight jobs.
	var (
		mu       sync.Mutex
		settled  = make([]bool, len(groups))
		left     = len(groups)
		finished = make(chan struct{})
		failures []error
		f        *fleet
	)
	footer := &coordFooter{w: copts.Progress, total: len(groups), workers: workers, start: time.Now()}
	settle := func(i int, o coord.Outcome) {
		mu.Lock()
		defer mu.Unlock()
		if settled[i] {
			return
		}
		settled[i] = true
		left--
		done, total, key := len(groups)-left, len(groups), groups[i].keys[0]
		if o.Err != nil {
			sum.Failed++
			failures = append(failures, fmt.Errorf("%s: %w", key, o.Err))
			logf("[%d/%d] %s FAILED: %v", done, total, key, o.Err)
		} else {
			sum.Done++
		}
		// Nothing here was looked up first: the canonical key is stored
		// as computed, the aliases where the cache lacks them.
		sum.Stored += opts.fanOut(groups[i], o.Value, o.Err, false, streamSettle)
		if o.Err == nil {
			logf("[%d/%d] %s done on worker %d (attempt %d)", done, total, key, o.Worker, o.Attempts)
		}
		st := f.pool.Stats()
		footer.update(done, sum.Failed, st.Retried, len(st.Workers))
		if left == 0 {
			close(finished)
		}
	}

	spec := coord.JobSpec{Exp: strings.ToLower(name), Scale: string(opts.Scale), Seed: opts.Seed}
	tasks := make([]coord.Task, len(groups))
	for i, g := range groups {
		tasks[i] = coord.Task{Key: g.keys[0], Fingerprint: g.fp, Spec: spec}
	}
	failRest := func(err error) {
		for i, t := range tasks {
			settle(i, coord.Outcome{Task: t, Err: err, Worker: -1})
		}
	}
	// Every worker runs the same launch template, so a worker reporting
	// plan skew means the whole fleet plans differently from this build:
	// fail the run at once rather than let each job spend its retries
	// and backoffs on the same error.
	launchWorker := launch
	launch = func(id int) (coord.Worker, error) {
		w, err := launchWorker(id)
		if err != nil {
			return nil, err
		}
		return skewGuard{w, func(err error) { failRest(fmt.Errorf("run abandoned, worker %d: %w", id, err)) }}, nil
	}
	f = newFleet(coord.PoolOptions{Launch: launch, Log: logf}, workers, func() {
		failRest(errors.New("no live worker"))
	})
	for i, t := range tasks {
		if err := f.pool.Submit(t, func(o coord.Outcome) { settle(i, o) }); err != nil {
			settle(i, coord.Outcome{Task: t, Err: err, Worker: -1})
		}
	}
	for _, err := range f.grow(workers) {
		logf("coord: %v", err)
	}
	<-finished
	f.pool.Close()

	launchErrs, st := f.failedLaunches(), f.pool.Stats()
	sum.Retried, sum.WorkersLost = st.Retried, len(launchErrs)+st.Lost
	footer.finish(sum)
	return sum, errors.Join(append(launchErrs, failures...)...)
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

func (c *coordFooter) finish(s CoordSummary) {
	c.print(fmt.Sprintf("coord: %d/%d jobs done (%d failed, %d retried, %d workers lost) in %s",
		s.Done, s.Distinct, s.Failed, s.Retried, s.WorkersLost,
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
