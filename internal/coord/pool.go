package coord

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"bulkpim/internal/system"
)

// Task is one distinct unit of work: a planned suite's fingerprint
// group, represented by its canonical key. Fingerprints content-address
// the simulations, so the caller keeps them unique among live tasks.
// Spec rides to the worker, which plans for it on demand.
type Task struct {
	Key         string
	Fingerprint string
	Spec        JobSpec
}

// JobError is a job-level failure reported by a healthy worker: the
// job's simulation returned an error, the worker itself keeps serving.
// The pool retries the job on other workers with the reporting worker
// excluded. Any other error from Worker.Run means the worker is lost
// (crashed, pipe broken) and is removed from the fleet.
type JobError struct {
	Msg string
	// Skew marks plan skew: the error unwraps to ErrPlanSkew.
	Skew bool
}

func (e *JobError) Error() string { return e.Msg }

func (e *JobError) Unwrap() error {
	if e.Skew {
		return ErrPlanSkew
	}
	return nil
}

// ErrPlanSkew is a worker's report that the job's spec plans no job
// with its fingerprint: coordinator and worker plan differently
// (different builds), so every job sent to that worker fails alike.
var ErrPlanSkew = errors.New("plan skew between coordinator and worker")

// Worker executes one task at a time. Implementations: ProcWorker
// (a pimbench work subprocess), in-process workers, and test fakes.
type Worker interface {
	// Run executes the task, blocking until its outcome. A *JobError
	// return means the job failed on a healthy worker; any other error
	// means the worker is lost.
	Run(t Task) (system.Result, error)
	Close() error
}

// Outcome is one settled task, delivered to its Submit callback as it
// lands (so a mid-run kill loses at most in-flight jobs).
type Outcome struct {
	Task  Task
	Value system.Result
	// Err is non-nil when the task failed permanently: its retry budget
	// was spent, every live worker was excluded from it, or the pool
	// closed before it ran.
	Err error
	// Worker is the worker that settled the task (-1 when no worker
	// could).
	Worker int
	// Attempts counts dispatches, including the settling one.
	Attempts int
}

// ErrClosed is returned by a closed pool's AddWorker and Submit, and
// fails the tasks Close drops from the queue.
var ErrClosed = errors.New("pool closed")

// Pool is the executor behind both `pimbench coord` and `pimbench
// serve`: a persistent, elastic fleet of workers pulling tasks from one
// queue with dynamic work-stealing. Tasks are submitted one at a time
// (a batch run's whole plan, or a daemon's cache misses as they
// arrive), workers join and leave the live pool, and every settled task
// is delivered through its own callback. A job-level error (*JobError)
// retries the task on other workers with the reporting worker
// excluded; any other error loses the worker, requeues its task and
// removes it from the fleet.
//
// Two mechanisms bound failure handling. Each task carries a dispatch
// budget (MaxAttempts): when crashed or erroring workers have consumed
// it, the task settles as permanently failed instead of bouncing
// around the fleet forever. Each worker carries an adaptive backoff:
// consecutive job errors on one worker — the signature of a flaky
// remote host rather than a bad job — put it to sleep for
// BaseBackoff·2^(streak-1), capped at MaxBackoff, so healthy workers
// absorb the load while the flaky one cools off; one success resets
// its streak.
//
// A task that every live worker is excluded from settles as failed —
// when it is requeued, and again for every queued task whenever a
// worker leaves or dies (after OnWorkerLost had its chance to replace
// it). With no live worker at all it stays queued, waiting for a join
// (the elastic case: a daemon replacing a lost worker). Close fails
// everything still queued.
type Pool struct {
	o PoolOptions

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*poolTask
	workers map[int]*poolWorker
	nextID  int
	closed  bool
	lost    int
	retried int
	wg      sync.WaitGroup
}

// PoolOptions configures a worker pool.
type PoolOptions struct {
	// Launch starts worker id; it is invoked by AddWorker, outside the
	// pool lock (subprocess startup is slow).
	Launch func(id int) (Worker, error)
	// MaxAttempts is the per-task dispatch budget; <= 0 means 3.
	MaxAttempts int
	// BaseBackoff is a worker's sleep after its first consecutive job
	// error, doubling per additional error up to MaxBackoff. Zero values
	// default to 100ms and 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// OnWorkerLost, when non-nil, observes each worker death (launch
	// failures are reported by AddWorker instead). It is called outside
	// the pool lock, so it may call AddWorker to replace the loss.
	OnWorkerLost func(id int, err error)
	// Log receives progress lines; nil discards them.
	Log func(format string, args ...any)
}

func (o PoolOptions) log(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

func (o PoolOptions) maxAttempts() int {
	if o.MaxAttempts > 0 {
		return o.MaxAttempts
	}
	return 3
}

func (o PoolOptions) backoff(streak int) time.Duration {
	base, max := o.BaseBackoff, o.MaxBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base
	for i := 1; i < streak && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// poolTask is one queued-or-running submission.
type poolTask struct {
	t        Task
	excluded map[int]bool
	attempts int
	lastErr  error
	done     func(Outcome)
}

// poolWorker is one fleet member's live state and counters.
type poolWorker struct {
	id      int
	w       Worker
	state   string // "idle", "busy", "backoff", "leaving"
	leaving bool
	done    int
	failed  int
	streak  int
	busy    time.Duration
}

// WorkerStats is one worker's health/latency/throughput snapshot.
type WorkerStats struct {
	ID    int    `json:"id"`
	State string `json:"state"`
	// Done counts tasks this worker settled successfully; Failed the
	// job-level errors it reported; FailStreak its current consecutive
	// failures (drives the backoff).
	Done       int `json:"done"`
	Failed     int `json:"failed"`
	FailStreak int `json:"fail_streak,omitempty"`
	// BusyNs is total wall time spent executing tasks; AvgNs is
	// BusyNs / (Done + Failed) — the worker's mean task latency.
	BusyNs int64 `json:"busy_ns"`
	AvgNs  int64 `json:"avg_ns,omitempty"`
}

// PoolStats is the pool's aggregate snapshot.
type PoolStats struct {
	// Queued counts tasks waiting for a worker (not those executing);
	// Lost the workers that died mid-run; Retried the re-dispatches
	// after worker crashes or job errors.
	Queued  int           `json:"queued"`
	Lost    int           `json:"lost"`
	Retried int           `json:"retried"`
	Workers []WorkerStats `json:"workers"`
}

// NewPool builds an empty pool; add workers with AddWorker.
func NewPool(o PoolOptions) *Pool {
	if o.Launch == nil {
		panic("coord.NewPool: nil Launch")
	}
	p := &Pool{o: o, workers: map[int]*poolWorker{}}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// AddWorker launches and registers one worker, returning its id. Ids
// are never reused, so a task's exclusion set cannot leak onto a
// replacement worker.
func (p *Pool) AddWorker() (int, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return -1, ErrClosed
	}
	id := p.nextID
	p.nextID++
	p.mu.Unlock()

	w, err := p.o.Launch(id)
	if err != nil {
		return -1, fmt.Errorf("worker %d: launch: %w", id, err)
	}
	pw := &poolWorker{id: id, w: w, state: "idle"}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		w.Close()
		return -1, ErrClosed
	}
	p.workers[id] = pw
	p.wg.Add(1)
	p.cond.Broadcast()
	p.mu.Unlock()
	go p.loop(pw)
	p.o.log("pool: worker %d joined", id)
	return id, nil
}

// RemoveWorker marks worker id as leaving: it finishes its current
// task (if any), is dismissed cleanly, and takes no further work.
func (p *Pool) RemoveWorker(id int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	pw, ok := p.workers[id]
	if !ok {
		return fmt.Errorf("no worker %d", id)
	}
	pw.leaving = true
	p.cond.Broadcast()
	return nil
}

// Submit enqueues one task; done is invoked exactly once with its
// outcome (success, or permanent failure after the retry budget or
// fleet exclusion), never under the pool lock.
func (p *Pool) Submit(t Task, done func(Outcome)) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.queue = append(p.queue, &poolTask{t: t, excluded: map[int]bool{}, done: done})
	p.cond.Broadcast()
	p.mu.Unlock()
	return nil
}

// Stats snapshots the pool, workers sorted by id.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := PoolStats{Queued: len(p.queue), Lost: p.lost, Retried: p.retried,
		Workers: make([]WorkerStats, 0, len(p.workers))}
	for _, pw := range p.workers {
		ws := WorkerStats{ID: pw.id, State: pw.state, Done: pw.done, Failed: pw.failed,
			FailStreak: pw.streak, BusyNs: pw.busy.Nanoseconds()}
		if n := pw.done + pw.failed; n > 0 {
			ws.AvgNs = ws.BusyNs / int64(n)
		}
		s.Workers = append(s.Workers, ws)
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].ID < s.Workers[j].ID })
	return s
}

// Close fails every queued task, dismisses the fleet (waking workers in
// backoff) and waits for the worker loops (and their subprocesses) to
// exit. In-flight tasks still deliver their outcomes before Close
// returns. Close must not be called from a Submit or OnWorkerLost
// callback: it waits for the worker loop running that callback.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	dropped := p.queue
	p.queue = nil
	p.cond.Broadcast()
	p.mu.Unlock()
	for _, t := range dropped {
		t.done(Outcome{Task: t.t, Err: ErrClosed, Worker: -1, Attempts: t.attempts})
	}
	p.wg.Wait()
}

// take blocks until a task worker pw may run is available; nil means
// the worker should exit (pool closed or worker leaving).
func (p *Pool) take(pw *poolWorker) *poolTask {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed || pw.leaving {
			pw.state = "leaving"
			return nil
		}
		for i, t := range p.queue {
			if !t.excluded[pw.id] {
				p.queue = append(p.queue[:i], p.queue[i+1:]...)
				t.attempts++
				if t.attempts > 1 {
					p.retried++
				}
				pw.state = "busy"
				return t
			}
		}
		pw.state = "idle"
		p.cond.Wait()
	}
}

// requeueLocked puts t back for the rest of the fleet after worker
// `worker` failed it — or settles it as permanently failed when its
// retry budget is gone or no current worker may run it (see
// runnableLocked). Callers hold mu; the returned task, when non-nil,
// must have its done invoked after releasing it.
func (p *Pool) requeueLocked(t *poolTask, worker int, err error) (failed *poolTask) {
	t.excluded[worker] = true
	t.lastErr = err
	if t.attempts >= p.o.maxAttempts() || !p.runnableLocked(t) {
		return t
	}
	p.queue = append(p.queue, t)
	p.cond.Broadcast()
	return nil
}

// runnableLocked reports whether t can still run: some live (not
// leaving) worker is not excluded from it, or there is no live worker
// at all — the pool is elastic, and a replacement may join
// (OnWorkerLost typically adds one). Callers hold mu.
func (p *Pool) runnableLocked(t *poolTask) bool {
	live := false
	for id, pw := range p.workers {
		if pw.leaving {
			continue
		}
		if !t.excluded[id] {
			return true
		}
		live = true
	}
	return !live
}

// settleStranded fails every queued task no remaining worker may run.
// A task is excluded only from workers that failed it, so this matters
// once a worker leaves the fleet: the survivors may all be excluded
// from a task that was waiting for the one that left.
func (p *Pool) settleStranded() {
	p.mu.Lock()
	var stranded []*poolTask
	kept := p.queue[:0]
	for _, t := range p.queue {
		if p.runnableLocked(t) {
			kept = append(kept, t)
		} else {
			stranded = append(stranded, t)
		}
	}
	clear(p.queue[len(kept):])
	p.queue = kept
	p.mu.Unlock()
	for _, t := range stranded {
		t.done(failOutcome(t))
	}
}

// cooldown is worker pw's backoff after a job error: it sleeps for d,
// or less when Close or RemoveWorker ends it early. The backoff is the
// worker sleeping, not the task waiting: the requeued task is already
// available to the rest of the fleet.
func (p *Pool) cooldown(pw *poolWorker, d time.Duration) {
	deadline := time.Now().Add(d)
	timer := time.AfterFunc(d, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer timer.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed && !pw.leaving && time.Now().Before(deadline) {
		p.cond.Wait()
	}
	pw.state = "idle"
}

// failOutcome renders a permanently failed task's outcome.
func failOutcome(t *poolTask) Outcome {
	err := t.lastErr
	if err == nil {
		err = errors.New("no live worker")
	}
	return Outcome{Task: t.t,
		Err:    fmt.Errorf("failed after %d attempt(s): %w", t.attempts, err),
		Worker: -1, Attempts: t.attempts}
}

// loop is one worker's lifetime: take, run, deliver, until dismissal
// or death.
func (p *Pool) loop(pw *poolWorker) {
	defer p.wg.Done()
	for {
		t := p.take(pw)
		if t == nil {
			break
		}
		start := time.Now()
		v, err := pw.w.Run(t.t)
		el := time.Since(start)
		var jerr *JobError
		switch {
		case err == nil:
			p.mu.Lock()
			pw.done++
			pw.busy += el
			pw.streak = 0
			pw.state = "idle"
			p.mu.Unlock()
			t.done(Outcome{Task: t.t, Value: v, Worker: pw.id, Attempts: t.attempts})
		case errors.As(err, &jerr):
			p.mu.Lock()
			pw.failed++
			pw.busy += el
			pw.streak++
			pw.state = "backoff"
			d := p.o.backoff(pw.streak)
			failed := p.requeueLocked(t, pw.id, err)
			p.mu.Unlock()
			p.o.log("pool: worker %d: job %s failed (%v), backing off %s", pw.id, t.t.Key, err, d)
			if failed != nil {
				failed.done(failOutcome(failed))
			}
			p.cooldown(pw, d)
		default:
			p.mu.Lock()
			delete(p.workers, pw.id)
			p.lost++
			failed := p.requeueLocked(t, pw.id, err)
			p.mu.Unlock()
			pw.w.Close()
			p.o.log("pool: worker %d lost (%v), requeueing %s", pw.id, err, t.t.Key)
			if failed != nil {
				failed.done(failOutcome(failed))
			}
			if p.o.OnWorkerLost != nil {
				p.o.OnWorkerLost(pw.id, err)
			}
			// After OnWorkerLost, so a replacement it added counts.
			p.settleStranded()
			return
		}
	}
	pw.w.Close()
	p.mu.Lock()
	delete(p.workers, pw.id)
	p.mu.Unlock()
	p.o.log("pool: worker %d left", pw.id)
	p.settleStranded()
}
