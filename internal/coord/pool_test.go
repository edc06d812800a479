package coord

import (
	"errors"
	"fmt"
	"math/rand"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"bulkpim/internal/system"
)

// tally counts executions per fingerprint across a fleet of fake
// workers.
type tally struct {
	mu    sync.Mutex
	count map[string]int
}

func newTally() *tally { return &tally{count: map[string]int{}} }

func (c *tally) add(fp string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count[fp]++
}

// fakeWorker runs tasks in memory with seeded random delays. dieAfter
// >= 0 makes Run return a worker-lost error (without executing) on the
// (dieAfter+1)th call; jobErrs lists fingerprints it reports as failed
// jobs.
type fakeWorker struct {
	id       int
	rng      *rand.Rand
	rngMu    sync.Mutex
	tally    *tally
	dieAfter int
	runs     int
	jobErrs  map[string]bool
	closed   bool
}

func (w *fakeWorker) Run(t Task) (system.Result, error) {
	w.rngMu.Lock()
	d := time.Duration(w.rng.Intn(200)) * time.Microsecond
	w.rngMu.Unlock()
	time.Sleep(d)
	if w.dieAfter >= 0 && w.runs >= w.dieAfter {
		return system.Result{}, fmt.Errorf("worker %d: simulated crash", w.id)
	}
	w.runs++
	if w.jobErrs[t.Fingerprint] {
		return system.Result{}, &JobError{Msg: "simulated job failure"}
	}
	w.tally.add(t.Fingerprint)
	return system.Result{Cycles: 1}, nil
}

func (w *fakeWorker) Close() error {
	w.closed = true
	return nil
}

func mkTasks(n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Key: fmt.Sprintf("key-%d", i), Fingerprint: fmt.Sprintf("fp-%d", i)}
	}
	return tasks
}

// submitAll pushes every task into the pool and returns a channel that
// yields the settled outcomes.
func submitAll(t *testing.T, p *Pool, tasks []Task) chan Outcome {
	t.Helper()
	out := make(chan Outcome, len(tasks))
	for _, task := range tasks {
		if err := p.Submit(task, func(o Outcome) { out <- o }); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// drain collects n outcomes or fails on timeout.
func drain(t *testing.T, out chan Outcome, n int) []Outcome {
	t.Helper()
	got := make([]Outcome, 0, n)
	deadline := time.After(30 * time.Second)
	for len(got) < n {
		select {
		case o := <-out:
			got = append(got, o)
		case <-deadline:
			t.Fatalf("only %d/%d outcomes settled", len(got), n)
		}
	}
	return got
}

// TestPoolExactlyOnce: a healthy elastic fleet settles every submitted
// task successfully with each fingerprint executed exactly once.
func TestPoolExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		tl := newTally()
		p := NewPool(PoolOptions{Launch: func(id int) (Worker, error) {
			return &fakeWorker{id: id, rng: rand.New(rand.NewSource(int64(id) + 1)),
				tally: tl, dieAfter: -1}, nil
		}})
		for i := 0; i < workers; i++ {
			if _, err := p.AddWorker(); err != nil {
				t.Fatal(err)
			}
		}
		tasks := mkTasks(50)
		outcomes := drain(t, submitAll(t, p, tasks), 50)
		for _, o := range outcomes {
			if o.Err != nil {
				t.Fatalf("w=%d: %s failed: %v", workers, o.Task.Key, o.Err)
			}
		}
		for _, task := range tasks {
			if got := tl.count[task.Fingerprint]; got != 1 {
				t.Fatalf("w=%d: fingerprint %s executed %d times, want 1", workers, task.Fingerprint, got)
			}
		}
		s := p.Stats()
		if len(s.Workers) != workers || s.Lost != 0 || s.Queued != 0 {
			t.Fatalf("stats %+v", s)
		}
		var done int
		for _, ws := range s.Workers {
			done += ws.Done
			if ws.Done > 0 && ws.BusyNs <= 0 {
				t.Fatalf("worker %d busy for 0ns over %d tasks", ws.ID, ws.Done)
			}
		}
		if done != 50 {
			t.Fatalf("w=%d: per-worker done sums to %d, want 50", workers, done)
		}
		p.Close()
	}
}

// TestPoolWorkerLostRetriesAndReplaces: a worker dying mid-task loses
// only that dispatch — the task retries on a survivor — and
// OnWorkerLost lets the owner join a replacement into the live pool.
func TestPoolWorkerLostRetriesAndReplaces(t *testing.T) {
	tl := newTally()
	var p *Pool
	lost := make(chan int, 1)
	p = NewPool(PoolOptions{
		Launch: func(id int) (Worker, error) {
			die := -1
			if id == 1 {
				die = 2 // crash when the 3rd task arrives, losing it in flight
			}
			return &fakeWorker{id: id, rng: rand.New(rand.NewSource(int64(id) + 9)),
				tally: tl, dieAfter: die}, nil
		},
		OnWorkerLost: func(id int, err error) {
			if _, aerr := p.AddWorker(); aerr != nil {
				t.Errorf("replacing worker %d: %v", id, aerr)
			}
			lost <- id
		},
	})
	for i := 0; i < 2; i++ {
		if _, err := p.AddWorker(); err != nil {
			t.Fatal(err)
		}
	}
	tasks := mkTasks(40)
	outcomes := drain(t, submitAll(t, p, tasks), 40)
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("%s failed: %v", o.Task.Key, o.Err)
		}
	}
	select {
	case id := <-lost:
		if id != 1 {
			t.Fatalf("lost worker %d, want 1", id)
		}
	default:
		t.Fatal("OnWorkerLost never fired")
	}
	for _, task := range tasks {
		if got := tl.count[task.Fingerprint]; got != 1 {
			t.Fatalf("fingerprint %s executed %d times, want 1", task.Fingerprint, got)
		}
	}
	s := p.Stats()
	if s.Lost != 1 || s.Retried < 1 {
		t.Fatalf("stats %+v", s)
	}
	// Replacement ids never reuse a dead worker's: 0 and the fresh 2.
	if len(s.Workers) != 2 || s.Workers[0].ID != 0 || s.Workers[1].ID != 2 {
		t.Fatalf("fleet after replacement: %+v", s.Workers)
	}
	p.Close()
}

// TestPoolRetriesJobErrorElsewhere: a job-level failure on one worker
// is retried on another (the failing worker excluded), and the batch
// completes without losing the worker.
func TestPoolRetriesJobErrorElsewhere(t *testing.T) {
	tl := newTally()
	p := NewPool(PoolOptions{
		BaseBackoff: time.Millisecond,
		Launch: func(id int) (Worker, error) {
			w := &fakeWorker{id: id, rng: rand.New(rand.NewSource(int64(id) + 7)),
				tally: tl, dieAfter: -1}
			if id == 0 {
				w.jobErrs = map[string]bool{"fp-13": true}
			}
			return w, nil
		},
	})
	for i := 0; i < 2; i++ {
		if _, err := p.AddWorker(); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range drain(t, submitAll(t, p, mkTasks(20)), 20) {
		if o.Err != nil {
			t.Fatalf("%s failed: %v", o.Task.Key, o.Err)
		}
		if o.Task.Fingerprint == "fp-13" && o.Worker != 1 {
			t.Fatalf("fp-13 settled on worker %d, want the non-failing worker 1", o.Worker)
		}
	}
	if got := tl.count["fp-13"]; got != 1 {
		t.Fatalf("fp-13 executed %d times, want 1 (on the non-failing worker)", got)
	}
	if s := p.Stats(); s.Lost != 0 || len(s.Workers) != 2 {
		t.Fatalf("stats %+v", s)
	}
	p.Close()
}

// TestPoolRetryBudget: a task erroring on every dispatch settles as
// permanently failed once MaxAttempts is spent, and the budget is
// visible in the outcome's Attempts.
func TestPoolRetryBudget(t *testing.T) {
	tl := newTally()
	p := NewPool(PoolOptions{
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		Launch: func(id int) (Worker, error) {
			return &fakeWorker{id: id, rng: rand.New(rand.NewSource(int64(id))), tally: tl,
				dieAfter: -1, jobErrs: map[string]bool{"fp-0": true}}, nil
		},
	})
	for i := 0; i < 4; i++ { // more workers than budget
		if _, err := p.AddWorker(); err != nil {
			t.Fatal(err)
		}
	}
	o := drain(t, submitAll(t, p, mkTasks(1)), 1)[0]
	if o.Err == nil || !strings.Contains(o.Err.Error(), "failed after 3 attempt(s)") {
		t.Fatalf("outcome %+v", o)
	}
	if o.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", o.Attempts)
	}
	if tl.count["fp-0"] != 0 {
		t.Fatal("failing job recorded an execution")
	}
	p.Close()
}

// TestPoolFleetExclusion: with fewer workers than the budget, a task
// every live worker has failed settles without waiting for a join.
func TestPoolFleetExclusion(t *testing.T) {
	tl := newTally()
	p := NewPool(PoolOptions{
		MaxAttempts: 10,
		BaseBackoff: time.Millisecond,
		Launch: func(id int) (Worker, error) {
			return &fakeWorker{id: id, rng: rand.New(rand.NewSource(int64(id))), tally: tl,
				dieAfter: -1, jobErrs: map[string]bool{"fp-0": true}}, nil
		},
	})
	for i := 0; i < 2; i++ {
		if _, err := p.AddWorker(); err != nil {
			t.Fatal(err)
		}
	}
	o := drain(t, submitAll(t, p, mkTasks(1)), 1)[0]
	if o.Err == nil || o.Attempts != 2 {
		t.Fatalf("outcome %+v", o)
	}
	p.Close()
}

// TestPoolWaitsForFirstWorker: tasks submitted to an empty pool wait —
// the elastic case — and run once a worker joins.
func TestPoolWaitsForFirstWorker(t *testing.T) {
	tl := newTally()
	p := NewPool(PoolOptions{Launch: func(id int) (Worker, error) {
		return &fakeWorker{id: id, rng: rand.New(rand.NewSource(5)), tally: tl, dieAfter: -1}, nil
	}})
	out := submitAll(t, p, mkTasks(5))
	select {
	case o := <-out:
		t.Fatalf("settled with no workers: %+v", o)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := p.AddWorker(); err != nil {
		t.Fatal(err)
	}
	for _, o := range drain(t, out, 5) {
		if o.Err != nil {
			t.Fatalf("%s failed: %v", o.Task.Key, o.Err)
		}
	}
	p.Close()
}

// closeSignal wraps a Worker to close a channel when the pool
// dismisses it.
type closeSignal struct {
	Worker
	closed chan struct{}
}

func (w *closeSignal) Close() error {
	defer close(w.closed)
	return w.Worker.Close()
}

// TestPoolRemoveWorker: a dismissed worker leaves cleanly (Close
// called, fleet shrinks) while the remainder keeps serving.
func TestPoolRemoveWorker(t *testing.T) {
	tl := newTally()
	var mu sync.Mutex
	workers := map[int]*closeSignal{}
	p := NewPool(PoolOptions{Launch: func(id int) (Worker, error) {
		w := &closeSignal{closed: make(chan struct{}),
			Worker: &fakeWorker{id: id, rng: rand.New(rand.NewSource(int64(id))), tally: tl, dieAfter: -1}}
		mu.Lock()
		workers[id] = w
		mu.Unlock()
		return w, nil
	}})
	id0, err := p.AddWorker()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddWorker(); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveWorker(id0); err != nil {
		t.Fatal(err)
	}
	// The leaving worker's loop exits asynchronously; wait for it.
	mu.Lock()
	closed := workers[id0].closed
	mu.Unlock()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("removed worker never closed")
	}
	for _, o := range drain(t, submitAll(t, p, mkTasks(10)), 10) {
		if o.Err != nil {
			t.Fatalf("%s failed after removal: %v", o.Task.Key, o.Err)
		}
	}
	if err := p.RemoveWorker(99); err == nil {
		t.Fatal("removing an unknown worker must error")
	}
	p.Close()
}

// TestPoolCloseFailsQueued: Close settles still-queued tasks as failed
// and rejects new submissions.
func TestPoolCloseFailsQueued(t *testing.T) {
	p := NewPool(PoolOptions{Launch: func(id int) (Worker, error) {
		return nil, errors.New("unused")
	}})
	out := submitAll(t, p, mkTasks(3)) // no workers: stays queued
	p.Close()
	for _, o := range drain(t, out, 3) {
		if o.Err == nil || !strings.Contains(o.Err.Error(), "pool closed") {
			t.Fatalf("outcome %+v", o)
		}
	}
	if err := p.Submit(Task{Key: "k", Fingerprint: "f"}, func(Outcome) {}); err == nil {
		t.Fatal("Submit after Close must error")
	}
	if _, err := p.AddWorker(); err == nil {
		t.Fatal("AddWorker after Close must error")
	}
}

// TestPoolBackoffSchedule: the per-worker backoff grows exponentially
// with the failure streak and is capped at MaxBackoff.
func TestPoolBackoffSchedule(t *testing.T) {
	o := PoolOptions{BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, time.Second, time.Second}
	for i, w := range want {
		if got := o.backoff(i + 1); got != w {
			t.Fatalf("backoff(streak=%d) = %v, want %v", i+1, got, w)
		}
	}
	if d := (PoolOptions{}).backoff(1); d != 100*time.Millisecond {
		t.Fatalf("default base backoff = %v", d)
	}
}

// pollWorkerState waits for worker id to report state want.
func pollWorkerState(t *testing.T, p *Pool, id int, want string) WorkerStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, ws := range p.Stats().Workers {
			if ws.ID == id && ws.State == want {
				return ws
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %d never reached state %q (stats %+v)", id, want, p.Stats().Workers)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolBackoffAfterJobError: a job error puts the worker into a
// visible backoff cooldown with its failure streak recorded, and the
// next success resets the streak.
func TestPoolBackoffAfterJobError(t *testing.T) {
	tl := newTally()
	p := NewPool(PoolOptions{
		BaseBackoff: 150 * time.Millisecond,
		MaxBackoff:  150 * time.Millisecond,
		Launch: func(id int) (Worker, error) {
			return &fakeWorker{id: id, rng: rand.New(rand.NewSource(3)), tally: tl,
				dieAfter: -1, jobErrs: map[string]bool{"fp-0": true}}, nil
		},
	})
	if _, err := p.AddWorker(); err != nil {
		t.Fatal(err)
	}
	// The lone worker fails fp-0: with every live worker excluded the
	// task settles failed, and the worker cools off.
	o := drain(t, submitAll(t, p, []Task{{Key: "key-0", Fingerprint: "fp-0"}}), 1)[0]
	if o.Err == nil || o.Attempts != 1 {
		t.Fatalf("outcome %+v", o)
	}
	ws := pollWorkerState(t, p, 0, "backoff")
	if ws.Failed != 1 || ws.FailStreak != 1 {
		t.Fatalf("cooling worker stats %+v", ws)
	}
	// After the cooldown it serves again; a success resets the streak.
	for _, o := range drain(t, submitAll(t, p, []Task{{Key: "key-1", Fingerprint: "fp-1"}}), 1) {
		if o.Err != nil {
			t.Fatalf("post-cooldown task failed: %v", o.Err)
		}
	}
	ws = pollWorkerState(t, p, 0, "idle")
	if ws.FailStreak != 0 || ws.Done != 1 {
		t.Fatalf("recovered worker stats %+v", ws)
	}
	p.Close()
}

// TestPoolCloseInterruptsBackoff: a worker cooling off after a job
// error must not hold its own dismissal, or Close, for the rest of the
// backoff.
func TestPoolCloseInterruptsBackoff(t *testing.T) {
	const backoff = 3 * time.Second
	tl := newTally()
	p := NewPool(PoolOptions{
		BaseBackoff: backoff,
		MaxBackoff:  backoff,
		Launch: func(id int) (Worker, error) {
			return &fakeWorker{id: id, rng: rand.New(rand.NewSource(int64(id))), tally: tl,
				dieAfter: -1, jobErrs: map[string]bool{"fp-0": true, "fp-1": true}}, nil
		},
	})
	// A lone worker failing a task leaves it in a 3s backoff; the task
	// settles failed with every live worker excluded.
	cool := func(task Task) int {
		t.Helper()
		id, err := p.AddWorker()
		if err != nil {
			t.Fatal(err)
		}
		if o := drain(t, submitAll(t, p, []Task{task}), 1)[0]; o.Err == nil {
			t.Fatalf("outcome %+v", o)
		}
		pollWorkerState(t, p, id, "backoff")
		return id
	}

	id := cool(Task{Key: "key-0", Fingerprint: "fp-0"})
	start := time.Now()
	if err := p.RemoveWorker(id); err != nil {
		t.Fatal(err)
	}
	for len(p.Stats().Workers) != 0 {
		if time.Since(start) > backoff/3 {
			t.Fatalf("removed worker still sleeping out its backoff after %v", time.Since(start))
		}
		time.Sleep(time.Millisecond)
	}

	cool(Task{Key: "key-1", Fingerprint: "fp-1"})
	start = time.Now()
	p.Close()
	if el := time.Since(start); el > backoff/3 {
		t.Fatalf("Close took %v with a worker in a %v backoff", el, backoff)
	}
}

// funcWorker is a Worker whose Run is the function itself.
type funcWorker func(Task) (system.Result, error)

func (f funcWorker) Run(t Task) (system.Result, error) { return f(t) }
func (funcWorker) Close() error                        { return nil }

// TestPoolWorkerLossFailsStrandedTask: a queued task the survivors are
// all excluded from settles as failed once the worker it was waiting
// for dies and no replacement joins, instead of staying queued forever.
func TestPoolWorkerLossFailsStrandedTask(t *testing.T) {
	running, crash := make(chan struct{}), make(chan struct{})
	var p *Pool
	p = NewPool(PoolOptions{
		MaxAttempts: 10,
		BaseBackoff: time.Millisecond,
		Launch: func(id int) (Worker, error) {
			switch id {
			case 0: // holds its first task until told to crash
				return funcWorker(func(Task) (system.Result, error) {
					close(running)
					<-crash
					return system.Result{}, errors.New("simulated crash")
				}), nil
			case 1:
				return funcWorker(func(t Task) (system.Result, error) {
					if t.Fingerprint == "fp-bad" {
						return system.Result{}, &JobError{Msg: "simulated job failure"}
					}
					return system.Result{Cycles: 1}, nil
				}), nil
			}
			return nil, errors.New("host unreachable")
		},
		OnWorkerLost: func(int, error) {
			if _, err := p.AddWorker(); err == nil {
				t.Error("replacement launched")
			}
		},
	})
	defer p.Close()
	if _, err := p.AddWorker(); err != nil {
		t.Fatal(err)
	}
	out := submitAll(t, p, []Task{{Key: "key-slow", Fingerprint: "fp-slow"}})
	<-running
	if _, err := p.AddWorker(); err != nil {
		t.Fatal(err)
	}
	bad := submitAll(t, p, []Task{{Key: "key-bad", Fingerprint: "fp-bad"}})
	// fp-bad is requeued for worker 0, the only worker not excluded.
	for p.Stats().Workers[1].Failed == 0 {
		time.Sleep(time.Millisecond)
	}
	close(crash)
	if o := drain(t, bad, 1)[0]; o.Err == nil || o.Attempts != 1 {
		t.Fatalf("stranded task outcome %+v", o)
	}
	if o := drain(t, out, 1)[0]; o.Err != nil || o.Worker != 1 || o.Attempts != 2 {
		t.Fatalf("lost worker's task outcome %+v", o)
	}
}

// TestPoolLaunchFailure: AddWorker surfaces launch errors without
// registering anything, naming the worker exactly once — also for a
// subprocess that exits before its hello.
func TestPoolLaunchFailure(t *testing.T) {
	p := NewPool(PoolOptions{Launch: func(id int) (Worker, error) {
		return nil, fmt.Errorf("ssh: connection refused")
	}})
	if _, err := p.AddWorker(); err == nil || err.Error() != "worker 0: launch: ssh: connection refused" {
		t.Fatalf("err = %v", err)
	}
	if n := len(p.Stats().Workers); n != 0 {
		t.Fatalf("%d workers registered after failed launch", n)
	}
	p.Close()

	falseBin, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false(1) to launch")
	}
	p = NewPool(PoolOptions{Launch: func(id int) (Worker, error) {
		return StartProc(id, []string{falseBin}, nil)
	}})
	_, err = p.AddWorker()
	if err == nil || err.Error() != "worker 0: launch: no hello (EOF)" {
		t.Fatalf("subprocess launch err = %v", err)
	}
	p.Close()
}
