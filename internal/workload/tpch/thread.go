package tpch

import (
	"bulkpim/internal/core"
	"bulkpim/internal/cpu"
	"bulkpim/internal/mem"
	"bulkpim/internal/pimdb"
	"bulkpim/internal/system"
)

// Workload is one query prepared for execution.
type Workload struct {
	Q       QuerySpec
	Layout  pimdb.Layout
	Scopes  int // possibly scaled down from Table IV
	Runs    int
	Threads int
	Verify  bool

	// progs is the query's op sequence, compiled once and issued to every
	// scope of every run.
	progs []*mem.PIMProgram
}

// NewWorkload prepares query q for nThreads workers. scale (0 < scale <= 1)
// shrinks the scope count and run count for quick runs; 1.0 is paper scale.
func NewWorkload(q QuerySpec, nThreads int, scale float64, verify bool) *Workload {
	if scale <= 0 || scale > 1 {
		panic("tpch: scale must be in (0,1]")
	}
	scopes := max(int(float64(q.Scopes)*scale), nThreads)
	runs := max(int(float64(q.Runs)*scale+0.5), 1)
	w := &Workload{
		Q: q, Layout: pimdb.DefaultLayout(), Scopes: scopes,
		Runs: runs, Threads: nThreads, Verify: verify,
	}
	w.progs = q.Compile(w.Layout)
	return w
}

// SystemConfig sizes the system for the workload.
func (w *Workload) SystemConfig(base system.Config) system.Config {
	base.ScopeCount = w.Scopes
	base.Functional = w.Verify
	return base
}

// InitBacking writes the synthetic relation (functional runs only; writes
// every record of every scope).
func (w *Workload) InitBacking(bk *mem.Backing, scopes *mem.ScopeMap) {
	for s := 0; s < w.Scopes; s++ {
		InitScope(bk, w.Layout, scopes.ScopeBase(mem.ScopeID(s)), mem.ScopeID(s))
	}
}

// BuildThreads returns the worker threads for one run on sys.
func (w *Workload) BuildThreads(sys *system.System) []cpu.Thread {
	bar := cpu.NewBarrier(w.Threads)
	out := make([]cpu.Thread, w.Threads)
	for t := 0; t < w.Threads; t++ {
		out[t] = &thread{w: w, sys: sys, bar: bar, id: t,
			owned: (w.Scopes + w.Threads - 1 - t) / w.Threads}
	}
	return out
}

// Run executes the query workload on a system built from cfg, through
// system.RunOnce.
func Run(w *Workload, cfg system.Config) (system.Result, error) {
	return system.RunOnce(w.SystemConfig(cfg), func(s *system.System) []cpu.Thread {
		if s.Cfg.Functional {
			w.InitBacking(s.Backing, s.Scopes)
		}
		return w.BuildThreads(s)
	})
}

// thread is one worker. Every run has the same shape, so the thread
// computes each instruction from its position (run, step) instead of
// buffering a run. A run is, in order:
//   - SW-Flush only, in every run after the first: a flush per owned
//     scope of the lines the previous run read there;
//   - the PIM section: the query's op sequence, per owned scope;
//   - the read phase, per owned scope: a scope-fence where the model
//     needs one, then a burst over the scope's result;
//   - the barrier.
type thread struct {
	w   *Workload
	sys *system.System
	bar *cpu.Barrier
	// The thread owns scopes id, id+Threads, id+2*Threads, ...: owned
	// of them.
	id, owned int

	run, step int

	// burst and lines carry the payload of the instruction last
	// returned; the core is done with it before it calls Next again.
	burst [1]cpu.BurstRange
	lines []mem.LineAddr
}

// Next implements cpu.Thread.
func (th *thread) Next() (cpu.Instr, bool) {
	for th.run < th.w.Runs {
		if in, ok := th.instr(th.step); ok {
			th.step++
			return in, true
		}
		th.run, th.step = th.run+1, 0
	}
	return cpu.Instr{}, false
}

// scope returns the thread's i-th owned scope.
func (th *thread) scope(i int) mem.ScopeID { return mem.ScopeID(th.id + i*th.w.Threads) }

// instr returns instruction step of the current run, or false past the
// run's end.
func (th *thread) instr(step int) (cpu.Instr, bool) {
	w, n, model := th.w, th.owned, th.sys.Cfg.Model
	if model == core.SWFlush && th.run > 0 {
		if step < n {
			return th.flushInstr(th.scope(step)), true
		}
		step -= n
	}
	ops := w.Q.OpsPerScope()
	if step < n*ops {
		p := w.progs[step%ops]
		return cpu.Instr{Kind: cpu.InstrPIMOp, Scope: th.scope(step / ops), Prog: p, Label: p.Name}, true
	}
	step -= n * ops
	per := 1
	if model.NeedsScopeFence() {
		per = 2
	}
	switch {
	case step < n*per && per == 2 && step%per == 0:
		return cpu.Instr{Kind: cpu.InstrScopeFence, Scope: th.scope(step / per)}, true
	case step < n*per:
		return th.readInstr(th.scope(step / per)), true
	case step == n*per:
		return cpu.Instr{Kind: cpu.InstrBarrier, Barrier: th.bar}, true
	}
	return cpu.Instr{}, false
}

// readRegion is what the read phase reads in scope: "only the PIM
// computation result is read, resulting in a regular read pattern"
// (§VI-B). Filter sections read the match bit-vectors; full-query
// sections read only the aggregate line.
func (th *thread) readRegion(scope mem.ScopeID) (mem.Addr, int) {
	base := th.sys.Scopes.ScopeBase(scope)
	if th.w.Q.Full {
		return th.w.Layout.AggLine(base).Addr(), mem.LineSize
	}
	return th.w.Layout.ResultRegion(base)
}

// readInstr is the read phase's burst for scope.
func (th *thread) readInstr(scope mem.ScopeID) cpu.Instr {
	start, bytes := th.readRegion(scope)
	th.burst[0] = cpu.BurstRange{Start: start, Bytes: bytes}
	in := cpu.Instr{Kind: cpu.InstrLoadBurst, Burst: th.burst[:]}
	if th.w.Verify && !th.w.Q.Full {
		in.OnData = th.resultVerifier(scope, start)
	}
	return in
}

// flushInstr is SW-Flush's software coherence for scope: it flushes the
// lines of its read region, which the previous run cached.
func (th *thread) flushInstr(scope mem.ScopeID) cpu.Instr {
	start, bytes := th.readRegion(scope)
	th.lines = th.lines[:0]
	for l := mem.LineOf(start); l < mem.LineOf(start+mem.Addr(bytes)); l += mem.LineSize {
		th.lines = append(th.lines, l)
	}
	return cpu.Instr{Kind: cpu.InstrFlush, Lines: th.lines}
}

func (th *thread) resultVerifier(scope mem.ScopeID, resStart mem.Addr) func(mem.LineAddr, []byte) {
	w := th.w
	return func(line mem.LineAddr, data []byte) {
		array := int(line.Addr()-resStart) / mem.LineSize
		if array < 0 || array >= w.Layout.DataArrays {
			return
		}
		for r := 0; r < w.Layout.RecordsPerArray(); r++ {
			pos := array*w.Layout.RecordsPerArray() + r
			want := w.Q.Eval(scope, pos)
			if pimdb.ResultBit(data, r) != want {
				th.sys.Violations.Inc()
				return // one violation per line is enough signal
			}
		}
	}
}
