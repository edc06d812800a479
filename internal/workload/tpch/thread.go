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
}

// NewWorkload prepares query q for nThreads workers. scale (0 < scale <= 1)
// shrinks the scope count and run count for quick runs; 1.0 is paper scale.
func NewWorkload(q QuerySpec, nThreads int, scale float64, verify bool) *Workload {
	if scale <= 0 || scale > 1 {
		panic("tpch: scale must be in (0,1]")
	}
	scopes := max(int(float64(q.Scopes)*scale), nThreads)
	runs := max(int(float64(q.Runs)*scale+0.5), 1)
	return &Workload{
		Q: q, Layout: pimdb.DefaultLayout(), Scopes: scopes,
		Runs: runs, Threads: nThreads, Verify: verify,
	}
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
		th := &thread{w: w, sys: sys, id: t, bar: bar}
		for s := 0; s < w.Scopes; s++ {
			if s%w.Threads == t {
				th.owned = append(th.owned, mem.ScopeID(s))
			}
		}
		// A run emits at most a flush, the query's ops, a fence and a
		// burst per owned scope, then the barrier; size the buffer once.
		th.pending = make([]cpu.Instr, 0, len(th.owned)*(w.Q.OpsPerScope()+3)+1)
		if sys.Cfg.Model == core.SWFlush {
			th.touched = make(map[mem.ScopeID][]mem.LineAddr)
			th.touchedSet = make(map[mem.LineAddr]bool)
		}
		out[t] = th
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

type thread struct {
	w     *Workload
	sys   *system.System
	id    int
	owned []mem.ScopeID
	bar   *cpu.Barrier

	run     int
	pending []cpu.Instr
	pos     int

	touched    map[mem.ScopeID][]mem.LineAddr
	touchedSet map[mem.LineAddr]bool
}

// Next implements cpu.Thread.
func (th *thread) Next() (cpu.Instr, bool) {
	for th.pos >= len(th.pending) {
		if th.run >= th.w.Runs {
			return cpu.Instr{}, false
		}
		th.pending = th.pending[:0]
		th.pos = 0
		th.emitRun()
		th.run++
	}
	in := th.pending[th.pos]
	th.pos++
	return in, true
}

func (th *thread) emit(in cpu.Instr) { th.pending = append(th.pending, in) }

func (th *thread) touch(scope mem.ScopeID, line mem.LineAddr) {
	if th.touched == nil || th.touchedSet[line] {
		return
	}
	th.touchedSet[line] = true
	th.touched[scope] = append(th.touched[scope], line)
}

func (th *thread) emitRun() {
	w := th.w
	model := th.sys.Cfg.Model
	functional := th.sys.Cfg.Functional

	// SW-Flush software coherence before re-running the PIM section.
	if th.touched != nil {
		for _, s := range th.owned {
			if lines := th.touched[s]; len(lines) > 0 {
				th.emit(cpu.Instr{Kind: cpu.InstrFlush, Lines: lines})
				for _, l := range lines {
					delete(th.touchedSet, l)
				}
				th.touched[s] = nil
			}
		}
	}

	// PIM section: the query's op sequence, duplicated per scope.
	var shared []*mem.PIMProgram
	if !functional {
		shared = w.Q.Compile(w.Layout, 0, false)
	}
	for _, s := range th.owned {
		progs := shared
		if functional {
			progs = w.Q.Compile(w.Layout, th.sys.Scopes.ScopeBase(s), true)
		}
		for _, p := range progs {
			th.emit(cpu.Instr{Kind: cpu.InstrPIMOp, Scope: s, Prog: p, Label: p.Name})
		}
	}

	// Read phase: "only the PIM computation result is read, resulting in
	// a regular read pattern" (§VI-B). Filter sections read the match
	// bit-vectors; full-query sections read only the aggregates.
	for _, s := range th.owned {
		scope := s
		base := th.sys.Scopes.ScopeBase(scope)
		if model.NeedsScopeFence() {
			th.emit(cpu.Instr{Kind: cpu.InstrScopeFence, Scope: scope})
		}
		var burst cpu.Instr
		if w.Q.Full {
			agg := w.Layout.AggLine(base)
			burst = cpu.Instr{Kind: cpu.InstrLoadBurst,
				Burst: []cpu.BurstRange{{Start: agg.Addr(), Bytes: mem.LineSize}}}
			th.touch(scope, agg)
		} else {
			start, bytes := w.Layout.ResultRegion(base)
			burst = cpu.Instr{Kind: cpu.InstrLoadBurst,
				Burst: []cpu.BurstRange{{Start: start, Bytes: bytes}}}
			if w.Verify {
				burst.OnData = th.resultVerifier(scope, start)
			}
			if th.touched != nil {
				for l := mem.LineOf(start); l < mem.LineOf(start+mem.Addr(bytes)); l += mem.LineSize {
					th.touch(scope, l)
				}
			}
		}
		th.emit(burst)
	}
	th.emit(cpu.Instr{Kind: cpu.InstrBarrier, Barrier: th.bar})
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
