package tpch

import (
	"runtime"
	"slices"
	"testing"

	"bulkpim/internal/core"
	"bulkpim/internal/cpu"
	"bulkpim/internal/mem"
	"bulkpim/internal/system"
)

func drain(t *testing.T, th cpu.Thread, limit int) []cpu.Instr {
	t.Helper()
	var out []cpu.Instr
	for i := 0; i < limit; i++ {
		in, ok := th.Next()
		if !ok {
			return out
		}
		out = append(out, in)
	}
	t.Fatalf("thread did not terminate within %d instructions", limit)
	return nil
}

func TestThreadStructureFilterQuery(t *testing.T) {
	q, _ := QueryByName("q12")
	w := NewWorkload(q, 2, 1.0, false)
	w.Scopes = 8 // shrink for the test
	w.Runs = 3
	cfg := w.SystemConfig(system.Default())
	cfg.Model = core.Store
	s := system.New(cfg)
	threads := w.BuildThreads(s)
	instrs := drain(t, threads[0], 100000)
	var pims, bursts, barriers int
	for _, in := range instrs {
		switch in.Kind {
		case cpu.InstrPIMOp:
			pims++
		case cpu.InstrLoadBurst:
			bursts++
		case cpu.InstrBarrier:
			barriers++
		}
	}
	// Thread 0 owns 4 of 8 scopes; q12 has 12 ops/scope; 3 runs.
	if pims != 3*4*q.OpsPerScope() {
		t.Errorf("pim instrs = %d, want %d", pims, 3*4*q.OpsPerScope())
	}
	if bursts != 3*4 {
		t.Errorf("bursts = %d, want %d (one result region per scope per run)", bursts, 3*4)
	}
	if barriers != 3 {
		t.Errorf("barriers = %d, want 3", barriers)
	}
}

func TestFullQueryReadsOnlyAggregates(t *testing.T) {
	q, _ := QueryByName("q6")
	w := NewWorkload(q, 1, 1.0, false)
	w.Scopes = 2
	w.Runs = 1
	cfg := w.SystemConfig(system.Default())
	cfg.Model = core.Atomic
	s := system.New(cfg)
	instrs := drain(t, w.BuildThreads(s)[0], 100000)
	for _, in := range instrs {
		if in.Kind != cpu.InstrLoadBurst {
			continue
		}
		total := 0
		for _, r := range in.Burst {
			total += r.Bytes
		}
		if total > 64 {
			t.Fatalf("full-query burst reads %d bytes; must read only the aggregate line", total)
		}
	}
}

func TestScaledWorkloadBounds(t *testing.T) {
	q, _ := QueryByName("q3") // 2336 scopes
	w := NewWorkload(q, 4, 0.01, false)
	if w.Scopes < 4 || w.Scopes > 24 {
		t.Fatalf("scaled scopes = %d", w.Scopes)
	}
	if w.Runs < 1 {
		t.Fatal("runs must be at least 1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scale > 1 must panic")
		}
	}()
	NewWorkload(q, 4, 1.5, false)
}

// refThread is the buffered thread the cursor replaced, kept as the
// specification of a run's instruction stream: it builds each run into a
// buffer and tracks SW-Flush's cached lines in maps.
type refThread struct {
	w     *Workload
	sys   *system.System
	owned []mem.ScopeID
	bar   *cpu.Barrier

	run     int
	pending []cpu.Instr
	pos     int

	touched    map[mem.ScopeID][]mem.LineAddr
	touchedSet map[mem.LineAddr]bool
}

func newRefThreads(w *Workload, sys *system.System) []*refThread {
	bar := cpu.NewBarrier(w.Threads)
	out := make([]*refThread, w.Threads)
	for t := range out {
		th := &refThread{w: w, sys: sys, bar: bar}
		for s := 0; s < w.Scopes; s++ {
			if s%w.Threads == t {
				th.owned = append(th.owned, mem.ScopeID(s))
			}
		}
		if sys.Cfg.Model == core.SWFlush {
			th.touched = make(map[mem.ScopeID][]mem.LineAddr)
			th.touchedSet = make(map[mem.LineAddr]bool)
		}
		out[t] = th
	}
	return out
}

func (th *refThread) Next() (cpu.Instr, bool) {
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

func (th *refThread) emit(in cpu.Instr) { th.pending = append(th.pending, in) }

func (th *refThread) touch(scope mem.ScopeID, line mem.LineAddr) {
	if th.touched == nil || th.touchedSet[line] {
		return
	}
	th.touchedSet[line] = true
	th.touched[scope] = append(th.touched[scope], line)
}

func (th *refThread) emitRun() {
	w := th.w
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
	progs := w.Q.Compile(w.Layout)
	for _, s := range th.owned {
		for _, p := range progs {
			th.emit(cpu.Instr{Kind: cpu.InstrPIMOp, Scope: s, Prog: p, Label: p.Name})
		}
	}
	for _, scope := range th.owned {
		base := th.sys.Scopes.ScopeBase(scope)
		if th.sys.Cfg.Model.NeedsScopeFence() {
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
				burst.OnData = func(mem.LineAddr, []byte) {}
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

// streamed is one instruction as a thread returned it, with its Burst
// and Lines contents copied at Next, before the thread may reuse them.
type streamed struct {
	in     cpu.Instr
	burst  []cpu.BurstRange
	lines  []mem.LineAddr
	verify bool
}

func stream(t *testing.T, th cpu.Thread) []streamed {
	t.Helper()
	var out []streamed
	for i := 0; ; i++ {
		if i > 1_000_000 {
			t.Fatal("thread did not terminate")
		}
		in, ok := th.Next()
		if !ok {
			return out
		}
		out = append(out, streamed{in: in,
			burst:  append([]cpu.BurstRange(nil), in.Burst...),
			lines:  append([]mem.LineAddr(nil), in.Lines...),
			verify: in.OnData != nil})
	}
}

// sameInstr compares two streamed instructions field by field. Programs
// compare by name and length, since refThread compiles its own; barriers
// by presence, since each set of threads has its own.
func sameInstr(a, b streamed) bool {
	x, y := a.in, b.in
	if x.Kind != y.Kind || x.Scope != y.Scope || x.Label != y.Label || (x.Barrier == nil) != (y.Barrier == nil) ||
		x.Addr != y.Addr || x.Size != y.Size || x.Cycles != y.Cycles || len(x.Data) != 0 || len(y.Data) != 0 ||
		a.verify != b.verify || !slices.Equal(a.burst, b.burst) || !slices.Equal(a.lines, b.lines) {
		return false
	}
	if (x.Prog == nil) != (y.Prog == nil) {
		return false
	}
	return x.Prog == nil || x.Prog.Name == y.Prog.Name && x.Prog.MicroOps == y.Prog.MicroOps &&
		(x.Prog.Apply == nil) == (y.Prog.Apply == nil)
}

// TestCursorMatchesBufferedThread pins the cursor thread's instruction
// stream to refThread's, for every run mode, a full and a filter query,
// with and without payloads.
func TestCursorMatchesBufferedThread(t *testing.T) {
	for _, name := range []string{"q6", "q12"} {
		q, _ := QueryByName(name)
		for _, m := range core.AllVariants() {
			for _, functional := range []bool{false, true} {
				w := NewWorkload(q, 2, 1.0, functional)
				w.Scopes, w.Runs = 6, 3
				cfg := w.SystemConfig(system.Default())
				cfg.Model = m
				sys := system.New(cfg)
				refs := newRefThreads(w, sys)
				var bar *cpu.Barrier
				for i, th := range w.BuildThreads(sys) {
					got, want := stream(t, th), stream(t, refs[i])
					for _, g := range got {
						if bar == nil {
							bar = g.in.Barrier
						}
						if g.in.Barrier != nil && g.in.Barrier != bar {
							t.Fatalf("%s/%v: threads do not share one barrier", name, m)
						}
					}
					if len(got) != len(want) {
						t.Errorf("%s/%v/functional=%v thread %d: %d instructions, want %d",
							name, m, functional, i, len(got), len(want))
						continue
					}
					for j := range got {
						if !sameInstr(got[j], want[j]) {
							t.Errorf("%s/%v/functional=%v thread %d instr %d: got %+v, want %+v",
								name, m, functional, i, j, got[j], want[j])
							break
						}
					}
				}
			}
		}
	}
}

// A verified run issues the programs the workload compiled once, to
// every scope of every run, like a timing-only run: no thread compiles
// its own.
func TestVerifyRunSharesPrograms(t *testing.T) {
	for _, name := range []string{"q6", "q12"} {
		q, _ := QueryByName(name)
		w := NewWorkload(q, 2, 1.0, true)
		w.Scopes, w.Runs = 4, 2
		sys := system.New(w.SystemConfig(system.Default()))
		pims := 0
		for i, th := range w.BuildThreads(sys) {
			for _, s := range stream(t, th) {
				if s.in.Kind != cpu.InstrPIMOp {
					continue
				}
				pims++
				if !slices.Contains(w.progs, s.in.Prog) {
					t.Fatalf("%s thread %d: PIM op %q on scope %d is not one of the workload's programs",
						name, i, s.in.Label, s.in.Scope)
				}
			}
		}
		if want := w.Runs * w.Scopes * len(w.progs); pims != want {
			t.Fatalf("%s: %d PIM ops issued, want %d", name, pims, want)
		}
	}
}

// A TPC-H point on a released machine allocates little: the threads
// emit from a cursor, PIM requests come from the machine's pool, and the
// kernel, the pool and the cache arrays come back from the free lists.
func TestRunAllocBound(t *testing.T) {
	const maxBytes = 256 << 10
	q, _ := QueryByName("q3")
	w := NewWorkload(q, 4, 0.1, false)
	cfg := system.Default()
	cfg.Model = core.SWFlush
	if _, err := Run(w, cfg); err != nil { // leaves a released machine
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Run(w, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > maxBytes {
		t.Fatalf("tpch.Run(q3, SW-Flush, scale 0.1) on a released machine allocated %.0f KB, want <= %.0f KB",
			float64(got)/(1<<10), float64(maxBytes)/(1<<10))
	}
}

// A warm pass over the Fig. 8 grid allocates little: every machine is
// built on the structures the previous one released, the programs are
// compiled with the workload, and the threads emit from a cursor. What is left is each point's Result and threads, and each
// machine's System and wiring.
func TestGridAllocBound(t *testing.T) {
	const maxBytes = 1500 << 10
	if testing.Short() || raceEnabled {
		t.Skip("two passes over the Fig. 8 grid")
	}
	models := []core.Model{core.Naive, core.SWFlush, core.Atomic, core.Store, core.Scope, core.ScopeRelaxed}
	var ws []*Workload
	for _, q := range Queries() {
		ws = append(ws, NewWorkload(q, 4, 0.1, false))
	}
	pass := func() {
		for _, w := range ws {
			for _, m := range models {
				cfg := system.Default()
				cfg.Model = m
				if _, err := Run(w, cfg); err != nil {
					t.Fatalf("%s/%s: %v", w.Q.Name, m, err)
				}
			}
		}
	}
	pass()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > maxBytes {
		t.Fatalf("a warm pass over the Fig. 8 grid (%d points) allocated %.0f KB, want <= %.0f KB",
			len(ws)*len(models), float64(got)/(1<<10), float64(maxBytes)/(1<<10))
	}
}
