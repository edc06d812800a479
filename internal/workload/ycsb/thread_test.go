package ycsb

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"bulkpim/internal/core"
	"bulkpim/internal/cpu"
	"bulkpim/internal/mem"
	"bulkpim/internal/pimdb"
	"bulkpim/internal/system"
)

// drainThread pulls every instruction out of a thread without simulating.
func drainThread(t *testing.T, th cpu.Thread, limit int) []cpu.Instr {
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

func TestThreadStructurePerOp(t *testing.T) {
	p := DefaultParams(100000) // 4 scopes
	p.Operations = 5
	p.ScanFraction = 1.0
	p.Threads = 2
	w := New(p)
	cfg := system.Default()
	cfg.Model = core.Atomic
	cfg = w.SystemConfig(cfg)
	s := system.New(cfg)
	threads := w.Threads(s)
	if len(threads) != 2 {
		t.Fatal("thread count")
	}
	instrs := drainThread(t, threads[0], 100000)
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
	// Thread 0 owns 2 of 4 scopes: per scan 2 scopes x 4 PIM ops.
	if pims != 5*2*4 {
		t.Errorf("pim instrs = %d, want %d", pims, 5*2*4)
	}
	if barriers != 5 {
		t.Errorf("barriers = %d, want 5 (one per op)", barriers)
	}
	// At least one result burst per scope per scan.
	if bursts < 5*2 {
		t.Errorf("bursts = %d, want >= %d", bursts, 5*2)
	}
}

func TestSWFlushThreadEmitsFlushes(t *testing.T) {
	p := DefaultParams(100000)
	p.Operations = 4
	p.ScanFraction = 1.0
	p.Threads = 1
	w := New(p)
	cfg := system.Default()
	cfg.Model = core.SWFlush
	cfg = w.SystemConfig(cfg)
	s := system.New(cfg)
	th := w.Threads(s)[0]
	instrs := drainThread(t, th, 200000)
	flushes := 0
	flushedLines := 0
	for _, in := range instrs {
		if in.Kind == cpu.InstrFlush {
			flushes++
			flushedLines += len(in.Lines)
		}
	}
	// First scan has nothing to flush; later scans flush the previously
	// read result lines.
	if flushes == 0 || flushedLines == 0 {
		t.Fatal("swflush thread never flushed")
	}
	// Each scope's result region is 63 lines; 4 scopes, scans 2..4 flush.
	if flushedLines < 3*4*63 {
		t.Errorf("flushed %d lines, want >= %d", flushedLines, 3*4*63)
	}
}

func TestScopeRelaxedThreadEmitsScopeFences(t *testing.T) {
	p := DefaultParams(100000)
	p.Operations = 3
	p.ScanFraction = 1.0
	p.Threads = 1
	w := New(p)
	cfg := system.Default()
	cfg.Model = core.ScopeRelaxed
	cfg = w.SystemConfig(cfg)
	s := system.New(cfg)
	instrs := drainThread(t, w.Threads(s)[0], 200000)
	fences := 0
	for _, in := range instrs {
		if in.Kind == cpu.InstrScopeFence {
			fences++
		}
	}
	if fences != 3*4 {
		t.Errorf("scope fences = %d, want one per scope per scan (%d)", fences, 3*4)
	}
}

func TestInsertTargetsFreeSlot(t *testing.T) {
	p := DefaultParams(100000)
	p.Operations = 40
	p.ScanFraction = 0.0 // all inserts
	p.Threads = 2
	w := New(p)
	cfg := system.Default()
	cfg.Model = core.Atomic
	cfg = w.SystemConfig(cfg)
	s := system.New(cfg)
	for _, th := range w.Threads(s) {
		for _, in := range drainThread(t, th, 100000) {
			if in.Kind != cpu.InstrStore {
				continue
			}
			pos := w.Position(w.Layout.DecodeKey(in.Data) - 1)
			if pos < p.Records {
				t.Fatalf("insert overwrote initial record at %d", pos)
			}
			if mem.LineOf(in.Addr).Addr() != in.Addr {
				t.Fatal("insert store not line aligned")
			}
		}
	}
}

// refThread is the buffered thread the cursor replaced, kept as the
// specification of a workload's instruction stream: it builds each op
// into a buffer and tracks SW-Flush's cached lines in maps.
type refThread struct {
	w     *Workload
	sys   *system.System
	id    int
	owned []mem.ScopeID
	bar   *cpu.Barrier

	opIdx   int
	pending []cpu.Instr
	pos     int

	touched    map[mem.ScopeID][]mem.LineAddr
	touchedSet map[mem.LineAddr]bool
}

func newRefThreads(w *Workload, sys *system.System) []cpu.Thread {
	bar := cpu.NewBarrier(w.P.Threads)
	threads := make([]cpu.Thread, w.P.Threads)
	for t := range threads {
		th := &refThread{w: w, sys: sys, id: t, bar: bar}
		for s := 0; s < w.Scopes; s++ {
			if s%w.P.Threads == t {
				th.owned = append(th.owned, mem.ScopeID(s))
			}
		}
		if sys.Cfg.Model == core.SWFlush {
			th.touched = make(map[mem.ScopeID][]mem.LineAddr)
			th.touchedSet = make(map[mem.LineAddr]bool)
		}
		threads[t] = th
	}
	return threads
}

func (th *refThread) Next() (cpu.Instr, bool) {
	for th.pos >= len(th.pending) {
		if th.opIdx >= len(th.w.ops) {
			return cpu.Instr{}, false
		}
		th.pending = th.pending[:0]
		th.pos = 0
		th.emitOp(th.w.ops[th.opIdx])
		th.opIdx++
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

func (th *refThread) emitOp(op *opSpec) {
	switch op.kind {
	case opScan:
		th.emitScan(op)
	case opInsert:
		th.emitInsert(op)
	}
	th.emit(cpu.Instr{Kind: cpu.InstrBarrier, Barrier: th.bar})
}

func (th *refThread) emitScan(op *opSpec) {
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
	progs := w.Layout.CompileRangeScan(op.base+1, op.base+op.count)
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
		resStart, resBytes := w.Layout.ResultRegion(base)
		resInstr := cpu.Instr{Kind: cpu.InstrLoadBurst,
			Burst: []cpu.BurstRange{{Start: resStart, Bytes: resBytes}}}
		if w.P.Verify {
			resInstr.OnData = th.resultVerifier(op, scope, resStart)
		}
		if th.touched != nil {
			for l := mem.LineOf(resStart); l < mem.LineOf(resStart+mem.Addr(resBytes)); l += mem.LineSize {
				th.touch(scope, l)
			}
		}
		th.emit(resInstr)

		matches := w.matchesInScope(op, scope)
		if len(matches) == 0 {
			continue
		}
		var ranges []cpu.BurstRange
		var expect map[mem.LineAddr][]byte
		if w.P.Verify {
			expect = make(map[mem.LineAddr][]byte, len(matches))
		}
		for _, m := range matches {
			line := w.Layout.RecordLine(base, m.pos)
			off := w.Layout.FieldByteOff(op.field)
			ranges = append(ranges, cpu.BurstRange{
				Start: line.Addr() + mem.Addr(off), Bytes: w.P.FieldBytes})
			if w.P.Verify {
				want := make([]byte, w.P.FieldBytes)
				for i := range want {
					want[i] = FieldByte(m.key, op.field, i)
				}
				expect[line] = want
			}
			th.touch(scope, line)
		}
		recInstr := cpu.Instr{Kind: cpu.InstrLoadBurst, Burst: ranges}
		if w.P.Verify {
			field := op.field
			recInstr.OnData = func(line mem.LineAddr, data []byte) {
				want := expect[line]
				if want == nil {
					return
				}
				off := w.Layout.FieldByteOff(field)
				if !bytes.Equal(data[off:off+len(want)], want) {
					th.sys.Violations.Inc()
				}
			}
		}
		th.emit(recInstr)
	}
}

func (th *refThread) resultVerifier(op *opSpec, scope mem.ScopeID, resStart mem.Addr) func(mem.LineAddr, []byte) {
	w := th.w
	return func(line mem.LineAddr, data []byte) {
		array := int(line.Addr()-resStart) / mem.LineSize
		if array < 0 || array >= w.Layout.DataArrays {
			return
		}
		if !bytes.Equal(data[:mem.LineSize], w.expectedResultLine(op, scope, array)) {
			th.sys.Violations.Inc()
		}
	}
}

func (th *refThread) emitInsert(op *opSpec) {
	if op.thr != th.id {
		return
	}
	w := th.w
	pos := w.Position(op.key)
	if pos >= w.Scopes*w.Layout.RecordsPerScope() {
		return
	}
	base := th.sys.Scopes.ScopeBase(w.Layout.ScopeOfRecord(pos))
	line := w.Layout.RecordLine(base, pos%w.Layout.RecordsPerScope())
	image := w.Layout.EncodeRecord(op.key+1, w.recordFields(op.key))
	th.emit(cpu.Instr{Kind: cpu.InstrStore, Addr: line.Addr(), Data: image, Label: "insert"})
	if th.touched != nil {
		th.emit(cpu.Instr{Kind: cpu.InstrFlush, Lines: []mem.LineAddr{line}})
	}
}

// streamed is one instruction as a thread returned it, with its Burst,
// Lines and Data contents copied at Next, before the thread may reuse
// them.
type streamed struct {
	in     cpu.Instr
	burst  []cpu.BurstRange
	lines  []mem.LineAddr
	data   []byte
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
			burst:  slices.Clone(in.Burst),
			lines:  slices.Clone(in.Lines),
			data:   slices.Clone(in.Data),
			verify: in.OnData != nil})
	}
}

// sameInstr compares two streamed instructions field by field. Programs
// compare by name, micro-ops and whether they carry an Apply closure,
// since refThread compiles its own; barriers by presence, since each set
// of threads has its own.
func sameInstr(a, b streamed) bool {
	x, y := a.in, b.in
	if x.Kind != y.Kind || x.Scope != y.Scope || x.Label != y.Label || (x.Barrier == nil) != (y.Barrier == nil) ||
		x.Addr != y.Addr || x.Size != y.Size || x.Cycles != y.Cycles || !bytes.Equal(a.data, b.data) ||
		a.verify != b.verify || !slices.Equal(a.burst, b.burst) || !slices.Equal(a.lines, b.lines) {
		return false
	}
	if (x.Prog == nil) != (y.Prog == nil) {
		return false
	}
	return x.Prog == nil || x.Prog.Name == y.Prog.Name && x.Prog.MicroOps == y.Prog.MicroOps &&
		(x.Prog.Apply == nil) == (y.Prog.Apply == nil)
}

// writeHeavy is a mix whose inserts and scans interleave, so SW-Flush
// flushes insert lines and scans follow inserts.
func writeHeavy(records, threads int, seed uint64, verify bool) Params {
	p := DefaultParams(records)
	p.Operations = 40
	p.ScanFraction = 0.7
	p.Threads = threads
	p.Seed = seed
	p.Verify = verify
	return p
}

// TestCursorMatchesBufferedThread pins the cursor thread's instruction
// stream to refThread's for every run mode, with and without
// verification, on databases whose scopes divide evenly among the
// threads, unevenly, and leave only a few free slots for inserts. On a
// 100 k-record database both threads must also give equal Results: for
// every run mode timing-only, and verified for SW-Flush, whose flushes
// the cursor derives, and Naive, which reads stale data. A verified run
// executes every PIM op on the array images, so those use fewer ops.
func TestCursorMatchesBufferedThread(t *testing.T) {
	full := 4*pimdb.DefaultLayout().RecordsPerScope() - 5
	for _, shape := range []struct{ records, threads int }{{100_000, 4}, {300_000, 3}, {full, 4}} {
		for _, seed := range []uint64{1, 2, 3} {
			for _, verify := range []bool{false, true} {
				w := New(writeHeavy(shape.records, shape.threads, seed, verify))
				w.Precompute()
				for _, m := range core.AllVariants() {
					cfg := system.Default()
					cfg.Model = m
					sys := system.New(w.SystemConfig(cfg))
					name := fmt.Sprintf("%d records/%d threads/seed %d/verify=%v/%v",
						shape.records, shape.threads, seed, verify, m)
					refs := newRefThreads(w, sys)
					for i, th := range w.Threads(sys) {
						got, want := stream(t, th), stream(t, refs[i])
						if len(got) != len(want) {
							t.Errorf("%s thread %d: %d instructions, want %d", name, i, len(got), len(want))
							continue
						}
						for j := range got {
							if !sameInstr(got[j], want[j]) {
								t.Errorf("%s thread %d instr %d: got %+v, want %+v", name, i, j, got[j], want[j])
								break
							}
						}
					}
				}
			}
		}
	}

	for _, verify := range []bool{false, true} {
		p, models := writeHeavy(100_000, 4, 1, verify), core.AllVariants()
		if verify {
			p.Operations, models = 16, []core.Model{core.SWFlush, core.Naive}
		}
		w := New(p)
		for _, m := range models {
			cfg := system.Default()
			cfg.Model = m
			var results [2]system.Result
			for i, threads := range []func(*system.System) []cpu.Thread{
				w.Threads,
				func(s *system.System) []cpu.Thread { return newRefThreads(w, s) },
			} {
				res, err := system.RunOnce(w.SystemConfig(cfg), func(s *system.System) []cpu.Thread {
					if s.Cfg.Functional {
						w.InitBacking(s.Backing, s.Scopes)
					}
					return threads(s)
				})
				if err != nil {
					t.Fatalf("verify=%v/%v: %v", verify, m, err)
				}
				results[i] = res
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Errorf("verify=%v/%v: cursor result %+v, buffered %+v", verify, m, results[0], results[1])
			}
		}
	}
}

// swFlushParams is one Fig. 7 point at 2 M records: SW-Flush flushes
// each scan's result and record lines again before the next scan.
func swFlushParams() (Params, system.Config) {
	p := DefaultParams(2_000_000)
	p.Operations = 16
	cfg := system.Default()
	cfg.Model = core.SWFlush
	return p, cfg
}

// A verified run issues the programs each scan compiled once, to every
// owned scope, like a timing-only run: no thread compiles its own.
func TestVerifyRunSharesPrograms(t *testing.T) {
	w := New(writeHeavy(100_000, 4, 1, true))
	shared := map[*mem.PIMProgram]bool{}
	want := 0
	for _, op := range w.ops {
		for _, p := range op.progs {
			shared[p] = true
		}
		want += w.Scopes * len(op.progs)
	}
	sys := system.New(w.SystemConfig(system.Default()))
	pims := 0
	for i, th := range w.Threads(sys) {
		for _, s := range stream(t, th) {
			if s.in.Kind != cpu.InstrPIMOp {
				continue
			}
			pims++
			if !shared[s.in.Prog] {
				t.Fatalf("thread %d: PIM op %q on scope %d is not one of the workload's programs",
					i, s.in.Label, s.in.Scope)
			}
		}
	}
	if pims != want {
		t.Fatalf("%d PIM ops issued, want %d", pims, want)
	}
}

// A YCSB point on a released machine allocates little: the threads emit
// from a cursor, the scans' programs are compiled with the
// workload, and the machine's buffers come back from the free lists.
func TestRunAllocBound(t *testing.T) {
	const maxBytes = 256 << 10
	p, cfg := swFlushParams()
	w := New(p)
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
		t.Fatalf("ycsb.Run(2 M records, 16 ops, SW-Flush) on a released machine allocated %.0f KB, want <= %.0f KB",
			float64(got)/(1<<10), float64(maxBytes)/(1<<10))
	}
}

// BenchmarkThreadStream drains every thread of one SW-Flush workload on
// a built machine, without simulating: the cost of computing the
// instruction stream alone.
func BenchmarkThreadStream(b *testing.B) {
	p, cfg := swFlushParams()
	w := New(p)
	w.Precompute()
	sys := system.New(w.SystemConfig(cfg))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, th := range w.Threads(sys) {
			for _, ok := th.Next(); ok; _, ok = th.Next() {
			}
		}
	}
}

// A warm pass over one seed's Fig. 7 quick grid (4 record counts x 6
// models, 16 operations) allocates little: every machine is built on the
// structures the previous one released, and the threads emit from a
// cursor over ops compiled with the workload.
func TestGridAllocBound(t *testing.T) {
	const maxBytes = 1 << 20
	if testing.Short() || raceEnabled {
		t.Skip("two passes over the Fig. 7 quick grid")
	}
	models := []core.Model{core.Naive, core.SWFlush, core.Atomic, core.Store, core.Scope, core.ScopeRelaxed}
	var ws []*Workload
	for _, records := range []int{100_000, 500_000, 2_000_000, 8_000_000} {
		p := DefaultParams(records)
		p.Operations = 16
		w := New(p)
		w.Precompute()
		ws = append(ws, w)
	}
	pass := func() {
		for _, w := range ws {
			for _, m := range models {
				cfg := system.Default()
				cfg.Model = m
				if _, err := Run(w, cfg); err != nil {
					t.Fatalf("records=%d/%s: %v", w.P.Records, m, err)
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
		t.Fatalf("a warm pass over the Fig. 7 quick grid (%d points) allocated %.0f KB, want <= %.0f KB",
			len(ws)*len(models), float64(got)/(1<<10), float64(maxBytes)/(1<<10))
	}
}
