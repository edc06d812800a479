package ycsb

import (
	"bytes"

	"bulkpim/internal/core"
	"bulkpim/internal/cpu"
	"bulkpim/internal/mem"
	"bulkpim/internal/system"
)

// Threads builds the worker threads for one run on sys. Scopes are divided
// evenly among the threads; each thread issues the PIM ops for its scopes,
// then reads the scan results and the extracted record fields with
// standard loads (§VI-B).
func (w *Workload) Threads(sys *system.System) []cpu.Thread {
	bar := cpu.NewBarrier(w.P.Threads)
	threads := make([]cpu.Thread, w.P.Threads)
	for t := range threads {
		threads[t] = &thread{w: w, sys: sys, bar: bar, id: t,
			owned: (w.Scopes + w.P.Threads - 1 - t) / w.P.Threads}
	}
	return threads
}

// readSlots is the read phase's steps per owned scope: a scope-fence,
// the result burst and the record burst. A fence the model does not
// need, and a record burst with no match in the scope, are skipped.
const readSlots = 3

// thread is one worker. It computes each instruction of an op from its
// position (op, step) instead of buffering the op. A scan is, in order:
//   - SW-Flush only, after the thread's first scan: a flush per owned
//     scope of the lines the previous scan read there;
//   - the PIM section: the scan's op sequence, per owned scope;
//   - the read phase: readSlots steps per owned scope;
//   - the barrier.
//
// An insert is the designated thread's store of the record and, under
// SW-Flush, a flush of its line; then the barrier.
type thread struct {
	w   *Workload
	sys *system.System
	bar *cpu.Barrier
	// The thread owns scopes id, id+Threads, id+2*Threads, ...: owned
	// of them.
	id, owned int

	op, step int
	// prev is the thread's previous scan. Every scan flushes every owned
	// scope, so under SW-Flush the lines cached in a scope since its last
	// flush are exactly what prev read there.
	prev *opSpec

	// burst and lines carry the payload of the instruction last
	// returned; the core is done with it before it calls Next again.
	burst []cpu.BurstRange
	lines []mem.LineAddr
}

// Next implements cpu.Thread.
func (th *thread) Next() (cpu.Instr, bool) {
	for th.op < len(th.w.ops) {
		op := th.w.ops[th.op]
		for n := th.steps(op); th.step < n; {
			step := th.step
			th.step++
			if step == n-1 {
				return cpu.Instr{Kind: cpu.InstrBarrier, Barrier: th.bar}, true
			}
			if in, ok := th.instr(op, step); ok {
				return in, true
			}
		}
		if op.kind == opScan {
			th.prev = op
		}
		th.op, th.step = th.op+1, 0
	}
	return cpu.Instr{}, false
}

// scope returns the thread's i-th owned scope.
func (th *thread) scope(i int) mem.ScopeID { return mem.ScopeID(th.id + i*th.w.P.Threads) }

// flushes is the number of SW-Flush flushes that open the next scan.
func (th *thread) flushes() int {
	if th.sys.Cfg.Model == core.SWFlush && th.prev != nil {
		return th.owned
	}
	return 0
}

// steps is the length of op's step sequence, skipped steps included;
// its last step is the barrier.
func (th *thread) steps(op *opSpec) int {
	if op.kind == opInsert {
		return 3
	}
	return th.flushes() + th.owned*(len(op.progs)+readSlots) + 1
}

// instr returns step of op before its barrier, or false for a skipped
// step.
func (th *thread) instr(op *opSpec, step int) (cpu.Instr, bool) {
	if op.kind == opInsert {
		return th.insertInstr(op, step)
	}
	n, f, ops := th.owned, th.flushes(), len(op.progs)
	if step < f {
		return th.flushInstr(th.scope(step)), true
	}
	step -= f
	if step < n*ops {
		p := op.progs[step%ops]
		return cpu.Instr{Kind: cpu.InstrPIMOp, Scope: th.scope(step / ops), Prog: p, Label: p.Name}, true
	}
	step -= n * ops
	s := th.scope(step / readSlots)
	switch step % readSlots {
	case 0:
		return cpu.Instr{Kind: cpu.InstrScopeFence, Scope: s}, th.sys.Cfg.Model.NeedsScopeFence()
	case 1:
		return th.resultInstr(op, s), true
	}
	return th.recordInstr(op, s)
}

// flushInstr is SW-Flush's software coherence for scope s ([25]): it
// flushes what the previous scan cached there, the result bit-vectors
// and then each matched record's line, before the PIM ops run.
func (th *thread) flushInstr(s mem.ScopeID) cpu.Instr {
	w := th.w
	base := th.sys.Scopes.ScopeBase(s)
	start, n := w.Layout.ResultRegion(base)
	th.lines = th.lines[:0]
	for l := mem.LineOf(start); l < mem.LineOf(start+mem.Addr(n)); l += mem.LineSize {
		th.lines = append(th.lines, l)
	}
	for _, m := range w.matchesInScope(th.prev, s) {
		th.lines = append(th.lines, w.Layout.RecordLine(base, m.pos))
	}
	return cpu.Instr{Kind: cpu.InstrFlush, Lines: th.lines}
}

// resultInstr reads the result bit-vectors of scope s.
func (th *thread) resultInstr(op *opSpec, s mem.ScopeID) cpu.Instr {
	start, n := th.w.Layout.ResultRegion(th.sys.Scopes.ScopeBase(s))
	th.burst = append(th.burst[:0], cpu.BurstRange{Start: start, Bytes: n})
	in := cpu.Instr{Kind: cpu.InstrLoadBurst, Burst: th.burst}
	if th.w.P.Verify {
		in.OnData = th.resultVerifier(op, s, start)
	}
	return in
}

// recordInstr reads the extracted field of each record op matched in
// scope s, or is skipped when it matched none there.
func (th *thread) recordInstr(op *opSpec, s mem.ScopeID) (cpu.Instr, bool) {
	w := th.w
	matches := w.matchesInScope(op, s)
	if len(matches) == 0 {
		return cpu.Instr{}, false
	}
	base := th.sys.Scopes.ScopeBase(s)
	off := mem.Addr(w.Layout.FieldByteOff(op.field))
	th.burst = th.burst[:0]
	for _, m := range matches {
		th.burst = append(th.burst, cpu.BurstRange{
			Start: w.Layout.RecordLine(base, m.pos).Addr() + off, Bytes: w.P.FieldBytes})
	}
	in := cpu.Instr{Kind: cpu.InstrLoadBurst, Burst: th.burst}
	if w.P.Verify {
		in.OnData = th.recordVerifier(op, base, matches)
	}
	return in, true
}

// resultVerifier checks result bit-vector lines against the oracle.
func (th *thread) resultVerifier(op *opSpec, scope mem.ScopeID, resStart mem.Addr) func(mem.LineAddr, []byte) {
	w := th.w
	return func(line mem.LineAddr, data []byte) {
		array := int(line.Addr()-resStart) / mem.LineSize
		if array < 0 || array >= w.Layout.DataArrays {
			return
		}
		want := w.expectedResultLine(op, scope, array)
		if !bytes.Equal(data[:mem.LineSize], want) {
			th.sys.Violations.Inc()
		}
	}
}

// recordVerifier checks the extracted field of each matched record
// against the oracle.
func (th *thread) recordVerifier(op *opSpec, base mem.Addr, matches []match) func(mem.LineAddr, []byte) {
	w := th.w
	expect := make(map[mem.LineAddr][]byte, len(matches))
	for _, m := range matches {
		want := make([]byte, w.P.FieldBytes)
		for i := range want {
			want[i] = FieldByte(m.key, op.field, i)
		}
		expect[w.Layout.RecordLine(base, m.pos)] = want
	}
	off := w.Layout.FieldByteOff(op.field)
	return func(line mem.LineAddr, data []byte) {
		want := expect[line]
		if want == nil {
			return
		}
		if !bytes.Equal(data[off:off+len(want)], want) {
			th.sys.Violations.Inc()
		}
	}
}

// insertInstr returns step 0 (the store) or 1 (SW-Flush's flush of the
// stored line, so any thread's next scan sees the record) of an insert.
// Both are skipped on every thread but the designated one, and when the
// database is full: the append has no free slot.
func (th *thread) insertInstr(op *opSpec, step int) (cpu.Instr, bool) {
	w := th.w
	if op.thr != th.id {
		return cpu.Instr{}, false
	}
	pos := w.Position(op.key)
	if pos >= w.Scopes*w.Layout.RecordsPerScope() {
		return cpu.Instr{}, false
	}
	base := th.sys.Scopes.ScopeBase(w.Layout.ScopeOfRecord(pos))
	line := w.Layout.RecordLine(base, pos%w.Layout.RecordsPerScope())
	if step == 0 {
		image := w.Layout.EncodeRecord(op.key+1, w.recordFields(op.key))
		return cpu.Instr{Kind: cpu.InstrStore, Addr: line.Addr(), Data: image, Label: "insert"}, true
	}
	if th.sys.Cfg.Model != core.SWFlush {
		return cpu.Instr{}, false
	}
	th.lines = append(th.lines[:0], line)
	return cpu.Instr{Kind: cpu.InstrFlush, Lines: th.lines}, true
}
