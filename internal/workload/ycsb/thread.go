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
	for t := 0; t < w.P.Threads; t++ {
		th := &thread{w: w, sys: sys, id: t, bar: bar}
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

type thread struct {
	w     *Workload
	sys   *system.System
	id    int
	owned []mem.ScopeID
	bar   *cpu.Barrier

	opIdx   int
	pending []cpu.Instr
	pos     int

	// SW-Flush baseline: lines this thread cached from each scope since
	// its last flush (the software's explicit coherence bookkeeping).
	touched    map[mem.ScopeID][]mem.LineAddr
	touchedSet map[mem.LineAddr]bool
}

// Next implements cpu.Thread.
func (th *thread) Next() (cpu.Instr, bool) {
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

func (th *thread) emit(in cpu.Instr) { th.pending = append(th.pending, in) }

func (th *thread) touch(scope mem.ScopeID, line mem.LineAddr) {
	if th.touched == nil || th.touchedSet[line] {
		return
	}
	th.touchedSet[line] = true
	th.touched[scope] = append(th.touched[scope], line)
}

func (th *thread) emitOp(op *opSpec) {
	switch op.kind {
	case opScan:
		th.emitScan(op)
	case opInsert:
		th.emitInsert(op)
	}
	th.emit(cpu.Instr{Kind: cpu.InstrBarrier, Barrier: th.bar})
}

func (th *thread) emitScan(op *opSpec) {
	w := th.w
	model := th.sys.Cfg.Model

	// SW-Flush: flush everything this thread cached from its scopes
	// before issuing the PIM ops ([25]'s software coherence).
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

	// Keys are stored +1 so the all-zero image of an empty row can never
	// match a scan (0 is the "invalid record" sentinel).
	lo, hi := op.base+1, op.base+op.count

	// Issue phase: the fine-grained op sequence, duplicated per scope.
	// Timing-only programs carry no Apply closure, so one compilation
	// serves every scope.
	functional := th.sys.Cfg.Functional
	var shared []*mem.PIMProgram
	if !functional {
		shared = w.Layout.CompileRangeScan(0, lo, hi, false)
	}
	for _, s := range th.owned {
		progs := shared
		if functional {
			progs = w.Layout.CompileRangeScan(th.sys.Scopes.ScopeBase(s), lo, hi, true)
		}
		for _, p := range progs {
			th.emit(cpu.Instr{Kind: cpu.InstrPIMOp, Scope: s, Prog: p, Label: p.Name})
		}
	}

	// Read phase, per scope: the result bit-vectors, then the extracted
	// field of each matching record.
	for _, s := range th.owned {
		scope := s
		base := th.sys.Scopes.ScopeBase(scope)
		if model.NeedsScopeFence() {
			th.emit(cpu.Instr{Kind: cpu.InstrScopeFence, Scope: scope})
		}
		resStart, resBytes := w.Layout.ResultRegion(base)
		resInstr := cpu.Instr{Kind: cpu.InstrLoadBurst,
			Burst: []cpu.BurstRange{{Start: resStart, Bytes: resBytes}}}
		if th.w.P.Verify {
			resInstr.OnData = th.resultVerifier(op, scope, resStart)
		}
		if th.touched != nil {
			for l := mem.LineOf(resStart); l < mem.LineOf(resStart+mem.Addr(resBytes)); l += mem.LineSize {
				th.touch(scope, l)
			}
		}
		th.emit(resInstr)

		matches := w.matchesInScope(op, scope)
		if len(matches) > 0 {
			var ranges []cpu.BurstRange
			var expect map[mem.LineAddr][]byte // read only when verifying
			if th.w.P.Verify {
				expect = make(map[mem.LineAddr][]byte, len(matches))
			}
			for _, m := range matches {
				line := w.Layout.RecordLine(base, m.pos)
				off := w.Layout.FieldByteOff(op.field)
				ranges = append(ranges, cpu.BurstRange{
					Start: line.Addr() + mem.Addr(off), Bytes: w.P.FieldBytes})
				if th.w.P.Verify {
					want := make([]byte, w.P.FieldBytes)
					for i := range want {
						want[i] = FieldByte(m.key, op.field, i)
					}
					expect[line] = want
				}
				th.touch(scope, line)
			}
			recInstr := cpu.Instr{Kind: cpu.InstrLoadBurst, Burst: ranges}
			if th.w.P.Verify {
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

func (th *thread) emitInsert(op *opSpec) {
	if op.thr != th.id {
		return // only the designated thread inserts; all threads barrier
	}
	w := th.w
	pos := w.Position(op.key)
	if pos >= w.Scopes*w.Layout.RecordsPerScope() {
		return // database full: the append has no free slot
	}
	scope := w.Layout.ScopeOfRecord(pos)
	base := th.sys.Scopes.ScopeBase(scope)
	line := w.Layout.RecordLine(base, pos%w.Layout.RecordsPerScope())
	image := w.Layout.EncodeRecord(op.key+1, w.recordFields(op.key))
	th.emit(cpu.Instr{Kind: cpu.InstrStore, Addr: line.Addr(), Data: image, Label: "insert"})
	if th.touched != nil {
		// SW-Flush: flush immediately after writing so any thread's next
		// scan sees the record.
		th.emit(cpu.Instr{Kind: cpu.InstrFlush, Lines: []mem.LineAddr{line}})
	}
}
