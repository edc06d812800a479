package litmus

import (
	"bulkpim/internal/core"
	"bulkpim/internal/cpu"
	"bulkpim/internal/mem"
	"bulkpim/internal/system"
)

// Additional litmus shapes beyond Fig. 1: message passing through a PIM
// op, and cross-scope PIM-op ordering with and without the dedicated PIM
// fence of [21]. Together with Fig. 1 they exercise every ordering rule of
// Table I observably.

// RunMessagePassing executes the MP shape: thread 0 performs a PIM op on
// scope S (the "data") and then sets a flag with a plain store; thread 1
// spins on the flag and reads the PIM op's output. Stale means the flag
// was observed but the PIM output was not: the PIM op reordered after the
// flag store. Under the atomic model the PIM-op -> store order is
// guaranteed, so Stale must never occur. Under scope/scope-relaxed the
// reorder IS allowed unless software adds the dedicated fences — run with
// fence=true to restore the guarantee.
func RunMessagePassing(model core.Model, fence bool) (Observed, error) {
	cfg := config(model, 2, system.Default().Seed)
	flag := mem.Addr(0x4000) // non-PIM memory
	var r *reader
	_, err := system.RunOnce(cfg, func(s *system.System) []cpu.Thread {
		scope := mem.ScopeID(0)
		data := s.Scopes.ScopeBase(scope) + 0x1000
		writer := []cpu.Instr{{Kind: cpu.InstrPIMOp, Scope: scope, Prog: mark("produce", 32, nil, data), Label: "PIM(data)"}}
		if fence {
			if model.NeedsScopeFence() {
				writer = append(writer, cpu.Instr{Kind: cpu.InstrScopeFence, Scope: scope})
			}
			if model.NeedsPIMFence() {
				writer = append(writer, cpu.Instr{Kind: cpu.InstrFencePIM})
			}
			writer = append(writer, cpu.Instr{Kind: cpu.InstrFenceFull})
		}
		writer = append(writer, cpu.Instr{Kind: cpu.InstrStore, Addr: flag, Data: []byte{pimVal}, Label: "W(flag)"})
		// The reader evicts the flag between polls so each poll refetches.
		r = pollThenRead(
			cpu.Instr{Kind: cpu.InstrLoad, Addr: flag}, pimVal,
			cpu.Instr{Kind: cpu.InstrLoadBurst, Burst: evictionSet(cfg, mem.LineOf(flag), 1)}, 400,
			cpu.Instr{Kind: cpu.InstrLoad, Addr: data})
		return []cpu.Thread{&cpu.SliceThread{Instrs: writer}, r}
	})
	return r.Observed, err
}

// RunCrossScopePIM executes the PIM-PIM cross-scope ordering shape:
// thread 0 issues PIM(S0) then PIM(S1), optionally with the dedicated PIM
// fence between them; thread 1 polls S1's output and then reads S0's.
// Stale means S0's output was missing after S1's appeared: the two PIM
// ops reordered. The scope model allows the reorder without the fence
// (Table I) and must forbid it with the fence; the atomic and store
// models forbid it always.
//
// The reader needs no eviction between polls: the proposed models'
// scan-and-flush invalidates the polled line when PIM(S1) passes the
// LLC, so a later poll refetches post-PIM data (stale in-flight fills
// bypass the cache).
func RunCrossScopePIM(model core.Model, fence bool, jitterSeed uint64) (Observed, error) {
	cfg := config(model, 2, jitterSeed)
	// Aggressive network jitter makes the reorder observable when allowed.
	cfg.CoreLLCJitter = 64
	var r *reader
	_, err := system.RunOnce(cfg, func(s *system.System) []cpu.Thread {
		s0, s1 := mem.ScopeID(0), mem.ScopeID(1)
		out0 := s.Scopes.ScopeBase(s0) + 0x1000
		out1 := s.Scopes.ScopeBase(s1) + 0x1000
		writer := []cpu.Instr{{Kind: cpu.InstrPIMOp, Scope: s0, Prog: mark("mark", 8, nil, out0), Label: "PIM(S0)"}}
		if fence {
			writer = append(writer, cpu.Instr{Kind: cpu.InstrFencePIM})
		}
		writer = append(writer, cpu.Instr{Kind: cpu.InstrPIMOp, Scope: s1, Prog: mark("mark", 8, nil, out1), Label: "PIM(S1)"})
		r = pollThenRead(
			cpu.Instr{Kind: cpu.InstrLoad, Addr: out1}, pimVal,
			cpu.Instr{Kind: cpu.InstrCompute, Cycles: 200}, 400,
			cpu.Instr{Kind: cpu.InstrLoad, Addr: out0})
		return []cpu.Thread{&cpu.SliceThread{Instrs: writer}, r}
	})
	return r.Observed, err
}

// SweepCrossScope tries several jitter seeds; returns true if any run
// observed the reorder.
func SweepCrossScope(model core.Model, fence bool, seeds int) (observed bool, completed int, err error) {
	for i := 0; i < seeds; i++ {
		o, e := RunCrossScopePIM(model, fence, uint64(i*7+1))
		if e != nil {
			return observed, completed, e
		}
		if o.Completed {
			completed++
		}
		if o.Stale {
			observed = true
		}
	}
	return observed, completed, nil
}
