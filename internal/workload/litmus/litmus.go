// Package litmus reproduces the paper's §I / Fig. 1 scenario as an
// executable litmus test: a thread writes A and B, makes them visible to
// the PIM memory, and issues a PIM op that rewrites both; an adversarial
// agent (standing in for "another thread or a prefetcher") re-fetches A
// into the cache inside the window between the flushes and the PIM op.
// A checker thread then polls B until it observes the PIM-written value
// and finally reads A.
//
// Under the SW-Flush baseline the checker can observe new-B followed by
// old-A — a stale cache hit that closes a happens-before cycle (the
// "cyclic ordering without a well-defined happen-before relation"). Under
// the four proposed models the scan-and-flush is atomic with the PIM op,
// so the outcome is impossible at every adversary timing.
//
// Every shape runs on one harness: a writer program and one
// poll-then-read reader (Fig. 1 adds the adversary) on a machine that
// system.RunOnce builds, runs and releases.
package litmus

import (
	"fmt"

	"bulkpim/internal/core"
	"bulkpim/internal/cpu"
	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
	"bulkpim/internal/system"
)

// Outcome of one Fig. 1 run.
type Outcome struct {
	Model          core.Model
	AdversaryDelay sim.Tick
	// Completed: the checker eventually observed the PIM-written B.
	Completed bool
	// StaleRead: the checker observed new B and then old A — the Fig. 1
	// violation.
	StaleRead bool
	// Cycle is the happens-before cycle found in the execution, if any.
	Cycle *core.Cycle
	// ValueA/ValueB are the checker's final observations.
	ValueA, ValueB byte
}

func (o Outcome) String() string {
	return fmt.Sprintf("model=%s delay=%d completed=%v stale=%v cycle=%v",
		o.Model, o.AdversaryDelay, o.Completed, o.StaleRead, o.Cycle != nil)
}

// Observed is what a shape's reader saw.
type Observed struct {
	// Completed: the polled byte reached the writer's value.
	Completed bool
	// Stale: the read that followed returned an older value, so the
	// ordering the shape tests was broken.
	Stale bool
}

const (
	storeVal = 1 // A0 / B0
	pimVal   = 2 // A1 / B1
)

// config is the machine every shape runs on: Table II with two scopes
// and cores cores, executing PIM programs on real bytes.
func config(model core.Model, cores int, seed uint64) system.Config {
	cfg := system.Default()
	cfg.Model = model
	cfg.Cores = cores
	cfg.ScopeCount = 2
	cfg.Functional = true
	cfg.Seed = seed
	return cfg
}

// mark is a PIM program of microOps micro-ops that writes pimVal at each
// of addrs, whatever scope it is issued to, and stamps their lines with
// the op as writer; with hb set it also records those writes for the
// happens-before check.
func mark(name string, microOps int, hb *core.Recorder, addrs ...mem.Addr) *mem.PIMProgram {
	return &mem.PIMProgram{Name: name, MicroOps: microOps, Apply: func(bk *mem.Backing, _ mem.Addr, w uint64) {
		for _, a := range addrs {
			bk.SetByte(a, pimVal)
			bk.SetWriter(mem.LineOf(a), w)
			if hb != nil {
				hb.RecordWrite(w, mem.LineOf(a))
			}
		}
	}}
}

// evictionSet is a burst over LLCWays+1 lines outside the PIM region
// that share line's LLC set, and so its (smaller, power-of-two) L1 set:
// issued between polls, it evicts line so the next poll refetches. The
// lines sit at multiples first, first+1, … of the LLC set stride; first
// skips the multiples that would alias line itself.
func evictionSet(cfg system.Config, line mem.LineAddr, first int) []cpu.BurstRange {
	stride := uint64(cfg.LLCSets) * mem.LineSize
	off := uint64(line) % stride
	set := make([]cpu.BurstRange, cfg.LLCWays+1)
	for k := range set {
		set[k] = cpu.BurstRange{Start: mem.Addr(uint64(first+k)*stride + off), Bytes: 8}
	}
	return set
}

// The reader's steps, in order.
const (
	stepPoll = iota
	stepBetween
	stepRead
	stepDone
)

// reader is every shape's checker thread; see pollThenRead.
type reader struct {
	Observed
	poll, between, read cpu.Instr
	maxPolls, polls     int
	step                int
	got                 byte // what the read returned
}

// pollThenRead builds a reader that loads poll until its byte reads want,
// issuing between after each poll, and then loads read once; the shape
// is Stale if that byte is not want either. It gives up, leaving
// Completed false, after maxPolls polls that did not see want. A poll's
// data arrives while later steps issue: the poll that sees want makes
// the read the next step, whichever step was due.
func pollThenRead(poll cpu.Instr, want byte, between cpu.Instr, maxPolls int, read cpu.Instr) *reader {
	r := &reader{poll: poll, between: between, read: read, maxPolls: maxPolls}
	r.poll.OnData = func(_ mem.LineAddr, d []byte) {
		if d[int(poll.Addr)%mem.LineSize] == want {
			r.step = stepRead
		}
	}
	r.read.OnData = func(_ mem.LineAddr, d []byte) {
		r.got = d[int(read.Addr)%mem.LineSize]
		if r.got != want {
			r.Stale = true
		}
	}
	return r
}

// Next implements cpu.Thread.
func (r *reader) Next() (cpu.Instr, bool) {
	switch r.step {
	case stepPoll:
		r.step = stepBetween
		return r.poll, true
	case stepBetween:
		if r.polls++; r.polls > r.maxPolls {
			return cpu.Instr{}, false
		}
		r.step = stepPoll
		return r.between, true
	case stepRead:
		r.step = stepDone
		r.Completed = true
		return r.read, true
	}
	return cpu.Instr{}, false
}

// RunFig1 executes the scenario under model with the adversary's load of A
// issued after adversaryDelay cycles.
func RunFig1(model core.Model, adversaryDelay sim.Tick) (Outcome, error) {
	cfg := config(model, 3, system.Default().Seed)
	cfg.TrackHB = true
	cfg.LLCWays = 4 // keep conflict-eviction sets small
	var hb *core.Recorder
	var checker *reader
	_, err := system.RunOnce(cfg, func(s *system.System) []cpu.Thread {
		hb = s.HB
		scope := mem.ScopeID(0)
		addrA := s.Scopes.ScopeBase(scope) + 0x1000
		addrB := addrA + 0x1000
		lineA, lineB := mem.LineOf(addrA), mem.LineOf(addrB)

		// Writer thread: Fig. 1's code.
		writer := []cpu.Instr{
			{Kind: cpu.InstrStore, Addr: addrA, Data: []byte{storeVal}, Label: "W(A)=A0"},
			{Kind: cpu.InstrFenceFull},
			{Kind: cpu.InstrStore, Addr: addrB, Data: []byte{storeVal}, Label: "W(B)=B0"},
			{Kind: cpu.InstrFenceFull},
		}
		if model == core.SWFlush {
			writer = append(writer,
				cpu.Instr{Kind: cpu.InstrFlush, Lines: []mem.LineAddr{lineA, lineB}},
				cpu.Instr{Kind: cpu.InstrFenceFull},
			)
		}
		if model.NeedsScopeFence() {
			writer = append(writer, cpu.Instr{Kind: cpu.InstrScopeFence, Scope: scope})
		}
		writer = append(writer, cpu.Instr{Kind: cpu.InstrPIMOp, Scope: scope,
			Prog: mark("write_A1_B1", 64, hb, addrA, addrB), Label: "PIMop"})

		// Adversary: a timed prefetch of A.
		adversary := []cpu.Instr{
			{Kind: cpu.InstrCompute, Cycles: adversaryDelay},
			{Kind: cpu.InstrLoad, Addr: addrA, Label: "prefetch(A)"},
		}

		// Checker: poll B, evicting it between polls so each poll
		// refetches, then read A.
		checker = pollThenRead(
			cpu.Instr{Kind: cpu.InstrLoad, Addr: addrB, Label: "R(B)"}, pimVal,
			cpu.Instr{Kind: cpu.InstrLoadBurst, Burst: evictionSet(cfg, lineB, 0)}, 400,
			cpu.Instr{Kind: cpu.InstrLoad, Addr: addrA, Label: "R(A)"})
		return []cpu.Thread{&cpu.SliceThread{Instrs: writer}, &cpu.SliceThread{Instrs: adversary}, checker}
	})
	out := Outcome{Model: model, AdversaryDelay: adversaryDelay,
		Completed: checker.Completed, StaleRead: checker.Stale, ValueA: checker.got}
	if out.Completed {
		out.ValueB = pimVal
	}
	if err != nil {
		return out, err
	}
	out.Cycle = hb.FindCycle()
	return out, nil
}

// SweepFig1 runs the scenario across adversary timings and returns every
// outcome. A model is vulnerable if ANY timing produces a stale read or a
// happens-before cycle.
func SweepFig1(model core.Model, delays []sim.Tick) ([]Outcome, error) {
	var outs []Outcome
	for _, d := range delays {
		o, err := RunFig1(model, d)
		if err != nil {
			return outs, err
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// DefaultSweep covers the flush-to-PIM-execution window.
func DefaultSweep() []sim.Tick {
	var out []sim.Tick
	for d := sim.Tick(0); d <= 4000; d += 200 {
		out = append(out, d)
	}
	return out
}

// Vulnerable summarizes a sweep: any stale read or cycle.
func Vulnerable(outs []Outcome) (stale, cycle bool) {
	for _, o := range outs {
		if o.StaleRead {
			stale = true
		}
		if o.Cycle != nil {
			cycle = true
		}
	}
	return
}
