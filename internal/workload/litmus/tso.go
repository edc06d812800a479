package litmus

import (
	"bulkpim/internal/core"
	"bulkpim/internal/cpu"
	"bulkpim/internal/mem"
	"bulkpim/internal/system"
)

// Classic (non-PIM) litmus tests validating the simulated host's x86-TSO
// behaviour — the base the paper's models "extend without violating"
// (§III). Store-buffering's relaxed outcome must be observable (TSO allows
// it); message-passing's must not (TSO forbids store-store / load-load
// reordering). Neither issues a PIM op, so the model is immaterial.

// SBOutcome is one store-buffering run: two threads each store to their
// own flag and read the other's.
type SBOutcome struct {
	// BothZero: both threads read the other's pre-store value — forbidden
	// under SC, allowed under TSO.
	BothZero bool
}

// RunStoreBuffering executes the SB shape once with the given seed.
func RunStoreBuffering(fences bool, seed uint64) (SBOutcome, error) {
	addrX := mem.Addr(0x2000)
	addrY := mem.Addr(0x6000)
	var r0, r1 byte = 0xFF, 0xFF

	mk := func(mine, other mem.Addr, out *byte) cpu.Thread {
		instrs := []cpu.Instr{
			{Kind: cpu.InstrStore, Addr: mine, Data: []byte{1}},
		}
		if fences {
			instrs = append(instrs, cpu.Instr{Kind: cpu.InstrFenceFull})
		}
		instrs = append(instrs, cpu.Instr{
			Kind: cpu.InstrLoad, Addr: other,
			OnData: func(_ mem.LineAddr, d []byte) { *out = d[int(other)%mem.LineSize] },
		})
		return &cpu.SliceThread{Instrs: instrs}
	}
	threads := []cpu.Thread{mk(addrX, addrY, &r0), mk(addrY, addrX, &r1)}
	if _, err := system.RunOnce(config(core.Atomic, 2, seed), func(*system.System) []cpu.Thread { return threads }); err != nil {
		return SBOutcome{}, err
	}
	return SBOutcome{BothZero: r0 == 0 && r1 == 0}, nil
}

// SweepStoreBuffering runs SB across seeds and reports how often the
// relaxed outcome appeared.
func SweepStoreBuffering(fences bool, seeds int) (bothZero int, err error) {
	for i := 0; i < seeds; i++ {
		o, e := RunStoreBuffering(fences, uint64(i+1))
		if e != nil {
			return bothZero, e
		}
		if o.BothZero {
			bothZero++
		}
	}
	return bothZero, nil
}

// RunMPPlain executes plain MP: T0 stores data then flag; T1 spins on
// flag then reads data. Under TSO the outcome flag=new/data=old is
// forbidden, so Stale must never be set.
func RunMPPlain(seed uint64) (Observed, error) {
	data := mem.Addr(0x2000)
	flag := mem.Addr(0x6000)
	writer := &cpu.SliceThread{Instrs: []cpu.Instr{
		{Kind: cpu.InstrStore, Addr: data, Data: []byte{storeVal}},
		{Kind: cpu.InstrStore, Addr: flag, Data: []byte{storeVal}},
	}}
	r := pollThenRead(
		cpu.Instr{Kind: cpu.InstrLoad, Addr: flag}, storeVal,
		cpu.Instr{Kind: cpu.InstrCompute, Cycles: 30}, 500,
		cpu.Instr{Kind: cpu.InstrLoad, Addr: data})
	_, err := system.RunOnce(config(core.Atomic, 2, seed), func(*system.System) []cpu.Thread {
		return []cpu.Thread{writer, r}
	})
	return r.Observed, err
}
