package memctrl

import (
	"testing"
	"testing/quick"

	"bulkpim/internal/mem"
	"bulkpim/internal/pim"
	"bulkpim/internal/sim"
)

// Property: for any admission sequence, (a) same-line operations complete
// in arrival order, (b) a load to a scope never completes before an
// earlier-arrived PIM op to that scope finishes executing, and (c)
// everything completes (no deadlock).
func TestControllerOrderingProperty(t *testing.T) {
	type spec struct {
		Pim   bool
		Scope uint8
		Line  uint8
	}
	prop := func(specs []spec) bool {
		if len(specs) > 40 {
			specs = specs[:40]
		}
		k := sim.NewKernel()
		k.EventLimit = 2_000_000
		b := mem.NewBacking()
		m := pim.NewModule(k, b)
		m.FixedOpLatency = 13
		m.CyclesPerMicroOp = 0
		c := New(k, mem.NewRequestPool(), m, b)
		c.QueueSize = 8

		type done struct {
			idx  int
			at   sim.Tick
			spec spec
		}
		var dones []done
		pimDone := map[int]sim.Tick{}

		var queue []*mem.Request
		idxOf := map[*mem.Request]int{}
		for i, sp := range specs {
			scope := mem.ScopeID(sp.Scope % 3)
			var req *mem.Request
			if sp.Pim {
				req = &mem.Request{Kind: mem.ReqPIMOp, Scope: scope,
					Prog: &mem.PIMProgram{}}
				i := i
				req.OnDone = func(*mem.Request, any) { pimDone[i] = k.Now() }
			} else {
				line := mem.LineAddr(mem.DefaultPIMBase) + mem.LineAddr(uint64(sp.Line%16)*mem.LineSize)
				// Map the line into one of the 3 scopes by offset.
				line += mem.LineAddr(uint64(scope) * mem.DefaultScopeSize)
				req = &mem.Request{Kind: mem.ReqLoad, Line: line, Scope: scope}
				i := i
				sp := sp
				req.OnDone = func(*mem.Request, any) { dones = append(dones, done{i, k.Now(), sp}) }
			}
			idxOf[req] = i
			queue = append(queue, req)
		}
		// Pump with credits.
		qi, pumping := 0, false
		var pump func()
		pump = func() {
			if pumping {
				return
			}
			pumping = true
			for qi < len(queue) && c.Enqueue(queue[qi]) {
				qi++
			}
			pumping = false
		}
		c.OnSpace = pump
		pump()
		if _, err := k.Run(); err != nil {
			return false
		}
		if qi != len(queue) {
			return false // not everything admitted
		}
		// (c) all loads completed.
		loads := 0
		for _, sp := range specs {
			if !sp.Pim {
				loads++
			}
		}
		if len(dones) != loads {
			return false
		}
		// (b) loads complete after earlier same-scope PIM executions.
		for _, d := range dones {
			for j, sp := range specs {
				if j < d.idx && sp.Pim && sp.Scope%3 == d.spec.Scope%3 {
					if at, ok := pimDone[j]; !ok || d.at < at {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
