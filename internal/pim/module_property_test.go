package pim

import (
	"testing"
	"testing/quick"

	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
)

// Property: for any arrival sequence, ops to one scope complete in arrival
// order (the memory array is occupied until the op completes, §III), and
// every op completes exactly once.
func TestModulePerScopeFIFOProperty(t *testing.T) {
	prop := func(scopes []uint8, latencies []uint8) bool {
		if len(scopes) == 0 {
			return true
		}
		k := sim.NewKernel()
		k.EventLimit = 1_000_000
		m := NewModule(k, mem.NewBacking())
		m.BufferSize = 0 // unbounded so every op is accepted
		m.FixedOpLatency = 1
		m.CyclesPerMicroOp = 1

		type tag struct {
			scope mem.ScopeID
			idx   int
		}
		var completions []tag
		m.OnComplete = func(r *mem.Request) {
			completions = append(completions, tag{r.Scope, int(r.ID)})
		}
		for i, s := range scopes {
			micro := 1
			if len(latencies) > 0 {
				micro = int(latencies[i%len(latencies)])%17 + 1
			}
			m.TryEnqueue(&mem.Request{
				ID: uint64(i), Kind: mem.ReqPIMOp, Scope: mem.ScopeID(s % 5),
				Prog: &mem.PIMProgram{MicroOps: micro},
			})
		}
		if _, err := k.Run(); err != nil {
			return false
		}
		if len(completions) != len(scopes) {
			return false
		}
		// Per-scope completion order must match arrival (ID) order.
		lastIdx := map[mem.ScopeID]int{}
		for _, c := range completions {
			if prev, ok := lastIdx[c.scope]; ok && c.idx < prev {
				return false
			}
			lastIdx[c.scope] = c.idx
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: at no instant do two ops of the same scope execute; distinct
// scopes overlap freely.
func TestModuleScopeExclusivityProperty(t *testing.T) {
	k := sim.NewKernel()
	m := NewModule(k, mem.NewBacking())
	m.BufferSize = 0
	m.FixedOpLatency = 37
	rng := sim.NewRand(5)
	type window struct{ start, end sim.Tick }
	running := map[mem.ScopeID][]window{}
	m.OnComplete = func(r *mem.Request) {
		s := r.Scope
		running[s][len(running[s])-1].end = k.Now()
	}
	// Re-open windows for scopes that started while time passed.
	reopen := func() {
		for sc := mem.ScopeID(0); sc < 6; sc++ {
			if m.ScopeBusy(sc) {
				ws := running[sc]
				if len(ws) == 0 || ws[len(ws)-1].end != 0 {
					running[sc] = append(ws, window{start: k.Now()})
				}
			}
		}
	}
	// drive enqueues ops in a loop; on a coin flip it lets up to 99
	// cycles pass, resuming as an event after the ones due by then.
	i := 0
	var drive, resume func(any)
	resume = func(any) {
		reopen()
		drive(nil)
	}
	drive = func(any) {
		for i < 200 {
			s := mem.ScopeID(rng.Intn(6))
			req := &mem.Request{Kind: mem.ReqPIMOp, Scope: s,
				Prog: &mem.PIMProgram{MicroOps: rng.Intn(5)}}
			// record start via a wrapper on enqueue time is not the start;
			// instead track via the executing map after TryEnqueue.
			m.TryEnqueue(req)
			if m.ScopeBusy(s) && len(running[s]) == 0 {
				running[s] = append(running[s], window{start: k.Now()})
			}
			i++
			if rng.Intn(3) == 0 {
				k.ScheduleCtx(sim.Tick(rng.Intn(100)), resume, nil)
				return
			}
			reopen()
		}
	}
	drive(nil)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Windows of one scope must not overlap.
	for s, ws := range running {
		for i := 1; i < len(ws); i++ {
			if ws[i].start < ws[i-1].end {
				t.Fatalf("scope %d windows overlap: %v", s, ws)
			}
		}
	}
	if m.InFlight() != 0 {
		t.Fatal("ops left in flight")
	}
}
