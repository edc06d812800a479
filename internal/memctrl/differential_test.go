package memctrl

import (
	"fmt"
	"math/rand"
	"testing"

	"bulkpim/internal/mem"
	"bulkpim/internal/pim"
	"bulkpim/internal/sim"
)

// The differential suite pins the indexed scheduler to the retained
// reference scan (earlierConflictRef) in two ways:
//
//   - TestScheduleIndexMatchesRef drives identical randomized request
//     streams — mixed kinds, colliding lines, multiple scopes and
//     modules, re-entrant completions that enqueue follow-up work —
//     through an indexed and a reference controller and requires the
//     observable outcomes (every completion tick, every counter, the
//     final clock and event count) to match exactly.
//   - TestScheduleIndexInvariant hooks the top of every indexed
//     scheduling pass and asserts that ready-heap membership equals
//     ¬earlierConflictRef for every queued entry.

// streamSpec describes one request of a randomized stream.
type streamSpec struct {
	kind  mem.ReqKind
	scope mem.ScopeID // NoScope for plain memory traffic
	line  mem.LineAddr
	chain *streamSpec // follow-up enqueued from Done (never chains further)
}

// randStream builds a conflict-heavy random request stream: few lines
// (heavy same-line collisions), few scopes, a PIM-op fraction, and some
// requests whose completion enqueues a follow-up (re-entrant Enqueue
// from inside Done callbacks).
func randStream(rng *rand.Rand, n int) []streamSpec {
	const scopes = 3
	specs := make([]streamSpec, n)
	var mk func(allowChain bool) streamSpec
	mk = func(allowChain bool) streamSpec {
		s := streamSpec{}
		r := rng.Intn(10)
		switch {
		case r < 3: // PIM op
			sc := mem.ScopeID(rng.Intn(scopes))
			s.kind = mem.ReqPIMOp
			s.scope = sc
			s.line = mem.LineOf(mem.DefaultPIMBase + mem.Addr(uint64(sc)*mem.DefaultScopeSize))
		case r < 8: // scoped load/store into a small colliding line pool
			sc := mem.ScopeID(rng.Intn(scopes))
			s.scope = sc
			s.line = mem.LineOf(mem.DefaultPIMBase +
				mem.Addr(uint64(sc)*mem.DefaultScopeSize+uint64(rng.Intn(4))*mem.LineSize))
			if rng.Intn(2) == 0 {
				s.kind = mem.ReqLoad
			} else {
				s.kind = mem.ReqWriteback
			}
		default: // plain (NoScope) traffic on its own colliding pool
			s.kind = mem.ReqLoad
			s.scope = mem.NoScope
			s.line = mem.LineAddr(uint64(rng.Intn(6)) * mem.LineSize)
		}
		if allowChain && s.kind != mem.ReqPIMOp && rng.Intn(4) == 0 {
			follow := mk(false)
			s.chain = &follow
		}
		return s
	}
	for i := range specs {
		specs[i] = mk(true)
	}
	return specs
}

// outcome is everything observable about one run of a stream.
type outcome struct {
	doneAt    []sim.Tick // per stream index (chained follow-ups offset by len)
	finalTick sim.Tick
	fired     uint64
	accepted, rejected, loads, writes, forwarded,
	opsExecuted uint64
}

func (o outcome) String() string {
	return fmt.Sprintf("final=%d fired=%d acc=%d rej=%d loads=%d writes=%d fwd=%d ops=%d done=%v",
		o.finalTick, o.fired, o.accepted, o.rejected, o.loads, o.writes, o.forwarded, o.opsExecuted, o.doneAt)
}

// runStream executes a stream on a fresh controller (reference or
// indexed, one or two PIM modules) and records the outcome. Requests are
// pumped through the bounded queue with OnSpace credits; Done callbacks
// of chained requests enqueue their follow-up through the same pump.
func runStream(t *testing.T, specs []streamSpec, ref bool, modules int, hook func(*Controller)) outcome {
	t.Helper()
	k := sim.NewKernel()
	k.EventLimit = 5_000_000
	b := mem.NewBacking()
	m := pim.NewModule(k, b)
	m.FixedOpLatency = 17
	m.CyclesPerMicroOp = 0
	m.BufferSize = 2
	c := New(k, mem.NewRequestPool(), m, b)
	for i := 1; i < modules; i++ {
		m2 := pim.NewModule(k, b)
		m2.FixedOpLatency = 29
		m2.CyclesPerMicroOp = 0
		m2.BufferSize = 2
		c.AddPIMModule(m2)
	}
	if ref {
		c.useReferenceScheduler()
	}
	c.QueueSize = 6
	if hook != nil {
		hook(c)
	}

	const never = ^sim.Tick(0)
	out := outcome{doneAt: make([]sim.Tick, 2*len(specs))}
	for i := range out.doneAt {
		out.doneAt[i] = never
	}
	var pending []*mem.Request
	build := func(s streamSpec, idx int) *mem.Request {
		req := &mem.Request{Kind: s.kind, Line: s.line, Scope: s.scope}
		if s.kind == mem.ReqPIMOp {
			req.Prog = &mem.PIMProgram{MicroOps: 1}
		}
		if s.kind == mem.ReqWriteback {
			req.Data = make([]byte, mem.LineSize)
			req.Data[0] = byte(idx)
		}
		return req
	}
	qi, pumping := 0, false
	var pump func()
	pump = func() {
		if pumping {
			return
		}
		pumping = true
		for qi < len(pending) && c.Enqueue(pending[qi]) {
			qi++
		}
		pumping = false
	}
	for i, s := range specs {
		i, s := i, s
		req := build(s, i)
		req.OnDone = func(*mem.Request, any) {
			out.doneAt[i] = k.Now()
			if s.chain != nil {
				fi := len(specs) + i
				follow := build(*s.chain, fi)
				follow.OnDone = func(*mem.Request, any) { out.doneAt[fi] = k.Now() }
				pending = append(pending, follow)
				pump()
			}
		}
		pending = append(pending, req)
	}
	c.OnSpace = pump
	pump()
	if _, err := k.Run(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
	if qi != len(pending) {
		t.Fatalf("only %d/%d requests admitted", qi, len(pending))
	}
	out.finalTick = k.Now()
	out.fired = k.Fired()
	out.accepted = c.Accepted.Value()
	out.rejected = c.Rejected.Value()
	out.loads = c.LoadsServed.Value()
	out.writes = c.WritesServed.Value()
	out.forwarded = c.PIMForwarded.Value()
	for _, mod := range c.PIMs {
		out.opsExecuted += mod.OpsExecuted.Value()
	}
	return out
}

func equalOutcomes(a, b outcome) bool {
	if a.finalTick != b.finalTick || a.fired != b.fired ||
		a.accepted != b.accepted || a.rejected != b.rejected ||
		a.loads != b.loads || a.writes != b.writes ||
		a.forwarded != b.forwarded || a.opsExecuted != b.opsExecuted {
		return false
	}
	for i := range a.doneAt {
		if a.doneAt[i] != b.doneAt[i] {
			return false
		}
	}
	return true
}

// TestScheduleIndexMatchesRef: the indexed scheduler and the reference
// scan must produce identical executions for random request streams.
func TestScheduleIndexMatchesRef(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		specs := randStream(rng, n)
		modules := 1 + int(seed%2)
		refOut := runStream(t, specs, true, modules, nil)
		idxOut := runStream(t, specs, false, modules, nil)
		if !equalOutcomes(refOut, idxOut) {
			t.Fatalf("seed %d (modules=%d): indexed diverged from reference\nref: %v\nidx: %v",
				seed, modules, refOut, idxOut)
		}
	}
}

// TestScheduleIndexInvariant: at the top of every indexed scheduling
// pass, ready-heap membership must equal the reference conflict scan's
// verdict for every queued entry, and the heap must hold exactly the
// ready entries.
func TestScheduleIndexInvariant(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		specs := randStream(rng, 10+rng.Intn(40))
		passes := 0
		hook := func(c *Controller) {
			c.onPass = func() {
				passes++
				readyCount := 0
				for e := c.qHead; e != nil; e = e.qNext {
					if e.state == stIssued {
						continue
					}
					want := !c.earlierConflictRef(e)
					got := e.state == stReady
					if want != got {
						t.Fatalf("seed %d: entry seq=%d %s: indexed ready=%v, reference says %v",
							seed, e.seq, e.req, got, want)
					}
					if got {
						readyCount++
					}
				}
				if len(c.ready) != readyCount {
					t.Fatalf("seed %d: heap holds %d entries, %d queued entries are ready",
						seed, len(c.ready), readyCount)
				}
			}
		}
		runStream(t, specs, false, 1, hook)
		if passes == 0 {
			t.Fatalf("seed %d: invariant hook never ran", seed)
		}
	}
}
