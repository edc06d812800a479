package memctrl

import (
	"testing"

	"bulkpim/internal/mem"
	"bulkpim/internal/pim"
	"bulkpim/internal/sim"
)

// TestScheduleSteadyStateAllocFree pins the controller's steady-state
// request path at zero allocations: once the entry free list, request
// pool, wheel buckets and DRAM pages are warm, admitting and draining a
// conflict-heavy load/writeback stream must not allocate. PIM ops are
// excluded — their command payloads are deliberately unpooled.
func TestScheduleSteadyStateAllocFree(t *testing.T) {
	k := sim.NewKernel()
	bk := mem.NewBacking()
	m := pim.NewModule(k, bk)
	c := New(k, mem.NewRequestPool(), m, bk)
	c.QueueSize = 32
	pool := c.Pool

	const n = 256
	qi := 0
	pumping := false
	pump := func() {
		if pumping {
			return
		}
		pumping = true
		for qi < n {
			r := pool.Get()
			r.Kind = mem.ReqLoad
			r.Scope = mem.ScopeID(qi % 4)
			if qi%3 == 0 {
				r.Kind = mem.ReqWriteback
			}
			r.Line = mem.LineOf(mem.DefaultPIMBase +
				mem.Addr(uint64(qi%4)*mem.DefaultScopeSize+uint64(qi%8)*mem.LineSize))
			if !c.Enqueue(r) {
				pool.Put(r)
				break
			}
			qi++
		}
		pumping = false
	}
	c.OnSpace = pump
	drain := func() {
		qi = 0
		pump()
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if qi != n || c.QueueLen() != 0 {
			t.Fatalf("stream not drained: admitted %d/%d, queue %d", qi, n, c.QueueLen())
		}
	}
	// Warm every pool and first-touch structure. Several rounds are needed:
	// each lands on a different phase of the kernel's timing wheel, and a
	// bucket only reaches its steady-state capacity the first time a round
	// passes over it.
	for i := 0; i < 8; i++ {
		drain()
	}
	if avg := testing.AllocsPerRun(5, drain); avg != 0 {
		t.Errorf("steady-state scheduling allocates %.2f allocs/run, want 0", avg)
	}
}
