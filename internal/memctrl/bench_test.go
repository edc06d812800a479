package memctrl

import (
	"testing"

	"bulkpim/internal/mem"
	"bulkpim/internal/pim"
	"bulkpim/internal/sim"
)

// BenchmarkSchedule / BenchmarkScheduleRef drain the same deep,
// conflict-heavy request stream through the indexed scheduler and the
// retained linear-scan reference. The stream keeps the admission queue
// pinned at QueueSize — many requests colliding on a small line pool,
// with periodic PIM ops gating whole scopes — so the reference pays its
// O(queue²) conflict re-scan on every pass while the indexed scheduler
// touches only ready work. bench.yml gates the pair's speedup at >= 3x
// via cmd/benchjson.

const (
	benchReqs      = 1536
	benchQueueSize = 192
	benchScopes    = 4
	benchLines     = 6 // lines per scope; ~64 requests collide per line
)

// benchStream builds the deterministic request stream: within each scope
// a PIM op every 16 requests (gating the scope), the rest loads and
// writebacks over benchLines colliding lines, plus unscoped traffic.
func benchStream() []*mem.Request {
	reqs := make([]*mem.Request, 0, benchReqs)
	rng := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for i := 0; i < benchReqs; i++ {
		switch {
		case i%16 == 7: // PIM op
			sc := mem.ScopeID(next(benchScopes))
			reqs = append(reqs, &mem.Request{
				Kind:  mem.ReqPIMOp,
				Scope: sc,
				Line:  mem.LineOf(mem.DefaultPIMBase + mem.Addr(uint64(sc)*mem.DefaultScopeSize)),
				Prog:  &mem.PIMProgram{MicroOps: 1},
			})
		case i%5 == 0: // unscoped traffic on its own colliding pool
			reqs = append(reqs, &mem.Request{
				Kind: mem.ReqLoad,
				Line: mem.LineAddr(uint64(next(benchLines)) * mem.LineSize),
			})
		default: // scoped loads/writebacks on few lines
			sc := mem.ScopeID(next(benchScopes))
			kind := mem.ReqLoad
			if i%3 == 0 {
				kind = mem.ReqWriteback
			}
			reqs = append(reqs, &mem.Request{
				Kind:  kind,
				Scope: sc,
				Line: mem.LineOf(mem.DefaultPIMBase +
					mem.Addr(uint64(sc)*mem.DefaultScopeSize+uint64(next(benchLines))*mem.LineSize)),
			})
		}
	}
	return reqs
}

func runScheduleBench(b *testing.B, ref bool) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := sim.NewKernel()
		bk := mem.NewBacking()
		m := pim.NewModule(k, bk)
		m.FixedOpLatency = 300
		m.CyclesPerMicroOp = 0
		m.BufferSize = 16
		c := New(k, mem.NewRequestPool(), m, bk)
		if ref {
			c.useReferenceScheduler()
		}
		c.QueueSize = benchQueueSize
		reqs := benchStream()
		qi, pumping := 0, false
		pump := func() {
			if pumping {
				return
			}
			pumping = true
			for qi < len(reqs) && c.Enqueue(reqs[qi]) {
				qi++
			}
			pumping = false
		}
		c.OnSpace = pump
		b.StartTimer()
		pump()
		if _, err := k.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if qi != len(reqs) || c.QueueLen() != 0 {
			b.Fatalf("stream not drained: admitted %d/%d, queue %d", qi, len(reqs), c.QueueLen())
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(benchReqs)*float64(b.N)/b.Elapsed().Seconds(), "reqs/sec")
}

func BenchmarkSchedule(b *testing.B)    { runScheduleBench(b, false) }
func BenchmarkScheduleRef(b *testing.B) { runScheduleBench(b, true) }
