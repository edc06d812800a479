package pim

import (
	"fmt"
	"testing"

	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
)

// BenchmarkModule / BenchmarkModuleRef drain the same stream through the
// per-scope FIFO Module and the retained scan-based refModule. OnSpace
// refills the buffer as ops start, so it stays at its full 128 ops over
// 64 scopes and the reference pays a 128-op rescan (and a scope-set
// rebuild) on every arrival and completion, where Module touches only
// the scopes that changed. bench.yml gates the pair's speedup at >= 3x
// via cmd/benchjson.

const (
	benchModuleOps    = 4096
	benchModuleScopes = 64
	benchModuleBuffer = 128
	// benchModuleAlign is a multiple of the kernel's wheel size.
	benchModuleAlign sim.Tick = 1 << 16
)

// newModuleBenchRig builds one implementation on its own kernel and
// returns a function that drains the benchmark stream through it once.
// The kernel, module and requests are reused across drains, so repeated
// drains measure the steady state.
func newModuleBenchRig(build buildModule) func() error {
	k := sim.NewKernel()
	reqs := make([]*mem.Request, benchModuleOps)
	rng := uint64(0x9E3779B97F4A7C15)
	for i := range reqs {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		s := mem.ScopeID(rng % benchModuleScopes)
		reqs[i] = &mem.Request{ID: uint64(i), Kind: mem.ReqPIMOp, Scope: s,
			Prog: &mem.PIMProgram{MicroOps: int(rng>>32) % 8}}
	}
	qi, pumping := 0, false
	var m moduleUnderTest
	pump := func() {
		if pumping {
			return
		}
		pumping = true
		for qi < len(reqs) && m.TryEnqueue(reqs[qi]) {
			qi++
		}
		pumping = false
	}
	m, _ = build(k, moduleConfig{
		bufferSize:       benchModuleBuffer,
		fixedOpLatency:   100,
		cyclesPerMicroOp: 10,
		onSpace:          pump,
	})
	return func() error {
		// Start every drain on the same phase of the kernel's timing
		// wheel, so each drain reuses the buckets exactly as the last one
		// sized them: a no-op event moves the clock there.
		k.ScheduleAtCtx((k.Now()/benchModuleAlign+1)*benchModuleAlign, func(any) {}, nil)
		if _, err := k.Run(); err != nil {
			return err
		}
		qi = 0
		pump()
		if _, err := k.Run(); err != nil {
			return err
		}
		if qi != len(reqs) || m.InFlight() != 0 {
			return fmt.Errorf("stream not drained: admitted %d/%d, %d in flight", qi, len(reqs), m.InFlight())
		}
		return nil
	}
}

func runModuleBench(b *testing.B, build buildModule) {
	drain := newModuleBenchRig(build)
	if err := drain(); err != nil { // warm the slab, tables and kernel
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := drain(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchModuleOps)*float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
}

func BenchmarkModule(b *testing.B)    { runModuleBench(b, buildLive) }
func BenchmarkModuleRef(b *testing.B) { runModuleBench(b, buildRef) }
