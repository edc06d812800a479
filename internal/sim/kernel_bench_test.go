package sim

import "testing"

// BenchmarkKernel measures steady-state scheduler throughput on a mix
// modeled after the simulation's real event population: a few thousand
// events in flight, most delays short, frequent same-tick cascades. The
// events/sec metric feeds BENCH_sim_throughput.json.
func BenchmarkKernel(b *testing.B) {
	const inflight = 4096
	k := NewKernel()
	rng := NewRand(1)
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		delay := rng.Uint64n(16)
		if rng.Uint64n(4) == 0 {
			delay = 0 // same-tick cascade, the FIFO fast path
		}
		k.ScheduleCtx(Tick(delay), callFn, tick)
	}
	for i := 0; i < inflight && remaining > 0; i++ {
		remaining--
		k.ScheduleCtx(Tick(rng.Uint64n(16)), callFn, tick)
	}
	b.ResetTimer()
	if _, err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(k.Fired())/b.Elapsed().Seconds(), "events/sec")
}
