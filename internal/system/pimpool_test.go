package system_test

import (
	"reflect"
	"testing"

	"bulkpim/internal/core"
	"bulkpim/internal/cpu"
	"bulkpim/internal/mem"
	"bulkpim/internal/system"
	"bulkpim/internal/workload/tpch"
	"bulkpim/internal/workload/ycsb"
)

// runBalanced runs threads on a machine built for cfg and checks that
// every request the run drew from the shared pool went back to it. A
// second release of one request would have panicked in the pool. A
// request released too early would be reused while in flight, so the
// run must also match the same point run with pooling off. It reports,
// over the run's PIM ops, how many the module completed before their ACK
// reached the core and how many were ACKed first.
func runBalanced(t *testing.T, name string, cfg system.Config, threads func(*system.System) []cpu.Thread) (doneFirst, ackFirst int) {
	t.Helper()
	s := system.New(cfg)
	for _, m := range s.PIMs {
		complete := m.OnComplete
		m.OnComplete = func(r *mem.Request) {
			// The request is live until both ends have passed; the core
			// marks the ACK's end in the low bit of Arg.
			if r.Arg&1 != 0 {
				ackFirst++
			} else {
				doneFirst++
			}
			complete(r)
		}
	}
	res, err := s.Run(threads(s))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if p := s.MC.Pool; p.Gets != p.Puts {
		t.Errorf("%s: %d requests drawn from the pool, %d returned", name, p.Gets, p.Puts)
	}
	if got := doneFirst + ackFirst; float64(got) != res.Stats["pim.ops_executed"] || got == 0 {
		t.Errorf("%s: saw %d PIM completions, the module executed %v ops", name, got, res.Stats["pim.ops_executed"])
	}
	s.Release()

	cfg.NoPooling = true
	u := system.New(cfg)
	want, err := u.Run(threads(u))
	if err != nil {
		t.Fatalf("%s unpooled: %v", name, err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("%s: pooled run differs from the unpooled one:\n got  %+v\n want %+v", name, res, want)
	}
	return doneFirst, ackFirst
}

// Every PIM request goes back to the pool exactly once, at the later of
// its two ends, under every run mode and both workloads. With zero
// execution latency the module finishes an op before its ACK crosses
// the network; with the default latency the ACK wins.
func TestPIMRequestsReturnToPool(t *testing.T) {
	q, _ := tpch.QueryByName("q12")
	tw := tpch.NewWorkload(q, 4, 0.01, false)
	p := ycsb.DefaultParams(20_000)
	p.Operations = 8
	yw := ycsb.New(p)
	for _, m := range core.AllVariants() {
		cfg := system.Default()
		cfg.Model = m
		if _, ackFirst := runBalanced(t, "tpch/"+m.String(), tw.SystemConfig(cfg), tw.BuildThreads); ackFirst == 0 {
			t.Errorf("%v, default latency: no PIM op was ACKed before the module completed it", m)
		}
		runBalanced(t, "ycsb/"+m.String(), yw.SystemConfig(cfg), yw.Threads)
		cfg.PIMZeroLatency = true
		if doneFirst, _ := runBalanced(t, "tpch/"+m.String()+"/zero-latency", tw.SystemConfig(cfg), tw.BuildThreads); doneFirst == 0 {
			t.Errorf("%v, zero latency: no PIM op completed before its ACK arrived", m)
		}
	}
}
