package bulkpim

// A timing-only machine moves no payload bytes: DRAM reads, store
// buffers and cache fills carry line data only when Config.Functional is
// set. These tests pin that the bytes never feed back into timing.

import (
	"reflect"
	"testing"

	"bulkpim/internal/cpu"
	"bulkpim/internal/system"
	"bulkpim/internal/workload/tpch"
	"bulkpim/internal/workload/ycsb"
)

// samePayloadTiming fails unless two runs of one point agree on cycles,
// drain cycles and every stat except violations, which only a verifying
// run can count.
func samePayloadTiming(t *testing.T, point string, timing, functional system.Result) {
	t.Helper()
	if timing.Cycles != functional.Cycles || timing.DrainCycles != functional.DrainCycles {
		t.Errorf("%s: cycles %d/%d, drain %d/%d (timing-only/functional)",
			point, timing.Cycles, functional.Cycles, timing.DrainCycles, functional.DrainCycles)
	}
	ts, fs := map[string]float64{}, map[string]float64{}
	for k, v := range timing.Stats {
		ts[k] = v
	}
	for k, v := range functional.Stats {
		fs[k] = v
	}
	delete(ts, "violations")
	delete(fs, "violations")
	if !reflect.DeepEqual(ts, fs) {
		t.Errorf("%s: stats differ\ntiming-only: %v\nfunctional:  %v", point, ts, fs)
	}
}

// runPayloads runs one point on a machine built for cfg with payloads on
// or off. With payloads on, the PIM modules still execute programs for
// timing only: their functional execution rewrites whole arrays in
// Backing, which costs a verifying run almost all of its time and moves
// nothing through the caches.
func runPayloads(cfg system.Config, functional bool, threads func(*system.System) []cpu.Thread) (system.Result, error) {
	cfg.Functional = functional
	s := system.New(cfg)
	for _, m := range s.PIMs {
		m.Functional = false
	}
	return s.Run(threads(s))
}

// TestPayloadDifferential runs each point twice, with payloads and
// without, and requires identical timing. It covers every variant on two
// write-heavy YCSB mixes, whose inserts leave dirty lines for recalls,
// flushes and writebacks to carry, and on two small TPC-H queries. One
// YCSB and one TPC-H point also run fully verified.
func TestPayloadDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	var writes float64
	for _, seed := range []uint64{3, 4} {
		p := ycsb.DefaultParams(100_000)
		p.Operations = 48
		p.ScanFraction = 0.5
		p.Seed = seed
		w := ycsb.New(p)
		for _, m := range AllVariants() {
			cfg := system.Default()
			cfg.Model = m
			cfg = w.SystemConfig(cfg)
			var res [2]system.Result
			for i, functional := range []bool{false, true} {
				r, err := runPayloads(cfg, functional, w.Threads)
				if err != nil {
					t.Fatalf("ycsb seed %d %v (functional %v): %v", seed, m, functional, err)
				}
				res[i] = r
			}
			samePayloadTiming(t, "ycsb "+m.String(), res[0], res[1])
			writes += res[0].Stats["mc.writes"]
		}
	}
	if writes == 0 {
		t.Fatal("the YCSB mixes wrote nothing back to memory: dirty recalls and writebacks went unexercised")
	}

	for _, name := range []string{"q11", "q17"} {
		q, ok := tpch.QueryByName(name)
		if !ok {
			t.Fatalf("no query %s", name)
		}
		w := tpch.NewWorkload(q, 4, 0.01, false)
		for _, m := range AllVariants() {
			cfg := system.Default()
			cfg.Model = m
			cfg = w.SystemConfig(cfg)
			var res [2]system.Result
			for i, functional := range []bool{false, true} {
				r, err := runPayloads(cfg, functional, w.BuildThreads)
				if err != nil {
					t.Fatalf("%s %v (functional %v): %v", name, m, functional, err)
				}
				res[i] = r
			}
			samePayloadTiming(t, name+" "+m.String(), res[0], res[1])
		}
	}

	// Fully verified runs, PIM execution and read checks included.
	p := ycsb.DefaultParams(100_000)
	p.Operations = 8
	p.ScanFraction = 0.5
	p.Seed = 3
	vp := p
	vp.Verify = true
	cfg := system.Default()
	cfg.Model = Scope
	tr, err := ycsb.Run(ycsb.New(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := ycsb.Run(ycsb.New(vp), cfg)
	if err != nil {
		t.Fatal(err)
	}
	samePayloadTiming(t, "verified ycsb Scope", tr, fr)
	if fr.Violations != 0 {
		t.Errorf("verified ycsb Scope: %d violations", fr.Violations)
	}
	q, _ := tpch.QueryByName("q11")
	cfg.Model = SWFlush
	tr, err = tpch.Run(tpch.NewWorkload(q, 4, 0.01, false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fr, err = tpch.Run(tpch.NewWorkload(q, 4, 0.01, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	samePayloadTiming(t, "verified q11 SWFlush", tr, fr)
}

// TestTimingOnlyMovesNoPayload runs a timing-only YCSB point and a
// TPC-H point to completion and checks, before the machine is released,
// that no payload byte was ever materialized: Backing allocated no page
// and no cache's payload arena grew a block.
func TestTimingOnlyMovesNoPayload(t *testing.T) {
	p := ycsb.DefaultParams(100_000)
	p.Operations = 32
	p.ScanFraction = 0.5
	yw := ycsb.New(p)
	q, _ := tpch.QueryByName("q17")
	tw := tpch.NewWorkload(q, 4, 0.01, false)
	for _, pt := range []struct {
		name    string
		cfg     func(system.Config) system.Config
		threads func(*system.System) []cpu.Thread
		writes  bool // the point writes dirty lines back
	}{
		{"ycsb", yw.SystemConfig, yw.Threads, true},
		{"q17", tw.SystemConfig, tw.BuildThreads, false},
	} {
		cfg := system.Default()
		cfg.Model = Atomic
		s := system.New(pt.cfg(cfg))
		res, err := s.Run(pt.threads(s))
		if err != nil {
			t.Fatalf("%s: %v", pt.name, err)
		}
		if res.Stats["mc.loads"] == 0 || pt.writes && res.Stats["mc.writes"] == 0 {
			t.Fatalf("%s: %v loads, %v writes: the point moved no lines", pt.name, res.Stats["mc.loads"], res.Stats["mc.writes"])
		}
		if n := s.Backing.PagesAllocated(); n != 0 {
			t.Errorf("%s: Backing allocated %d pages", pt.name, n)
		}
		if n := s.LLC.PayloadBlocks(); n != 0 {
			t.Errorf("%s: LLC payload arena grew %d blocks", pt.name, n)
		}
		for i, l1 := range s.L1s {
			if n := l1.PayloadBlocks(); n != 0 {
				t.Errorf("%s: L1 %d payload arena grew %d blocks", pt.name, i, n)
			}
		}
		s.Release()
	}
}
