package ycsb

import (
	"testing"

	"bulkpim/internal/core"
	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
	"bulkpim/internal/system"
)

func TestZipfRangeAndSkew(t *testing.T) {
	z := NewZipf(1000, 0.99)
	r := sim.NewRand(5)
	counts := make([]int, 1000)
	for i := 0; i < 50000; i++ {
		v := z.Next(r)
		if v >= 1000 {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[500]*2 {
		t.Fatalf("no skew: item0=%d item500=%d", counts[0], counts[500])
	}
}

func TestZipfDeterministic(t *testing.T) {
	z1, z2 := NewZipf(5000, 0.99), NewZipf(5000, 0.99)
	r1, r2 := sim.NewRand(9), sim.NewRand(9)
	for i := 0; i < 1000; i++ {
		if z1.Next(r1) != z2.Next(r2) {
			t.Fatal("zipf nondeterministic")
		}
	}
}

func TestWorkloadGeneration(t *testing.T) {
	p := DefaultParams(100000)
	p.Operations = 400
	w := New(p)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	scans, inserts := w.Ops()
	if scans+inserts != 400 {
		t.Fatal("op count")
	}
	// 95/5 split within tolerance.
	if inserts < 5 || inserts > 60 {
		t.Fatalf("inserts = %d, expected ~20", inserts)
	}
	// 100000 records / 32256 per scope -> 4 scopes.
	if w.Scopes != 4 {
		t.Fatalf("scopes = %d, want 4", w.Scopes)
	}
}

// New rejects a scan length below 1 and a database smaller than the
// longest scan, whose scan-base range Records-MaxScanRecords would wrap
// below zero.
func TestNewRejectsBadScanParams(t *testing.T) {
	for _, tc := range []struct{ records, maxScan int }{{1000, 0}, {1000, -1}, {99, 100}, {1, 2}} {
		p := DefaultParams(tc.records)
		p.MaxScanRecords = tc.maxScan
		func() {
			defer func() {
				if r := recover(); r != "ycsb: bad params" {
					t.Errorf("New(Records %d, MaxScanRecords %d) panicked with %v, want \"ycsb: bad params\"",
						tc.records, tc.maxScan, r)
				}
			}()
			New(p)
		}()
	}
	p := DefaultParams(100)
	if err := New(p).Validate(); err != nil { // Records == MaxScanRecords is allowed
		t.Fatal(err)
	}
}

func TestPositionIsBijective(t *testing.T) {
	p := DefaultParams(10000)
	w := New(p)
	seen := make(map[int]bool, p.Records)
	for k := uint64(0); k < uint64(p.Records); k++ {
		pos := w.Position(k)
		if pos < 0 || pos >= p.Records {
			t.Fatalf("position %d out of range", pos)
		}
		if seen[pos] {
			t.Fatalf("collision at %d", pos)
		}
		seen[pos] = true
	}
}

func TestMatchesCoverScanRange(t *testing.T) {
	p := DefaultParams(100000)
	p.Operations = 50
	w := New(p)
	for _, op := range w.ops {
		if op.kind != opScan {
			continue
		}
		total := 0
		for s := 0; s < w.Scopes; s++ {
			total += len(w.matchesInScope(op, mem.ScopeID(s)))
		}
		if total != int(op.count) {
			t.Fatalf("scan [%d,+%d): %d matches, want %d", op.base, op.count, total, op.count)
		}
	}
}

// smallParams keeps functional runs fast: a couple of scopes, few ops.
func smallParams(ops int) Params {
	p := DefaultParams(2000)
	p.Operations = ops
	p.Threads = 2
	p.Verify = true
	p.Seed = 3
	return p
}

// The four proposed consistency models must execute the workload with zero
// verification failures: every scan reads exactly the oracle's result
// bit-vectors and field bytes, including after inserts.
func TestFunctionalCorrectnessProposedModels(t *testing.T) {
	if testing.Short() {
		t.Skip("functional PIM execution is slow")
	}
	w := New(smallParams(8))
	for _, model := range core.ProposedModels() {
		cfg := system.Default()
		cfg.Model = model
		cfg.Cores = 2
		res, err := Run(w, cfg)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if res.Violations != 0 {
			t.Errorf("%v: %d verification failures, want 0", model, res.Violations)
		}
		if res.Stats["pim.ops_executed"] == 0 {
			t.Errorf("%v: no PIM ops executed", model)
		}
	}
}

// The naive baseline must exhibit stale reads (its scans hit cached result
// lines from previous scans).
func TestFunctionalNaiveViolates(t *testing.T) {
	if testing.Short() {
		t.Skip("functional PIM execution is slow")
	}
	w := New(smallParams(6))
	cfg := system.Default()
	cfg.Model = core.Naive
	cfg.Cores = 2
	res, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Error("naive baseline produced no violations; coherence must be broken without flushes")
	}
}

// SW-Flush keeps data MOSTLY coherent (the software flushes what it
// cached) but cannot guarantee ordering: a result read can overtake a PIM
// op in the reorder network. The paper's point (§I) is exactly that this
// window exists; it must be far rarer than the naive baseline's wholesale
// staleness, but it need not be zero.
func TestFunctionalSWFlushNarrowerThanNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("functional PIM execution is slow")
	}
	w := New(smallParams(6))
	runModel := func(m core.Model) uint64 {
		cfg := system.Default()
		cfg.Model = m
		cfg.Cores = 2
		res, err := Run(w, cfg)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		return res.Violations
	}
	naive := runModel(core.Naive)
	swflush := runModel(core.SWFlush)
	if naive == 0 {
		t.Fatal("naive baseline produced no violations")
	}
	if swflush*5 > naive {
		t.Errorf("swflush violations %d not well below naive %d", swflush, naive)
	}
}

// Timing-only smoke run at a larger scale for every variant.
func TestTimingRunAllModels(t *testing.T) {
	p := DefaultParams(200000)
	p.Operations = 6
	p.Threads = 4
	p.Verify = false
	w := New(p)
	var base sim.Tick
	for _, model := range core.AllVariants() {
		cfg := system.Default()
		cfg.Model = model
		res, err := Run(w, cfg)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if res.Cycles == 0 {
			t.Fatalf("%v: zero cycles", model)
		}
		if model == core.Naive {
			base = res.Cycles
		}
		if res.Stats["cpu.pim_issued"] == 0 {
			t.Fatalf("%v: no PIM ops issued", model)
		}
	}
	if base == 0 {
		t.Fatal("baseline missing")
	}
}
