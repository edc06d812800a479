package ycsb

import (
	"testing"

	"bulkpim/internal/core"
	"bulkpim/internal/system"
)

// Regression: a stale scheduled burst poll used to spuriously resume a
// core waiting at a barrier, desynchronizing the 8-thread run of Fig. 13
// into a deadlock. Token-guarded resumes fixed it.
func TestEightThreadBarrierRegression(t *testing.T) {
	p := DefaultParams(500000)
	p.Operations = 16
	p.Threads = 8
	p.Seed = 1
	w := New(p)
	cfg := system.Default()
	cfg.Model = core.Naive
	cfg.Cores = 16
	_, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// Regression: under the scope model a PIM op queued behind a younger
// same-scope store deadlocked. The op waited for the store buffer to hold
// no store to its scope, and the store buffer held that (younger) store
// because a PIM op to its scope was pending. Each gate now counts only
// older operations: stores older than the op, ops older than the store.
func TestScopeModelYoungerStoreDeadlockRegression(t *testing.T) {
	for _, seed := range []uint64{1, 3, 4} {
		p := DefaultParams(100_000)
		p.Operations = 64
		p.ScanFraction = 0.5
		p.Seed = seed
		cfg := system.Default()
		cfg.Model = core.Scope
		if _, err := Run(New(p), cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
