package litmus

import (
	"runtime"
	"testing"
	"unsafe"

	"bulkpim/internal/cache"
	"bulkpim/internal/core"
	"bulkpim/internal/sim"
	"bulkpim/internal/system"
)

// The SW-Flush baseline must exhibit the Fig. 1 violation for some
// adversary timing: a stale read of A after observing the PIM-written B,
// and a cycle in the happens-before relation.
func TestFig1SWFlushVulnerable(t *testing.T) {
	outs, err := SweepFig1(core.SWFlush, DefaultSweep())
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	for _, o := range outs {
		if o.Completed {
			completed++
		}
	}
	if completed == 0 {
		t.Fatal("checker never completed under swflush")
	}
	stale, cycle := Vulnerable(outs)
	if !stale {
		t.Error("swflush: no adversary timing produced a stale read; Fig. 1 not reproduced")
	}
	if !cycle {
		t.Error("swflush: no happens-before cycle detected")
	}
}

// The four proposed models must be invulnerable at EVERY adversary timing.
func TestFig1ProposedModelsSafe(t *testing.T) {
	for _, model := range core.ProposedModels() {
		outs, err := SweepFig1(model, DefaultSweep())
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		for _, o := range outs {
			if !o.Completed {
				t.Errorf("%v delay=%d: checker never observed the PIM value", model, o.AdversaryDelay)
				continue
			}
			if o.StaleRead {
				t.Errorf("%v delay=%d: STALE READ (A=%d after B=%d)", model, o.AdversaryDelay, o.ValueA, o.ValueB)
			}
			if o.Cycle != nil {
				t.Errorf("%v delay=%d: happens-before cycle: %v", model, o.AdversaryDelay, o.Cycle)
			}
		}
	}
}

// The naive baseline breaks differently: the writer's stores are never
// flushed, so the PIM op computes on stale memory and/or the checker polls
// the writer's dirty copy forever.
func TestFig1NaiveBroken(t *testing.T) {
	outs, err := SweepFig1(core.Naive, []sim.Tick{0, 400, 800, 1200})
	if err != nil {
		t.Fatal(err)
	}
	broken := false
	for _, o := range outs {
		if !o.Completed || o.StaleRead || o.Cycle != nil {
			broken = true
		}
	}
	if !broken {
		t.Error("naive baseline behaved correctly in Fig. 1; expected breakage")
	}
}

// A litmus run releases its machine, so the next run is built from its
// buffers: after fresh free lists and one Fig. 1 run, a second run
// allocates less than the one fresh LLC line array (2048 sets x 4 ways
// of cache.Line) that an unreleased machine would leave it to allocate.
// Scope-relaxed puts a scope unit in every L1 too, so each release also
// checks the L1s' SBVs against their lines.
func TestFig1ReusesReleasedMachine(t *testing.T) {
	sim.DropFreeLists()
	if _, err := RunFig1(core.ScopeRelaxed, 0); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := RunFig1(core.ScopeRelaxed, 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	fresh := uint64(system.Default().LLCSets * 4 * int(unsafe.Sizeof(cache.Line{})))
	if got := after.TotalAlloc - before.TotalAlloc; got >= fresh {
		t.Fatalf("second Fig. 1 run allocated %d B, want < %d B (a fresh LLC line array)", got, fresh)
	}
}
