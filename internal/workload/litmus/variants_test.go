package litmus

import (
	"testing"

	"bulkpim/internal/core"
)

// Message passing: under the atomic and store models the PIM op is
// ordered before the later flag store, so a reader that saw the flag must
// see the PIM output.
func TestMPStrictModelsSafe(t *testing.T) {
	for _, m := range []core.Model{core.Atomic, core.Store} {
		o, err := RunMessagePassing(m, false)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !o.Completed {
			t.Fatalf("%v: reader never saw the flag", m)
		}
		if o.Stale {
			t.Errorf("%v: PIM op reordered after the flag store", m)
		}
	}
}

// With the dedicated fences inserted, every proposed model guarantees the
// MP outcome.
func TestMPWithFencesAllModelsSafe(t *testing.T) {
	for _, m := range core.ProposedModels() {
		o, err := RunMessagePassing(m, true)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !o.Completed {
			t.Fatalf("%v: reader never saw the flag", m)
		}
		if o.Stale {
			t.Errorf("%v: stale data despite fences", m)
		}
	}
}

// Cross-scope PIM-PIM ordering: the atomic and store models keep program
// order between PIM ops of different scopes; the scope model restores it
// with the dedicated PIM fence (Table I).
func TestCrossScopeOrderingEnforced(t *testing.T) {
	cases := []struct {
		m     core.Model
		fence bool
	}{
		{core.Atomic, false},
		{core.Store, false},
		{core.Scope, true},
		{core.ScopeRelaxed, true},
	}
	for _, c := range cases {
		observed, completed, err := SweepCrossScope(c.m, c.fence, 6)
		if err != nil {
			t.Fatalf("%v: %v", c.m, err)
		}
		if completed == 0 {
			t.Fatalf("%v fence=%v: no run completed", c.m, c.fence)
		}
		if observed {
			t.Errorf("%v fence=%v: cross-scope PIM reorder observed; model forbids it", c.m, c.fence)
		}
	}
}

// The scope model WITHOUT the fence allows the reorder; the run must
// still complete (no hang), whether or not the reorder manifests.
func TestCrossScopeScopeModelUnfencedCompletes(t *testing.T) {
	_, completed, err := SweepCrossScope(core.Scope, false, 6)
	if err != nil {
		t.Fatal(err)
	}
	if completed == 0 {
		t.Fatal("no unfenced run completed")
	}
}
