package cache

import (
	"testing"

	"bulkpim/internal/core"
	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
)

// Randomized mixes of loads, stores, PIM scans, flushes and fences must
// preserve the coherence invariants, the SBV of every array that has one
// and every array's payload-slot accounting at every step, and never lose
// data that reached its visibility point. The atomic rig has a scope unit
// at the LLC only; the scope-relaxed rig has one at every level.
func TestCoherenceInvariantsWithPIMScans(t *testing.T) {
	for _, model := range []core.Model{core.Atomic, core.ScopeRelaxed} {
		t.Run(model.String(), func(t *testing.T) { randomPIMMix(t, model) })
	}
}

func randomPIMMix(t *testing.T, model core.Model) {
	r := newRig(t, model, 3)
	rng := sim.NewRand(777)
	scopeOf := func(s int) mem.ScopeID { return mem.ScopeID(s % 4) }
	for step := 0; step < 500; step++ {
		switch rng.Intn(11) {
		case 0, 1: // PIM op with scan
			r.llc.Receive(pimReq(scopeOf(rng.Intn(4))))
			if _, err := r.k.Run(); err != nil {
				t.Fatal(err)
			}
		case 2: // flush a random scope line
			scope := scopeOf(rng.Intn(4))
			line := mem.LineOf(r.scopes.ScopeBase(scope) + mem.Addr(rng.Intn(64)*mem.LineSize))
			req := &mem.Request{Kind: mem.ReqFlush, Line: line, Core: 0}
			r.llc.Receive(req)
			if _, err := r.k.Run(); err != nil {
				t.Fatal(err)
			}
		case 3, 4, 5: // store into a scope
			scope := scopeOf(rng.Intn(4))
			line := mem.LineOf(r.scopes.ScopeBase(scope) + mem.Addr(rng.Intn(64)*mem.LineSize))
			r.storeVia(t, rng.Intn(3), line, rng.Intn(mem.LineSize), byte(step), uint64(step+1))
		case 6: // scope-fence: scan the issuing L1, then the LLC
			scope, coreID := scopeOf(rng.Intn(4)), rng.Intn(3)
			r.l1s[coreID].ScanFlushScope(scope)
			r.llc.Receive(&mem.Request{Kind: mem.ReqScopeFence, Scope: scope, Core: coreID})
			if _, err := r.k.Run(); err != nil {
				t.Fatal(err)
			}
		default: // load
			scope := scopeOf(rng.Intn(4))
			line := mem.LineOf(r.scopes.ScopeBase(scope) + mem.Addr(rng.Intn(64)*mem.LineSize))
			r.loadVia(t, rng.Intn(3), line)
		}
		if addr, bad := r.llc.CheckSWMR(); bad {
			t.Fatalf("step %d: SWMR violated at %#x", step, uint64(addr))
		}
		if addr, bad := r.llc.CheckInclusive(); bad {
			t.Fatalf("step %d: inclusivity violated at %#x", step, uint64(addr))
		}
		if err := r.llc.CheckSBV(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := r.checkSlots(); err != nil {
			t.Fatalf("step %d: payload slots: %v", step, err)
		}
	}
}

// After a PIM op's scan, no line of the scope remains in any cache and
// the scope buffer claims exactly that.
func TestScanPostconditionProperty(t *testing.T) {
	r := newRig(t, core.Store, 2)
	rng := sim.NewRand(31)
	for round := 0; round < 30; round++ {
		scope := mem.ScopeID(rng.Intn(4))
		// Populate some lines of the scope.
		for i := 0; i < 5; i++ {
			line := mem.LineOf(r.scopes.ScopeBase(scope) + mem.Addr(rng.Intn(32)*mem.LineSize))
			if rng.Intn(2) == 0 {
				r.storeVia(t, rng.Intn(2), line, 0, byte(round), uint64(round*10+i+1))
			} else {
				r.loadVia(t, rng.Intn(2), line)
			}
		}
		r.llc.Receive(pimReq(scope))
		if _, err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
		// Postcondition: nothing of the scope cached anywhere.
		base := r.scopes.ScopeBase(scope)
		for idx := 0; idx < 64; idx++ {
			line := mem.LineOf(base + mem.Addr(idx*mem.LineSize))
			if r.llc.HasLine(line) {
				t.Fatalf("round %d: scope %d line %#x survived the scan in LLC", round, scope, uint64(line))
			}
			for _, l1 := range r.l1s {
				if l1.HasLine(line) {
					t.Fatalf("round %d: scope %d line %#x survived in an L1", round, scope, uint64(line))
				}
			}
		}
	}
}

// Dirty data written before a scan must reach backing memory before the
// PIM op executes, for any random population (the atomicity guarantee).
func TestScanWritebackOrderingProperty(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		r := newRig(t, core.Atomic, 2)
		rng := sim.NewRand(seed)
		scope := mem.ScopeID(1)
		base := r.scopes.ScopeBase(scope)
		want := map[mem.Addr]byte{}
		for i := 0; i < 8; i++ {
			line := mem.LineOf(base + mem.Addr(rng.Intn(48)*mem.LineSize))
			v := byte(rng.Intn(255) + 1)
			r.storeVia(t, rng.Intn(2), line, 0, v, uint64(i+1))
			want[line.Addr()] = v
		}
		var mismatch int
		req := pimReq(scope)
		req.Prog.Apply = func(b *mem.Backing, _ mem.Addr, w uint64) {
			for a, v := range want {
				if b.ByteAt(a) != v {
					mismatch++
				}
			}
		}
		r.llc.Receive(req)
		if _, err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
		if mismatch != 0 {
			t.Fatalf("seed %d: PIM op observed %d stale lines", seed, mismatch)
		}
	}
}

// The LLC egress keeps per-scope FIFO order into the MC even under
// credit pressure.
func TestEgressOrderUnderPressure(t *testing.T) {
	r := newRig(t, core.Atomic, 1)
	r.mc.QueueSize = 2
	scope := mem.ScopeID(1)
	var order []string
	for i := 0; i < 6; i++ {
		req := pimReq(scope)
		name := string(rune('a' + i))
		req.Prog.Name = name
		req.Prog.Apply = func(b *mem.Backing, _ mem.Addr, w uint64) { order = append(order, name) }
		r.llc.Receive(req)
	}
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 6 {
		t.Fatalf("executed %d ops, want 6", len(order))
	}
	for i, n := range order {
		if n != string(rune('a'+i)) {
			t.Fatalf("same-scope PIM ops reordered: %v", order)
		}
	}
}
