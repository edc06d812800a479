package core

import (
	"testing"
	"testing/quick"

	"bulkpim/internal/mem"
)

func op(c OpClass, scope mem.ScopeID, line mem.LineAddr) OpRef {
	return OpRef{Class: c, Scope: scope, Line: line}
}

func TestModelStringsRoundTrip(t *testing.T) {
	for _, m := range AllVariants() {
		got, err := ParseModel(m.String())
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip %v -> %v", m, got)
		}
	}
	if _, err := ParseModel("bogus"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestModelProperties(t *testing.T) {
	cases := []struct {
		m            Model
		correct, ack bool
		flushLLC     bool
		allCaches    bool
	}{
		{Naive, false, false, false, false},
		{SWFlush, false, false, false, false},
		{Uncacheable, false, false, false, false},
		{Atomic, true, true, true, false},
		{Store, true, true, true, false},
		{Scope, true, true, true, false},
		{ScopeRelaxed, true, false, true, true},
	}
	for _, c := range cases {
		if c.m.GuaranteesCorrectness() != c.correct {
			t.Errorf("%v correctness", c.m)
		}
		if c.m.RequiresACK() != c.ack {
			t.Errorf("%v ack", c.m)
		}
		if c.m.FlushesLLCOnPIMOp() != c.flushLLC {
			t.Errorf("%v flush", c.m)
		}
		if c.m.ScopeStructuresInAllCaches() != c.allCaches {
			t.Errorf("%v all caches", c.m)
		}
	}
	if !ScopeRelaxed.NeedsScopeFence() || Atomic.NeedsScopeFence() {
		t.Error("scope fence requirement wrong")
	}
	if !Scope.NeedsPIMFence() || !ScopeRelaxed.NeedsPIMFence() || Store.NeedsPIMFence() {
		t.Error("PIM fence requirement wrong")
	}
	if len(TableI()) != 4 {
		t.Error("Table I must have four rows")
	}
}

func TestTSOBaseRules(t *testing.T) {
	// Host-only pairs follow x86-TSO under every model.
	for _, m := range AllVariants() {
		ld := op(OpLoad, 0, 0x100)
		st := op(OpStore, 0, 0x200)
		stSame := op(OpStore, 0, 0x100)
		if MayReorder(m, ld, ld) {
			t.Errorf("%v: load-load must not reorder", m)
		}
		if MayReorder(m, ld, st) {
			t.Errorf("%v: load-store must not reorder", m)
		}
		if MayReorder(m, st, stSame) {
			t.Errorf("%v: store-store must not reorder", m)
		}
		if !MayReorder(m, st, ld) {
			t.Errorf("%v: store-load to different lines must reorder (TSO)", m)
		}
		if MayReorder(m, stSame, ld) {
			t.Errorf("%v: store-load to same line must not reorder", m)
		}
	}
}

func TestAtomicModelOrdersEverything(t *testing.T) {
	pim := op(OpPIM, 3, 0)
	others := []OpRef{
		op(OpLoad, 3, 0x100), op(OpLoad, 7, 0x200),
		op(OpStore, 3, 0x100), op(OpStore, 7, 0x200),
		op(OpPIM, 3, 0), op(OpPIM, 7, 0),
	}
	for _, o := range others {
		if MayReorder(Atomic, pim, o) || MayReorder(Atomic, o, pim) {
			t.Errorf("atomic: PIM reordered with %v", o)
		}
	}
}

func TestStoreModelRules(t *testing.T) {
	pim := op(OpPIM, 3, 0)
	// Later load to another scope may bypass the PIM op (store->load).
	if !MayReorder(Store, pim, op(OpLoad, 7, 0x200)) {
		t.Error("store model: PIM->load other scope should reorder")
	}
	// Same scope: never.
	if MayReorder(Store, pim, op(OpLoad, 3, 0x100)) {
		t.Error("store model: PIM->load same scope must not reorder")
	}
	// Load before PIM keeps order (load->store).
	if MayReorder(Store, op(OpLoad, 7, 0x200), pim) {
		t.Error("store model: load->PIM must not reorder")
	}
	// Stores and other PIM ops: ordered (store-store).
	if MayReorder(Store, pim, op(OpStore, 7, 0x200)) || MayReorder(Store, op(OpStore, 7, 0x200), pim) {
		t.Error("store model: PIM/store must not reorder")
	}
	if MayReorder(Store, pim, op(OpPIM, 7, 0)) {
		t.Error("store model: PIM/PIM must not reorder")
	}
}

func TestScopeModelRules(t *testing.T) {
	pim := op(OpPIM, 3, 0)
	// Anything in another scope reorders, loads and stores and PIM ops.
	for _, o := range []OpRef{op(OpLoad, 7, 0x200), op(OpStore, 7, 0x200), op(OpPIM, 7, 0)} {
		if !MayReorder(Scope, pim, o) || !MayReorder(Scope, o, pim) {
			t.Errorf("scope model: PIM should reorder with other-scope %v", o)
		}
	}
	// Same scope: strictly ordered.
	for _, o := range []OpRef{op(OpLoad, 3, 0x100), op(OpStore, 3, 0x100), op(OpPIM, 3, 0)} {
		if MayReorder(Scope, pim, o) || MayReorder(Scope, o, pim) {
			t.Errorf("scope model: PIM must not reorder with same-scope %v", o)
		}
	}
}

func TestScopeRelaxedRules(t *testing.T) {
	pim := op(OpPIM, 3, 0)
	for _, o := range []OpRef{op(OpLoad, 3, 0x100), op(OpStore, 3, 0x100), op(OpPIM, 3, 0), op(OpLoad, 7, 0x200)} {
		if !MayReorder(ScopeRelaxed, pim, o) {
			t.Errorf("scope-relaxed: PIM should reorder with %v", o)
		}
	}
	// But not with fences.
	if MayReorder(ScopeRelaxed, pim, op(OpFenceFull, mem.NoScope, 0)) {
		t.Error("scope-relaxed: PIM must not cross a full fence")
	}
	if MayReorder(ScopeRelaxed, pim, op(OpFenceScope, 3, 0)) {
		t.Error("scope-relaxed: PIM must not cross a same-scope scope-fence")
	}
	if !MayReorder(ScopeRelaxed, pim, op(OpFenceScope, 7, 0)) {
		t.Error("scope-relaxed: PIM should cross another scope's scope-fence")
	}
	if MayReorder(ScopeRelaxed, pim, op(OpFencePIM, mem.NoScope, 0)) {
		t.Error("scope-relaxed: PIM must not cross a PIM fence")
	}
	// Scope-fence orders same-scope loads too.
	if MayReorder(ScopeRelaxed, op(OpFenceScope, 3, 0), op(OpLoad, 3, 0x100)) {
		t.Error("scope-fence must order same-scope loads")
	}
	if !MayReorder(ScopeRelaxed, op(OpFenceScope, 3, 0), op(OpLoad, 7, 0x100)) {
		t.Error("scope-fence must be transparent to other scopes")
	}
	// PIM fence is transparent to plain loads/stores.
	if !MayReorder(ScopeRelaxed, op(OpFencePIM, mem.NoScope, 0), op(OpLoad, 7, 0x100)) {
		t.Error("PIM fence should not order plain loads")
	}
}

func TestFullFenceOrdersAll(t *testing.T) {
	fence := op(OpFenceFull, mem.NoScope, 0)
	for _, m := range AllVariants() {
		for _, o := range []OpRef{op(OpLoad, 3, 0), op(OpStore, 3, 0), op(OpPIM, 3, 0)} {
			if MayReorder(m, fence, o) || MayReorder(m, o, fence) {
				t.Errorf("%v: %v crossed a full fence", m, o)
			}
		}
	}
}

// Property: strictness is monotone — whenever the scope model forbids a
// reorder involving a PIM op, the store model forbids it too, and whenever
// store forbids it, atomic forbids it.
func TestModelStrictnessMonotone(t *testing.T) {
	classes := []OpClass{OpLoad, OpStore, OpPIM}
	prop := func(c1, c2, s1, s2 uint8) bool {
		a := op(classes[int(c1)%3], mem.ScopeID(s1%4), mem.LineAddr(uint64(s1%4)<<21))
		b := op(classes[int(c2)%3], mem.ScopeID(s2%4), mem.LineAddr(uint64(s2%4)<<21+64))
		if a.Class != OpPIM && b.Class != OpPIM {
			return true
		}
		relaxOrder := []Model{Atomic, Store, Scope, ScopeRelaxed}
		prev := false // MayReorder under stricter model
		for _, m := range relaxOrder {
			cur := MayReorder(m, a, b)
			if prev && !cur {
				return false // stricter model allowed what a more relaxed one forbids
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
