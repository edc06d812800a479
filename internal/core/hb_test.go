package core

import (
	"strings"
	"testing"

	"bulkpim/internal/mem"
)

const (
	lineA mem.LineAddr = 0x1000
	lineB mem.LineAddr = 0x2000
)

// TestFig1Cycle reproduces the paper's Fig. 1 scenario as recorded events:
// a PIM op writes A and B; another thread observes the new value of B and
// then the old value of A (a stale cache hit). The happens-before relation
// must be cyclic.
func TestFig1Cycle(t *testing.T) {
	r := NewRecorder(Store)

	// Thread 0: Write(A); MemFence; Write(B); MemFence; PIMop.
	wA := r.RecordOp(0, OpRef{Class: OpStore, Scope: 0, Line: lineA}, "W(A)=A0")
	r.RecordOp(0, OpRef{Class: OpFenceFull, Scope: mem.NoScope}, "fence")
	wB := r.RecordOp(0, OpRef{Class: OpStore, Scope: 0, Line: lineB}, "W(B)=B0")
	r.RecordOp(0, OpRef{Class: OpFenceFull, Scope: mem.NoScope}, "fence")
	pim := r.RecordOp(0, OpRef{Class: OpPIM, Scope: 0}, "PIMop")

	// Visibility order: W(A), W(B), then the PIM op rewrites both lines.
	r.RecordWrite(wA, lineA)
	r.RecordWrite(wB, lineB)
	r.RecordWrite(pim, lineA)
	r.RecordWrite(pim, lineB)

	// Thread 1: reads B twice (B0 then B1) and then reads A getting the
	// stale A0 from its cache.
	r1 := r.RecordOp(1, OpRef{Class: OpLoad, Scope: 0, Line: lineB}, "R(B)=B0")
	r.RecordRead(r1, lineB, wB)
	r2 := r.RecordOp(1, OpRef{Class: OpLoad, Scope: 0, Line: lineB}, "R(B)=B1")
	r.RecordRead(r2, lineB, pim)
	r3 := r.RecordOp(1, OpRef{Class: OpLoad, Scope: 0, Line: lineA}, "R(A)=A0 stale")
	r.RecordRead(r3, lineA, wA)

	c := r.FindCycle()
	if c == nil {
		t.Fatal("Fig. 1 execution must contain a happens-before cycle")
	}
	if s := c.String(); !strings.Contains(s, "->") {
		t.Fatalf("cycle rendering broken: %q", s)
	}
}

// TestFig1FixedByFlush shows the same run with a coherent final read
// (A1 from the PIM op, as the proposed models guarantee): acyclic.
func TestFig1FixedByFlush(t *testing.T) {
	r := NewRecorder(Store)
	wA := r.RecordOp(0, OpRef{Class: OpStore, Scope: 0, Line: lineA}, "W(A)")
	wB := r.RecordOp(0, OpRef{Class: OpStore, Scope: 0, Line: lineB}, "W(B)")
	pim := r.RecordOp(0, OpRef{Class: OpPIM, Scope: 0}, "PIMop")
	r.RecordWrite(wA, lineA)
	r.RecordWrite(wB, lineB)
	r.RecordWrite(pim, lineA)
	r.RecordWrite(pim, lineB)

	r1 := r.RecordOp(1, OpRef{Class: OpLoad, Scope: 0, Line: lineB}, "R(B)=B1")
	r.RecordRead(r1, lineB, pim)
	r2 := r.RecordOp(1, OpRef{Class: OpLoad, Scope: 0, Line: lineA}, "R(A)=A1")
	r.RecordRead(r2, lineA, pim)

	if c := r.FindCycle(); c != nil {
		t.Fatalf("coherent execution flagged cyclic: %v", c)
	}
}

// TestStoreBufferingAllowedByTSO: the classic SB litmus outcome
// (both loads read old values) is allowed under TSO because store->load
// reorders; the checker must not flag it.
func TestStoreBufferingAllowedByTSO(t *testing.T) {
	r := NewRecorder(Atomic)
	wA := r.RecordOp(0, OpRef{Class: OpStore, Scope: mem.NoScope, Line: lineA}, "W(A)")
	rb0 := r.RecordOp(0, OpRef{Class: OpLoad, Scope: mem.NoScope, Line: lineB}, "R(B)=init")
	wB := r.RecordOp(1, OpRef{Class: OpStore, Scope: mem.NoScope, Line: lineB}, "W(B)")
	ra1 := r.RecordOp(1, OpRef{Class: OpLoad, Scope: mem.NoScope, Line: lineA}, "R(A)=init")
	r.RecordWrite(wA, lineA)
	r.RecordWrite(wB, lineB)
	r.RecordRead(rb0, lineB, 0)
	r.RecordRead(ra1, lineA, 0)
	if c := r.FindCycle(); c != nil {
		t.Fatalf("TSO-legal store buffering flagged: %v", c)
	}
}

// TestStoreBufferingWithFencesForbidden: adding full fences between the
// store and load of each thread makes the relaxed outcome a violation.
func TestStoreBufferingWithFencesForbidden(t *testing.T) {
	r := NewRecorder(Atomic)
	wA := r.RecordOp(0, OpRef{Class: OpStore, Scope: mem.NoScope, Line: lineA}, "W(A)")
	r.RecordOp(0, OpRef{Class: OpFenceFull, Scope: mem.NoScope}, "fence")
	rb0 := r.RecordOp(0, OpRef{Class: OpLoad, Scope: mem.NoScope, Line: lineB}, "R(B)=init")
	wB := r.RecordOp(1, OpRef{Class: OpStore, Scope: mem.NoScope, Line: lineB}, "W(B)")
	r.RecordOp(1, OpRef{Class: OpFenceFull, Scope: mem.NoScope}, "fence")
	ra1 := r.RecordOp(1, OpRef{Class: OpLoad, Scope: mem.NoScope, Line: lineA}, "R(A)=init")
	r.RecordWrite(wA, lineA)
	r.RecordWrite(wB, lineB)
	r.RecordRead(rb0, lineB, 0)
	r.RecordRead(ra1, lineA, 0)
	if r.FindCycle() == nil {
		t.Fatal("fenced store buffering with both-old outcome must be cyclic")
	}
}

// TestScopeModelPIMLoadReorderAllowed: under the scope model, a load to
// another scope may be observed before an earlier PIM op; the same pattern
// is a violation under the atomic model.
func TestScopeModelPIMLoadReorderAllowed(t *testing.T) {
	build := func(m Model) *Recorder {
		r := NewRecorder(m)
		// Thread 0: PIM op on scope 0, then store to scope 1.
		pim := r.RecordOp(0, OpRef{Class: OpPIM, Scope: 0}, "PIM(s0)")
		st := r.RecordOp(0, OpRef{Class: OpStore, Scope: 1, Line: lineB}, "W(B,s1)")
		r.RecordWrite(st, lineB)
		r.RecordWrite(pim, lineA)
		// Thread 1: sees the store, then reads scope 0 pre-PIM.
		r1 := r.RecordOp(1, OpRef{Class: OpLoad, Scope: 1, Line: lineB}, "R(B)=new")
		r.RecordRead(r1, lineB, st)
		r2 := r.RecordOp(1, OpRef{Class: OpLoad, Scope: 0, Line: lineA}, "R(A)=init")
		r.RecordRead(r2, lineA, 0)
		return r
	}
	if c := build(Scope).FindCycle(); c != nil {
		t.Fatalf("scope model should allow PIM/other-scope reorder: %v", c)
	}
	if build(Atomic).FindCycle() == nil {
		t.Fatal("atomic model must forbid PIM/store reorder")
	}
}

func TestRecorderEventAccessors(t *testing.T) {
	r := NewRecorder(Atomic)
	id := r.RecordOp(2, OpRef{Class: OpStore, Line: lineA}, "w")
	ev := r.Event(id)
	if ev.Thread != 2 || ev.Label != "w" || ev.Op.Class != OpStore {
		t.Fatalf("event = %+v", ev)
	}
}
