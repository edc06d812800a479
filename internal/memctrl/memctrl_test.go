package memctrl

import (
	"testing"

	"bulkpim/internal/mem"
	"bulkpim/internal/pim"
	"bulkpim/internal/sim"
)

func setup() (*sim.Kernel, *mem.Backing, *pim.Module, *Controller) {
	k := sim.NewKernel()
	b := mem.NewBacking()
	m := pim.NewModule(k, b)
	m.FixedOpLatency = 500
	m.CyclesPerMicroOp = 0
	c := New(k, mem.NewRequestPool(), m, b)
	c.Functional = true
	return k, b, m, c
}

func load(line mem.LineAddr, scope mem.ScopeID) *mem.Request {
	return &mem.Request{Kind: mem.ReqLoad, Line: line, Scope: scope}
}

func pimop(scope mem.ScopeID) *mem.Request {
	return &mem.Request{Kind: mem.ReqPIMOp, Scope: scope,
		Prog: &mem.PIMProgram{}}
}

func TestLoadReadsBacking(t *testing.T) {
	k, b, _, c := setup()
	b.WriteWord(64, 1234)
	req := load(64, mem.NoScope)
	var doneAt sim.Tick
	req.OnDone = func(*mem.Request, any) { doneAt = k.Now() }
	if !c.Enqueue(req) {
		t.Fatal("enqueue failed")
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != c.DRAMLatency {
		t.Fatalf("load done at %d, want %d", doneAt, c.DRAMLatency)
	}
	if req.Data == nil || b.ReadWord(64) != 1234 {
		t.Fatal("load data missing")
	}
}

func TestWritebackWritesBacking(t *testing.T) {
	k, b, _, c := setup()
	data := make([]byte, mem.LineSize)
	data[0] = 0xAA
	req := &mem.Request{Kind: mem.ReqWriteback, Line: 128, Data: data, Writer: 5}
	b.TrackWriters = true
	c.Enqueue(req)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if b.ByteAt(128) != 0xAA {
		t.Fatal("writeback not applied")
	}
	if b.WriterOf(128) != 5 {
		t.Fatal("writer not recorded")
	}
}

func TestPartialStore(t *testing.T) {
	k, b, _, c := setup()
	b.Write(64, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	req := &mem.Request{Kind: mem.ReqStore, Line: 64, Data: []byte{0xFF, 0xEE}, Off: 2, Size: 2}
	c.Enqueue(req)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	b.Read(64, got)
	want := []byte{1, 2, 0xFF, 0xEE, 5, 6, 7, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("partial store: got %v, want %v", got, want)
		}
	}
}

func TestPIMOpGetsACKOnAccept(t *testing.T) {
	k, _, _, c := setup()
	var ackAt sim.Tick = 999999
	c.SendACK = func(r *mem.Request) { ackAt = k.Now() }
	c.Enqueue(pimop(1))
	if ackAt != 0 {
		t.Fatalf("ACK at %d, want immediately on accept", ackAt)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// A load to a scope must wait for an earlier-arrived PIM op to that scope
// to finish executing in the PIM module (data dependence, §V-A).
func TestLoadWaitsForEarlierSameScopePIM(t *testing.T) {
	k, _, m, c := setup()
	scopeLine := mem.LineAddr(mem.DefaultPIMBase)
	p := pimop(2)
	var pimDone sim.Tick
	m.OnComplete = func(r *mem.Request) { pimDone = k.Now(); c.pimCompleted(r) }
	// note: New() wired OnComplete to pimCompleted; rewire preserving it.
	c.Enqueue(p)
	ld := load(scopeLine, 2)
	var loadDone sim.Tick
	ld.OnDone = func(*mem.Request, any) { loadDone = k.Now() }
	c.Enqueue(ld)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if pimDone == 0 || loadDone == 0 {
		t.Fatal("ops did not complete")
	}
	if loadDone < pimDone+c.DRAMLatency {
		t.Fatalf("load done %d, pim done %d: load overtook the PIM op", loadDone, pimDone)
	}
}

// A load to a DIFFERENT scope proceeds in parallel with a PIM op.
func TestLoadToOtherScopeBypassesPIM(t *testing.T) {
	k, _, _, c := setup()
	c.Enqueue(pimop(2))
	ld := load(64, 3)
	var loadDone sim.Tick
	ld.OnDone = func(*mem.Request, any) { loadDone = k.Now() }
	c.Enqueue(ld)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if loadDone != c.DRAMLatency {
		t.Fatalf("other-scope load done at %d, want %d", loadDone, c.DRAMLatency)
	}
}

// A PIM op waits for every earlier same-scope operation (here a writeback
// that must land in the array before the op executes).
func TestPIMWaitsForEarlierSameScopeWrite(t *testing.T) {
	k, b, m, c := setup()
	m.Functional = true
	line := mem.LineAddr(mem.DefaultPIMBase)
	data := make([]byte, mem.LineSize)
	data[0] = 7
	wb := &mem.Request{Kind: mem.ReqWriteback, Line: line, Scope: 2, Data: data}
	var observed byte = 0xFF
	p := pimop(2)
	p.Prog.Apply = func(bk *mem.Backing, _ mem.Addr, w uint64) { observed = bk.ByteAt(mem.Addr(line)) }
	c.Enqueue(wb)
	c.Enqueue(p)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if observed != 7 {
		t.Fatalf("PIM op saw %d; the writeback must complete first", observed)
	}
	_ = b
}

// Same-line accesses execute in arrival order.
func TestSameLineOrdering(t *testing.T) {
	k, b, _, c := setup()
	line := mem.LineAddr(64)
	st := &mem.Request{Kind: mem.ReqWriteback, Line: line, Data: func() []byte {
		d := make([]byte, mem.LineSize)
		d[0] = 42
		return d
	}()}
	ld := load(line, mem.NoScope)
	var got byte
	ld.OnDone = func(*mem.Request, any) { got = ld.Data[0] }
	c.Enqueue(st)
	c.Enqueue(ld)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("load got %d, want 42 (must not pass earlier same-line write)", got)
	}
	_ = b
}

func TestQueueFullRejects(t *testing.T) {
	k, _, _, c := setup()
	c.QueueSize = 2
	if !c.Enqueue(load(0, mem.NoScope)) || !c.Enqueue(load(64, mem.NoScope)) {
		t.Fatal("first two should fit")
	}
	if c.Enqueue(load(128, mem.NoScope)) {
		t.Fatal("third must be rejected")
	}
	if c.Rejected.Value() != 1 {
		t.Fatal("rejected counter wrong")
	}
	spaces := 0
	c.OnSpace = func() { spaces++ }
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if spaces == 0 {
		t.Fatal("OnSpace never fired")
	}
}

// Bank parallelism: two loads to different banks overlap; two to the same
// bank serialize on the bank busy window.
func TestBankParallelism(t *testing.T) {
	k, _, _, c := setup()
	var t1, t2, t3 sim.Tick
	a := load(0, mem.NoScope)                                // bank 0
	b := load(64, mem.NoScope)                               // bank 1
	s := load(mem.LineAddr(uint64(c.Banks)*64), mem.NoScope) // bank 0 again
	a.OnDone = func(*mem.Request, any) { t1 = k.Now() }
	b.OnDone = func(*mem.Request, any) { t2 = k.Now() }
	s.OnDone = func(*mem.Request, any) { t3 = k.Now() }
	c.Enqueue(a)
	c.Enqueue(b)
	c.Enqueue(s)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if t1 != c.DRAMLatency || t2 != c.DRAMLatency {
		t.Fatalf("different banks should overlap: %d %d", t1, t2)
	}
	if t3 != c.BankBusy+c.DRAMLatency {
		t.Fatalf("same bank load at %d, want %d", t3, c.BankBusy+c.DRAMLatency)
	}
}

// PIM ops stuck in a full PIM buffer occupy MC queue slots (back-pressure).
func TestBackpressurePropagates(t *testing.T) {
	k, _, m, c := setup()
	m.BufferSize = 1
	m.FixedOpLatency = 10000
	c.QueueSize = 4
	// One op executes, one sits in the module buffer, the rest pile up in
	// the MC queue.
	for i := 0; i < 6; i++ {
		c.Enqueue(pimop(1))
	}
	if c.QueueLen() != 4 {
		t.Fatalf("MC queue length %d, want 4 (full)", c.QueueLen())
	}
	if c.PIMForwarded.Value() != 2 {
		t.Fatalf("forwarded %d PIM ops before run, want 2 (1 executing + 1 buffered)", c.PIMForwarded.Value())
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.PIMForwarded.Value() != 6 {
		t.Fatalf("forwarded %d PIM ops, want all 6 eventually", c.PIMForwarded.Value())
	}
	if m.OpsExecuted.Value() != 6 {
		t.Fatalf("executed %d, want 6", m.OpsExecuted.Value())
	}
}

// An out-of-order module completion (possible only with a foreign module
// implementation — the bundled module serializes per scope) must clear
// exactly the op that finished: younger memops stay gated on the older
// op still outstanding, instead of being released by a blind head pop.
func TestPimCompletedOutOfOrder(t *testing.T) {
	k, _, m, c := setup()
	var completed []*mem.Request
	m.OnComplete = func(r *mem.Request) { completed = append(completed, r) } // intercept
	a, b := pimop(2), pimop(2)
	c.Enqueue(a)
	c.Enqueue(b)
	ld := load(mem.LineAddr(mem.DefaultPIMBase), 2)
	loadDone := false
	ld.OnDone = func(*mem.Request, any) { loadDone = true }
	c.Enqueue(ld)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(completed) != 2 || completed[0] != a || completed[1] != b {
		t.Fatalf("module completed %d ops, want [a b]", len(completed))
	}
	if loadDone {
		t.Fatal("load completed while both PIM ops are uncleared")
	}
	// Complete b first — out of arrival order.
	c.pimCompleted(b)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if loadDone {
		t.Fatal("load must stay gated on the older outstanding PIM op")
	}
	c.pimCompleted(a)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !loadDone {
		t.Fatal("load never completed after both PIM ops cleared")
	}
}

// A completion for a request the controller never forwarded is a
// protocol violation and must not silently pop someone else's
// dependence.
func TestPimCompletedUnknownPanics(t *testing.T) {
	_, _, m, c := setup()
	m.OnComplete = func(r *mem.Request) {} // intercept
	c.Enqueue(pimop(2))
	defer func() {
		if recover() == nil {
			t.Fatal("pimCompleted for an unknown request must panic")
		}
	}()
	c.pimCompleted(pimop(2)) // same scope, but never enqueued
}

// No deadlock with the smallest possible buffers.
func TestNoDeadlockTinyBuffers(t *testing.T) {
	k, _, m, c := setup()
	m.BufferSize = 1
	c.QueueSize = 1
	k.EventLimit = 100000
	completed := 0
	var queue []*mem.Request
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			queue = append(queue, pimop(mem.ScopeID(i%3)))
		} else {
			r := load(mem.LineAddr(uint64(i)*64), mem.NoScope)
			r.OnDone = func(*mem.Request, any) { completed++ }
			queue = append(queue, r)
		}
	}
	idx, pumping := 0, false
	pump := func() {
		if pumping {
			return
		}
		pumping = true
		for idx < len(queue) && c.Enqueue(queue[idx]) {
			idx++
		}
		pumping = false
	}
	c.OnSpace = pump
	pump()
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if completed != 10 {
		t.Fatalf("completed %d loads, want 10", completed)
	}
	if c.QueueLen() != 0 {
		t.Fatal("queue not drained")
	}
}
