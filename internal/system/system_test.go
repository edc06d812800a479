package system

import (
	"testing"

	"bulkpim/internal/core"
	"bulkpim/internal/cpu"
	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
)

func smallCfg(model core.Model) Config {
	cfg := Default()
	cfg.Model = model
	cfg.Cores = 2
	cfg.ScopeCount = 4
	cfg.Functional = true
	return cfg
}

// incProgram builds a PIM program that increments the byte at addr.
func incProgram(addr mem.Addr) *mem.PIMProgram {
	return &mem.PIMProgram{
		Name:     "inc",
		MicroOps: 8,
		Apply: func(b *mem.Backing, _ mem.Addr, w uint64) {
			b.SetByte(addr, b.ByteAt(addr)+1)
			b.SetWriter(mem.LineOf(addr), w)
		},
	}
}

func TestStoreFenceLoadRoundTrip(t *testing.T) {
	for _, model := range core.AllVariants() {
		s := New(smallCfg(model))
		addr := mem.Addr(0x1000)
		var got byte = 0xFF
		th := &cpu.SliceThread{Instrs: []cpu.Instr{
			{Kind: cpu.InstrStore, Addr: addr, Data: []byte{0x5A}},
			{Kind: cpu.InstrFenceFull},
			{Kind: cpu.InstrLoad, Addr: addr, OnData: func(_ mem.LineAddr, d []byte) { got = d[0] }},
		}}
		res, err := s.Run([]cpu.Thread{th})
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if got != 0x5A {
			t.Errorf("%v: load got %#x, want 0x5A", model, got)
		}
		if res.Cycles == 0 {
			t.Errorf("%v: zero run time", model)
		}
	}
}

// Store -> PIM op -> load to the same scope: the four proposed models must
// make the load observe the PIM op's output computed over the store
// (the scope-relaxed model with an explicit scope-fence).
func TestPIMOpOrderedWithSameScopeAccesses(t *testing.T) {
	for _, model := range core.ProposedModels() {
		s := New(smallCfg(model))
		scope := mem.ScopeID(1)
		addr := s.Scopes.ScopeBase(scope) + 128
		var got byte = 0xFF
		instrs := []cpu.Instr{
			{Kind: cpu.InstrStore, Addr: addr, Data: []byte{0x10}},
		}
		if model.NeedsScopeFence() {
			// Scope-relaxed: without fences the PIM op may legally reorder
			// with the same-scope store and load; fence on both sides.
			instrs = append(instrs, cpu.Instr{Kind: cpu.InstrScopeFence, Scope: scope})
		}
		instrs = append(instrs, cpu.Instr{Kind: cpu.InstrPIMOp, Scope: scope, Prog: incProgram(addr)})
		if model.NeedsScopeFence() {
			instrs = append(instrs, cpu.Instr{Kind: cpu.InstrScopeFence, Scope: scope})
		}
		instrs = append(instrs, cpu.Instr{
			Kind: cpu.InstrLoad, Addr: addr,
			OnData: func(_ mem.LineAddr, d []byte) { got = d[int(addr)%mem.LineSize] },
		})
		if _, err := s.Run([]cpu.Thread{&cpu.SliceThread{Instrs: instrs}}); err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if got != 0x11 {
			t.Errorf("%v: load got %#x, want 0x11 (store visible to PIM, PIM visible to load)", model, got)
		}
	}
}

// The naive baseline leaves the dirty store in the cache: the PIM op reads
// stale memory and the later load hits the pre-PIM cached value.
func TestNaiveBaselineObservesStaleData(t *testing.T) {
	s := New(smallCfg(core.Naive))
	scope := mem.ScopeID(1)
	addr := s.Scopes.ScopeBase(scope) + 128
	var got byte = 0xFF
	th := &cpu.SliceThread{Instrs: []cpu.Instr{
		{Kind: cpu.InstrStore, Addr: addr, Data: []byte{0x10}},
		{Kind: cpu.InstrPIMOp, Scope: scope, Prog: incProgram(addr)},
		{Kind: cpu.InstrCompute, Cycles: 5000}, // let the PIM op execute
		{Kind: cpu.InstrLoad, Addr: addr, OnData: func(_ mem.LineAddr, d []byte) { got = d[int(addr)%mem.LineSize] }},
	}}
	if _, err := s.Run([]cpu.Thread{th}); err != nil {
		t.Fatal(err)
	}
	if got == 0x11 {
		t.Error("naive baseline accidentally coherent; expected stale read")
	}
}

// Atomic model stalls the core until the ACK; scope-relaxed does not.
func TestAtomicStallsRelaxedDoesNot(t *testing.T) {
	elapsed := func(model core.Model) sim.Tick {
		s := New(smallCfg(model))
		th := &cpu.SliceThread{Instrs: []cpu.Instr{
			{Kind: cpu.InstrPIMOp, Scope: 1, Prog: &mem.PIMProgram{Name: "nop", MicroOps: 100}},
		}}
		res, err := s.Run([]cpu.Thread{th})
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		return res.Cycles
	}
	atomic := elapsed(core.Atomic)
	relaxed := elapsed(core.ScopeRelaxed)
	if atomic <= relaxed {
		t.Errorf("atomic retire %d should exceed scope-relaxed %d (ACK round trip)", atomic, relaxed)
	}
	// The ACK path is core->LLC->MC and back: at least 2 link latencies.
	if atomic < 20 {
		t.Errorf("atomic retire %d suspiciously fast", atomic)
	}
}

// Store model: a load to a different scope may complete while the PIM op
// awaits its ACK; a load to the same scope must wait.
func TestStoreModelLoadBypass(t *testing.T) {
	cfg := smallCfg(core.Store)
	// Slow the PIM path so the ACK is late.
	cfg.PIMFixedLatency = 2000
	s := New(cfg)
	scope := mem.ScopeID(1)
	other := s.Scopes.ScopeBase(2) + 64
	same := s.Scopes.ScopeBase(1) + 64
	var tOther, tSame, tAck sim.Tick

	// Observe ACK time via a second thread is overkill; instead record
	// the completion times and require other < same.
	th := &cpu.SliceThread{Instrs: []cpu.Instr{
		{Kind: cpu.InstrPIMOp, Scope: scope, Prog: &mem.PIMProgram{Name: "nop", MicroOps: 50}},
		{Kind: cpu.InstrLoad, Addr: other, OnData: func(_ mem.LineAddr, _ []byte) { tOther = s.K.Now() }},
		{Kind: cpu.InstrLoad, Addr: same, OnData: func(_ mem.LineAddr, _ []byte) { tSame = s.K.Now() }},
	}}
	if _, err := s.Run([]cpu.Thread{th}); err != nil {
		t.Fatal(err)
	}
	_ = tAck
	if tOther == 0 || tSame == 0 {
		t.Fatal("loads did not complete")
	}
	if tSame <= tOther {
		t.Errorf("same-scope load at %d should trail other-scope load at %d", tSame, tOther)
	}
}

// Scope model: PIM ops to different scopes issue concurrently; ops to one
// scope serialize on ACKs.
func TestScopeModelInterleavesScopes(t *testing.T) {
	cfg := smallCfg(core.Scope)
	s := New(cfg)
	var instrs []cpu.Instr
	for i := 0; i < 8; i++ {
		instrs = append(instrs, cpu.Instr{
			Kind: cpu.InstrPIMOp, Scope: mem.ScopeID(i % 4),
			Prog: &mem.PIMProgram{Name: "nop", MicroOps: 20},
		})
	}
	instrs = append(instrs, cpu.Instr{Kind: cpu.InstrFencePIM})
	res, err := s.Run([]cpu.Thread{&cpu.SliceThread{Instrs: instrs}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats["pim.ops_executed"]; got != 8 {
		t.Fatalf("executed %v PIM ops, want 8", got)
	}
	// With 4 scopes live the module should have seen scope diversity.
	if res.Stats["pim.unique_scopes_mean"] <= 0 && res.Stats["pim.buffer_len_mean"] > 0 {
		t.Error("no scope diversity recorded")
	}
}

func TestBurstReadsAndVerifies(t *testing.T) {
	s := New(smallCfg(core.Atomic))
	base := s.Scopes.ScopeBase(0)
	for i := 0; i < 256; i++ {
		s.Backing.SetByte(base+mem.Addr(i), byte(i))
	}
	seen := map[mem.LineAddr][]byte{}
	th := &cpu.SliceThread{Instrs: []cpu.Instr{
		{Kind: cpu.InstrLoadBurst, Burst: []cpu.BurstRange{{Start: base, Bytes: 256}},
			OnData: func(l mem.LineAddr, d []byte) {
				cp := make([]byte, len(d))
				copy(cp, d)
				seen[l] = cp
			}},
	}}
	if _, err := s.Run([]cpu.Thread{th}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("burst touched %d lines, want 4", len(seen))
	}
	for l, d := range seen {
		for i, b := range d {
			want := byte(int(l.Addr()-base) + i)
			if b != want {
				t.Fatalf("line %#x byte %d = %#x, want %#x", uint64(l), i, b, want)
			}
		}
	}
}

func TestBarrierSynchronizesThreads(t *testing.T) {
	s := New(smallCfg(core.Atomic))
	bar := cpu.NewBarrier(2)
	var order []int
	mk := func(id int, work sim.Tick) cpu.Thread {
		return &cpu.SliceThread{Instrs: []cpu.Instr{
			{Kind: cpu.InstrCompute, Cycles: work},
			{Kind: cpu.InstrBarrier, Barrier: bar},
			{Kind: cpu.InstrCompute, Cycles: 1,
				OnData: nil},
		}}
	}
	_ = order
	t0 := mk(0, 10)
	t1 := mk(1, 500)
	res, err := s.Run([]cpu.Thread{t0, t1})
	if err != nil {
		t.Fatal(err)
	}
	// Both threads must finish after the slow one's compute.
	if res.Cycles < 500 {
		t.Fatalf("run ended at %d, want >= 500 (barrier)", res.Cycles)
	}
	for _, c := range s.Cores[:2] {
		if c.FinishedAt < 500 {
			t.Fatalf("core %d finished at %d before the barrier released", c.ID, c.FinishedAt)
		}
	}
}

// Cross-thread coherence through the PIM region: thread 0 inserts a
// record (stores), thread 1 scans (PIM) after a barrier, then reads.
func TestCrossThreadInsertThenPIMScan(t *testing.T) {
	for _, model := range core.ProposedModels() {
		s := New(smallCfg(model))
		scope := mem.ScopeID(2)
		rec := s.Scopes.ScopeBase(scope) + 4096
		bar := cpu.NewBarrier(2)
		var got byte
		// The PIM program copies the record byte to a result address.
		result := s.Scopes.ScopeBase(scope) + 8192
		prog := &mem.PIMProgram{
			Name: "copy", MicroOps: 16,
			Apply: func(b *mem.Backing, _ mem.Addr, w uint64) {
				b.SetByte(result, b.ByteAt(rec))
				b.SetWriter(mem.LineOf(result), w)
			},
		}
		writer := &cpu.SliceThread{Instrs: []cpu.Instr{
			{Kind: cpu.InstrStore, Addr: rec, Data: []byte{0x7E}},
			{Kind: cpu.InstrFenceFull},
			{Kind: cpu.InstrBarrier, Barrier: bar},
		}}
		scanInstrs := []cpu.Instr{
			{Kind: cpu.InstrBarrier, Barrier: bar},
			{Kind: cpu.InstrPIMOp, Scope: scope, Prog: prog},
		}
		if model.NeedsScopeFence() {
			scanInstrs = append(scanInstrs, cpu.Instr{Kind: cpu.InstrScopeFence, Scope: scope})
		}
		scanInstrs = append(scanInstrs, cpu.Instr{
			Kind: cpu.InstrLoad, Addr: result,
			OnData: func(_ mem.LineAddr, d []byte) { got = d[int(result)%mem.LineSize] },
		})
		scanner := &cpu.SliceThread{Instrs: scanInstrs}
		if _, err := s.Run([]cpu.Thread{writer, scanner}); err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if got != 0x7E {
			t.Errorf("%v: scan result %#x, want 0x7E (insert must be flushed before the PIM op)", model, got)
		}
	}
}

// Many PIM ops from several threads with small buffers: no deadlock, all
// execute (failure-injection style stress).
func TestStressTinyBuffersAllModels(t *testing.T) {
	for _, model := range core.AllVariants() {
		cfg := smallCfg(model)
		cfg.PIMBufferSize = 1
		cfg.MCQueue = 2
		cfg.PIMCredits = 4
		s := New(cfg)
		s.K.EventLimit = 3_000_000
		mkThread := func(seed int) cpu.Thread {
			var instrs []cpu.Instr
			for i := 0; i < 25; i++ {
				scope := mem.ScopeID((seed + i) % 4)
				instrs = append(instrs, cpu.Instr{
					Kind: cpu.InstrPIMOp, Scope: scope,
					Prog: &mem.PIMProgram{Name: "nop", MicroOps: 5},
				})
				if i%5 == 0 {
					addr := s.Scopes.ScopeBase(scope) + mem.Addr(64*i)
					instrs = append(instrs, cpu.Instr{Kind: cpu.InstrStore, Addr: addr, Data: []byte{byte(i)}})
					instrs = append(instrs, cpu.Instr{Kind: cpu.InstrLoad, Addr: addr})
				}
			}
			if model.NeedsScopeFence() {
				for sc := 0; sc < 4; sc++ {
					instrs = append(instrs, cpu.Instr{Kind: cpu.InstrScopeFence, Scope: mem.ScopeID(sc)})
				}
			}
			instrs = append(instrs, cpu.Instr{Kind: cpu.InstrFenceFull})
			return &cpu.SliceThread{Instrs: instrs}
		}
		res, err := s.Run([]cpu.Thread{mkThread(0), mkThread(1)})
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if got := res.Stats["pim.ops_executed"]; got != 50 {
			t.Fatalf("%v: executed %v PIM ops, want 50", model, got)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() sim.Tick {
		s := New(smallCfg(core.Scope))
		var instrs []cpu.Instr
		for i := 0; i < 30; i++ {
			instrs = append(instrs, cpu.Instr{Kind: cpu.InstrPIMOp, Scope: mem.ScopeID(i % 4),
				Prog: &mem.PIMProgram{MicroOps: 10}})
			instrs = append(instrs, cpu.Instr{Kind: cpu.InstrLoad,
				Addr: s.Scopes.ScopeBase(mem.ScopeID(i%4)) + mem.Addr(i*64)})
		}
		instrs = append(instrs, cpu.Instr{Kind: cpu.InstrFenceFull})
		res, err := s.Run([]cpu.Thread{&cpu.SliceThread{Instrs: instrs}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}
