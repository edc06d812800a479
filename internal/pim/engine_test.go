package pim

import (
	"testing"
	"testing/quick"

	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
)

func testGeom() Geometry { return Geometry{Rows: 8, Cols: mem.LineSize * 8, Arrays: 2} }

func TestGeometryDefaultTilesScope(t *testing.T) {
	g := DefaultGeometry()
	g.Validate(mem.DefaultScopeSize) // panics on failure
	if g.Rows*g.Arrays*mem.LineSize != mem.DefaultScopeSize {
		t.Fatal("default geometry does not tile a 2MB scope")
	}
}

func TestGeometryValidateRejects(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Geometry{Rows: 100, Cols: 512, Arrays: 3}.Validate(mem.DefaultScopeSize)
}

func TestGeometryLineOf(t *testing.T) {
	g := DefaultGeometry()
	base := mem.DefaultPIMBase
	if g.LineOf(base, 0, 0) != mem.LineOf(base) {
		t.Fatal("array 0 row 0 should be the scope base line")
	}
	// Array stride is Rows lines.
	l0 := g.LineOf(base, 1, 0)
	if l0.Index()-mem.LineOf(base).Index() != uint64(g.Rows) {
		t.Fatal("array stride wrong")
	}
}

func TestArrayImageBits(t *testing.T) {
	b := mem.NewBacking()
	img := LoadArray(b, 0, testGeom(), 0)
	img.SetBit(3, 100, true)
	if !img.Bit(3, 100) || img.Bit(3, 101) || img.Bit(2, 100) {
		t.Fatal("bit set/get wrong")
	}
	img.Store(b, 42)
	img2 := LoadArray(b, 0, testGeom(), 0)
	if !img2.Bit(3, 100) {
		t.Fatal("store/load round trip lost bit")
	}
}

func TestArrayImageStoreOnlyDirtyRows(t *testing.T) {
	b := mem.NewBacking()
	b.TrackWriters = true
	g := testGeom()
	img := LoadArray(b, 0, g, 0)
	img.SetBit(2, 0, true)
	img.Store(b, 7)
	if b.WriterOf(g.LineOf(0, 0, 2)) != 7 {
		t.Fatal("dirty row writer missing")
	}
	if b.WriterOf(g.LineOf(0, 0, 3)) != 0 {
		t.Fatal("clean row should not be written")
	}
}

func TestColOps(t *testing.T) {
	b := mem.NewBacking()
	img := LoadArray(b, 0, testGeom(), 0)
	// Row r: col0 = r&1, col1 = r&2.
	for r := 0; r < 8; r++ {
		img.SetBit(r, 0, r&1 != 0)
		img.SetBit(r, 1, r&2 != 0)
	}
	img.ColOp(OpAND, 2, 0, 1)
	img.ColOp(OpOR, 3, 0, 1)
	img.ColOp(OpXOR, 4, 0, 1)
	img.ColOp(OpNOR, 5, 0, 1)
	img.ColOp(OpNOR, 6, 0, 0) // NOT
	img.ColOp(OpAND, 7, 0, 0) // copy
	for r := 0; r < 8; r++ {
		x, y := r&1 != 0, r&2 != 0
		if img.Bit(r, 2) != (x && y) || img.Bit(r, 3) != (x || y) ||
			img.Bit(r, 4) != (x != y) || img.Bit(r, 5) != !(x || y) ||
			img.Bit(r, 6) != !x || img.Bit(r, 7) != x {
			t.Fatalf("row %d column ops wrong", r)
		}
	}
}

func TestFieldBERoundTrip(t *testing.T) {
	b := mem.NewBacking()
	img := LoadArray(b, 0, testGeom(), 0)
	img.SetFieldBE(5, 10, 16, 0xBEEF)
	if got := img.FieldBE(5, 10, 16); got != 0xBEEF {
		t.Fatalf("field = %#x, want 0xBEEF", got)
	}
}

func TestTransposeColToRow(t *testing.T) {
	b := mem.NewBacking()
	img := LoadArray(b, 0, testGeom(), 0)
	for r := 0; r < 8; r++ {
		img.SetBit(r, 9, r%3 == 0)
	}
	// The gather's transpose: column 9's packed plane is row 7's bits.
	p := make([]uint64, img.PlaneWords())
	img.LoadPlane(9, p)
	img.SetRowBits(7, p, 8)
	for i := 0; i < 8; i++ {
		if img.Bit(7, i) != (i%3 == 0) {
			t.Fatalf("transpose bit %d wrong", i)
		}
	}
}

// Property: the bit-serial comparator matches integer comparison for every
// predicate, width and operand pair.
func TestCmpConstMatchesIntegers(t *testing.T) {
	g := testGeom()
	preds := []Predicate{PredEQ, PredNE, PredLT, PredLE, PredGT, PredGE}
	prop := func(vals [8]uint16, k uint16, p uint8) bool {
		pred := preds[int(p)%len(preds)]
		b := mem.NewBacking()
		img := LoadArray(b, 0, g, 0)
		const width = 16
		for r := 0; r < 8; r++ {
			img.SetFieldBE(r, 0, width, uint64(vals[r]))
		}
		micro := img.CmpConst(pred, 0, width, uint64(k), 100, 101, 102)
		if micro != CmpMicroOps(pred, width, uint64(k)) {
			return false
		}
		for r := 0; r < 8; r++ {
			if img.Bit(r, 100) != pred.Eval(uint64(vals[r]), uint64(k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPredicateEval(t *testing.T) {
	if !PredLE.Eval(3, 3) || PredLT.Eval(3, 3) || !PredGE.Eval(3, 3) || PredGT.Eval(3, 3) {
		t.Fatal("boundary predicates wrong")
	}
	if PredEQ.String() != "==" || PredGE.String() != ">=" {
		t.Fatal("strings wrong")
	}
}

func TestModuleExecutesAndAppliesFunctionally(t *testing.T) {
	k := sim.NewKernel()
	b := mem.NewBacking()
	m := NewModule(k, b)
	m.Functional = true
	applied := false
	req := &mem.Request{
		Kind:  mem.ReqPIMOp,
		Scope: 3,
		Prog: &mem.PIMProgram{
			Name: "t", MicroOps: 10,
			Apply: func(bk *mem.Backing, _ mem.Addr, w uint64) {
				applied = true
				bk.WriteWord(0, 99)
			},
		},
	}
	var completed []mem.ScopeID
	m.OnComplete = func(r *mem.Request) { completed = append(completed, r.Scope) }
	if !m.TryEnqueue(req) {
		t.Fatal("enqueue failed")
	}
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !applied || b.ReadWord(0) != 99 {
		t.Fatal("program not applied")
	}
	want := m.FixedOpLatency + 10*m.CyclesPerMicroOp
	if end != want {
		t.Fatalf("completion at %d, want %d", end, want)
	}
	if len(completed) != 1 || completed[0] != 3 {
		t.Fatal("completion callback wrong")
	}
}

func TestModuleSameScopeSerializesDifferentScopesParallel(t *testing.T) {
	k := sim.NewKernel()
	m := NewModule(k, mem.NewBacking())
	m.FixedOpLatency = 100
	m.CyclesPerMicroOp = 0
	var done []struct {
		scope mem.ScopeID
		at    sim.Tick
	}
	m.OnComplete = func(r *mem.Request) {
		done = append(done, struct {
			scope mem.ScopeID
			at    sim.Tick
		}{r.Scope, k.Now()})
	}
	mk := func(s mem.ScopeID) *mem.Request {
		return &mem.Request{Kind: mem.ReqPIMOp, Scope: s,
			Prog: &mem.PIMProgram{MicroOps: 0}}
	}
	// Two ops to scope 1, one to scope 2, all at t=0.
	m.TryEnqueue(mk(1))
	m.TryEnqueue(mk(1))
	m.TryEnqueue(mk(2))
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	byScope := map[mem.ScopeID][]sim.Tick{}
	for _, d := range done {
		byScope[d.scope] = append(byScope[d.scope], d.at)
	}
	if len(byScope[1]) != 2 || byScope[1][0] != 100 || byScope[1][1] != 200 {
		t.Fatalf("scope 1 completions %v, want [100 200] (serialized)", byScope[1])
	}
	if len(byScope[2]) != 1 || byScope[2][0] != 100 {
		t.Fatalf("scope 2 completion %v, want [100] (parallel)", byScope[2])
	}
}

func TestModuleBoundedBufferBackpressure(t *testing.T) {
	k := sim.NewKernel()
	m := NewModule(k, mem.NewBacking())
	m.BufferSize = 2
	m.FixedOpLatency = 50
	spaces := 0
	m.OnSpace = func() { spaces++ }
	mk := func(s mem.ScopeID) *mem.Request {
		return &mem.Request{Kind: mem.ReqPIMOp, Scope: s,
			Prog: &mem.PIMProgram{}}
	}
	// Scope 1 executes immediately (buffer drains); fill buffer with
	// same-scope ops that must wait.
	if !m.TryEnqueue(mk(1)) || !m.TryEnqueue(mk(1)) || !m.TryEnqueue(mk(1)) {
		t.Fatal("first three enqueues should fit (one starts immediately)")
	}
	if m.TryEnqueue(mk(1)) {
		t.Fatal("buffer should be full")
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m.BufferLen() != 0 || m.InFlight() != 0 {
		t.Fatal("ops left behind")
	}
	if spaces == 0 {
		t.Fatal("OnSpace never fired")
	}
	if m.OpsExecuted.Value() != 3 {
		t.Fatalf("executed %d, want 3", m.OpsExecuted.Value())
	}
}

func TestModuleUnboundedBuffer(t *testing.T) {
	k := sim.NewKernel()
	m := NewModule(k, mem.NewBacking())
	m.BufferSize = 0 // unbounded (Fig. 11a)
	for i := 0; i < 1000; i++ {
		if !m.TryEnqueue(&mem.Request{Kind: mem.ReqPIMOp, Scope: 1,
			Prog: &mem.PIMProgram{}}) {
			t.Fatal("unbounded buffer rejected")
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m.OpsExecuted.Value() != 1000 {
		t.Fatal("not all executed")
	}
}

func TestModuleZeroLatency(t *testing.T) {
	k := sim.NewKernel()
	m := NewModule(k, mem.NewBacking())
	m.ZeroLatency = true // Fig. 11b
	m.TryEnqueue(&mem.Request{Kind: mem.ReqPIMOp, Scope: 1,
		Prog: &mem.PIMProgram{MicroOps: 1000}})
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 0 {
		t.Fatalf("zero-latency op finished at %d", end)
	}
}

func TestModuleArrivalStats(t *testing.T) {
	k := sim.NewKernel()
	m := NewModule(k, mem.NewBacking())
	m.FixedOpLatency = 1000 // keep everything buffered during enqueues
	mk := func(s mem.ScopeID) *mem.Request {
		return &mem.Request{Kind: mem.ReqPIMOp, Scope: s,
			Prog: &mem.PIMProgram{}}
	}
	m.TryEnqueue(mk(1)) // arrival sees empty buffer, 0 scopes; starts immediately
	m.TryEnqueue(mk(1)) // buffer: [] -> sees 0 (first started); stays
	m.TryEnqueue(mk(2)) // sees 1 buffered, 1 unique scope; starts
	m.TryEnqueue(mk(1)) // sees 1 buffered (the scope-1 op), 1 unique
	if m.BufLenOnArrival.Count() != 4 {
		t.Fatal("arrival samples missing")
	}
	if m.PeakBuffer < 2 {
		t.Fatalf("peak buffer %d, want >= 2", m.PeakBuffer)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
