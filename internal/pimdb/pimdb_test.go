package pimdb

import (
	"testing"
	"testing/quick"

	"bulkpim/internal/mem"
	"bulkpim/internal/pim"
)

func TestLayoutGeometry(t *testing.T) {
	l := DefaultLayout()
	if l.RecordsPerScope() != 63*512 {
		t.Fatalf("records/scope = %d, want %d", l.RecordsPerScope(), 63*512)
	}
	if l.ScopeOfRecord(0) != 0 || l.ScopeOfRecord(l.RecordsPerScope()) != 1 {
		t.Fatal("scope mapping wrong")
	}
	a, r := l.Slot(l.Geom.Rows + 3)
	if a != 1 || r != 3 {
		t.Fatalf("slot = (%d,%d), want (1,3)", a, r)
	}
	// Field areas must not collide with the key or scratch columns.
	for f := 0; f < l.Fields; f++ {
		off := l.FieldByteOff(f)
		if off < 8 || off+l.FieldBytes > l.TmpGT/8 {
			t.Fatalf("field %d bytes [%d,%d) collide", f, off, off+l.FieldBytes)
		}
	}
}

func TestResultRegionIsContiguousAndScopeAligned(t *testing.T) {
	l := DefaultLayout()
	base := mem.DefaultPIMBase
	start, size := l.ResultRegion(base)
	if size != 63*mem.LineSize {
		t.Fatalf("result size = %d", size)
	}
	for a := 0; a < l.DataArrays; a++ {
		want := mem.LineOf(start + mem.Addr(a*mem.LineSize))
		if l.ResultLine(base, a) != want {
			t.Fatal("result lines not contiguous")
		}
	}
	// The same in-scope offset for every scope: LLC set clustering (§IV-B).
	base2 := base + mem.DefaultScopeSize
	if l.ResultLine(base2, 0).Index()-l.ResultLine(base, 0).Index() != mem.DefaultScopeSize/mem.LineSize {
		t.Fatal("result offset differs across scopes")
	}
	// With 2048 LLC sets, result lines of all scopes fall into few sets.
	sets := map[uint64]bool{}
	for scope := 0; scope < 8; scope++ {
		b := base + mem.Addr(scope)*mem.DefaultScopeSize
		for a := 0; a < l.DataArrays; a++ {
			sets[l.ResultLine(b, a).Index()&2047] = true
		}
	}
	if len(sets) != 63 {
		t.Fatalf("result lines of 8 scopes hit %d sets, want 63 (same sets every scope)", len(sets))
	}
}

func TestEncodeDecodeRecord(t *testing.T) {
	l := DefaultLayout()
	fields := make([][]byte, l.Fields)
	for f := range fields {
		fields[f] = make([]byte, l.FieldBytes)
		for i := range fields[f] {
			fields[f][i] = byte('a' + f + i)
		}
	}
	line := l.EncodeRecord(0xDEADBEEF12345678, fields)
	if got := l.DecodeKey(line); got != 0xDEADBEEF12345678 {
		t.Fatalf("key round trip: %#x", got)
	}
	for f := range fields {
		off := l.FieldByteOff(f)
		for i := range fields[f] {
			if line[off+i] != fields[f][i] {
				t.Fatalf("field %d byte %d wrong", f, i)
			}
		}
	}
}

func TestEncodeKeyMatchesEngineFieldBE(t *testing.T) {
	l := DefaultLayout()
	prop := func(key uint64) bool {
		b := mem.NewBacking()
		line := l.EncodeRecord(key, nil)
		b.WriteLine(l.Geom.LineOf(0, 0, 5), line)
		img := pim.LoadArray(b, 0, l.Geom, 0)
		return img.FieldBE(5, 0, 64) == key
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Functional range scan over one scope equals the brute-force oracle.
func TestRangeScanMatchesOracle(t *testing.T) {
	l := DefaultLayout()
	b := mem.NewBacking()
	base := mem.DefaultPIMBase
	// Write 2000 records with pseudo-random keys.
	n := 2000
	keys := make([]uint64, n)
	st := uint64(12345)
	for i := 0; i < n; i++ {
		st = st*6364136223846793005 + 1442695040888963407
		keys[i] = st % 100000
		l.WriteRecord(b, base, i, keys[i], nil)
	}
	lo, hi := uint64(20000), uint64(40000)
	for _, op := range l.CompileRangeScan(lo, hi) {
		op.Apply(b, base, 7)
	}
	// Check the packed result bits.
	line := make([]byte, mem.LineSize)
	for i := 0; i < n; i++ {
		a, r := l.Slot(i)
		b.ReadLine(l.ResultLine(base, a), line)
		want := keys[i] >= lo && keys[i] <= hi
		if ResultBit(line, r) != want {
			t.Fatalf("record %d (key %d): match=%v, want %v", i, keys[i], ResultBit(line, r), want)
		}
	}
	// Rows beyond n must not match (keys are zero; 0 < lo).
	a, r := l.Slot(n)
	b.ReadLine(l.ResultLine(base, a), line)
	if ResultBit(line, r) {
		t.Fatal("empty row matched")
	}
}

// One compiled range scan serves every scope: applied to two scopes
// holding different keys, it leaves each scope's own matches in that
// scope's result rows. A program that ignored the base it is handed
// would scan one scope twice and fail here.
func TestRangeScanSharedAcrossScopes(t *testing.T) {
	l := DefaultLayout()
	b := mem.NewBacking()
	bases := []mem.Addr{mem.DefaultPIMBase, mem.DefaultPIMBase + 3*mem.DefaultScopeSize}
	const n = 600
	key := func(s, i int) uint64 { return uint64(i + 1 + s*n) } // scope s holds keys s*n+1 .. (s+1)*n
	for s, base := range bases {
		for i := 0; i < n; i++ {
			l.WriteRecord(b, base, i, key(s, i), nil)
		}
	}
	lo, hi := uint64(n-100), uint64(n+100) // the top of scope 0, the bottom of scope 1
	ops := l.CompileRangeScan(lo, hi)
	for s, base := range bases {
		for _, op := range ops {
			op.Apply(b, base, uint64(s+1))
		}
	}
	line := make([]byte, mem.LineSize)
	for s, base := range bases {
		matched := 0
		for i := 0; i < n; i++ {
			a, r := l.Slot(i)
			b.ReadLine(l.ResultLine(base, a), line)
			k := key(s, i)
			if got, want := ResultBit(line, r), k >= lo && k <= hi; got != want {
				t.Fatalf("scope %d record %d (key %d): match=%v, want %v", s, i, k, got, want)
			}
			if ResultBit(line, r) {
				matched++
			}
		}
		if matched == 0 {
			t.Fatalf("scope %d: no record matched; the test needs matches in both scopes", s)
		}
	}
}

// Property: compare + combine programs equal direct evaluation on a small
// array population.
func TestFilterProgramsMatchOracle(t *testing.T) {
	l := DefaultLayout()
	preds := []pim.Predicate{pim.PredEQ, pim.PredLT, pim.PredGE}
	prop := func(vals [32]uint16, k1, k2 uint16, p1, p2 uint8) bool {
		b := mem.NewBacking()
		base := mem.DefaultPIMBase
		for i, v := range vals {
			line := l.EncodeRecord(uint64(i), nil)
			l.EncodeFieldBE(line, 0, 16, uint64(v))
			b.WriteLine(l.RecordLine(base, i), line)
		}
		pr1 := preds[int(p1)%len(preds)]
		pr2 := preds[int(p2)%len(preds)]
		ops := []*mem.PIMProgram{
			l.CompileCompare(CompareSpec{Field: 0, Pred: pr1, WidthBits: 16, Const: uint64(k1), Dst: 0}),
			l.CompileCompare(CompareSpec{Field: 0, Pred: pr2, WidthBits: 16, Const: uint64(k2), Dst: 1}),
			l.CompileCombine(CombineOp{Op: pim.OpOR, OpName: "or", A: 0, B: 1, To: 2}),
			l.CompileGather(2),
		}
		for _, op := range ops {
			op.Apply(b, base, 3)
		}
		line := make([]byte, mem.LineSize)
		b.ReadLine(l.ResultLine(base, 0), line)
		for i, v := range vals {
			want := pr1.Eval(uint64(v), uint64(k1)) || pr2.Eval(uint64(v), uint64(k2))
			if ResultBit(line, i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateSumsMatchedRecords(t *testing.T) {
	l := DefaultLayout()
	b := mem.NewBacking()
	base := mem.DefaultPIMBase
	var want uint64
	for i := 0; i < 100; i++ {
		line := l.EncodeRecord(uint64(i), nil)
		l.EncodeFieldBE(line, 0, 32, uint64(i))
		b.WriteLine(l.RecordLine(base, i), line)
	}
	// Match even keys via compare program on the key.
	ops := l.CompileRangeScan(0, 49)
	for _, op := range ops {
		op.Apply(b, base, 1)
	}
	for i := 0; i < 50; i++ {
		want += uint64(i)
	}
	agg := l.CompileAggregate(2, 0, 4000)
	agg.Apply(b, base, 2)
	if got := b.ReadWord(l.AggLine(base).Addr()); got != want {
		t.Fatalf("aggregate = %d, want %d", got, want)
	}
	if agg.MicroOps != 4000 {
		t.Fatal("aggregate micro-ops not honored")
	}
}

func TestMicroOpAccounting(t *testing.T) {
	l := DefaultLayout()
	ops := l.CompileRangeScan(10, 20)
	if len(ops) != 4 {
		t.Fatalf("scan compiles to %d ops, want 4 (fine-grained ISA)", len(ops))
	}
	total := 0
	for _, op := range ops {
		if op.MicroOps <= 0 {
			t.Fatalf("op %s has no cost", op.Name)
		}
		if op.Apply == nil {
			t.Fatalf("op %s carries no Apply", op.Name)
		}
		total += op.MicroOps
	}
	if total < l.KeyBits*2 {
		t.Fatal("scan cost implausibly low")
	}
}
