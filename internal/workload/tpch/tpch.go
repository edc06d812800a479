// Package tpch implements the paper's TPC-H workload (§VI-B, Table IV):
// the PIM section of each query — filtering the involved relations with
// bulk-bitwise compare programs, or executing the whole query in PIM when a
// single relation is involved — followed by reading the results. Queries
// 9, 13 and 18 have no PIM section and are not evaluated, as in the paper.
//
// TPC-H data requires dbgen, an external tool this dependency-free module
// does not run, so the relations are synthetic: field values are
// deterministic pseudo-random integers over per-column domains, and each
// query's predicate structure (number of terms, compared widths,
// conjunction/disjunction shape) follows the TPC-H specification's WHERE
// clauses. Run-time behaviour depends on scope counts (Table IV, used
// verbatim), PIM ops per scope, op lengths, and result-read
// volume/pattern — all preserved — not on the field values.
package tpch

import (
	"bulkpim/internal/mem"
	"bulkpim/internal/pim"
	"bulkpim/internal/pimdb"
)

// Term is one predicate term of a query's PIM filter.
type Term struct {
	Field int
	Width int // compared bits (the field's full stored width)
	Pred  pim.Predicate
	Const uint64
	// Or combines this term with OR instead of AND (IN-lists,
	// disjunctions). Terms fold left.
	Or bool
}

// QuerySpec describes one query's PIM section.
type QuerySpec struct {
	Name   string
	Scopes int  // Table IV
	Full   bool // full-query section: aggregation in PIM, tiny result read
	Terms  []Term
	// AggMicroOps models the in-PIM aggregation length of full queries
	// (bit-serial multiply-accumulate over matched records).
	AggMicroOps int
	Runs        int // paper: each query ran ten times consecutively
}

// OpsPerScope returns how many PIM ops one execution issues per scope:
// one compare per term, one combine per extra term, one gather, plus the
// aggregate for full queries.
func (q QuerySpec) OpsPerScope() int {
	n := len(q.Terms) + (len(q.Terms) - 1) + 1
	if q.Full {
		n++
	}
	return n
}

// Synthetic column roles. Each field has a fixed domain and compare width;
// every predicate on a field compares the full stored width, so the
// bit-serial program and the oracle agree exactly.
const (
	fDate1 = 0 // 32-bit, uniform (ship/order dates)
	fDate2 = 1 // 32-bit, uniform (commit/receipt dates)
	fQty   = 2 // 16-bit, uniform [0, 51) (quantities, discounts, sizes)
	fFlag  = 3 // 16-bit, uniform [0, 25) (segments, nations, modes, brands)
	fKey   = 4 // 24-bit, uniform (part/supplier key prefixes, LIKE ranges)
)

// widthOfField returns the stored/compared width of a field.
func widthOfField(f int) int {
	switch f {
	case fDate1, fDate2:
		return 32
	case fQty, fFlag:
		return 16
	default:
		return 24
	}
}

// Queries returns the 19 evaluated queries with Table IV's scope counts
// and section kinds.
func Queries() []QuerySpec {
	andT := func(f int, p pim.Predicate, k uint64) Term {
		return Term{Field: f, Width: widthOfField(f), Pred: p, Const: k}
	}
	orT := func(f int, p pim.Predicate, k uint64) Term {
		return Term{Field: f, Width: widthOfField(f), Pred: p, Const: k, Or: true}
	}
	return []QuerySpec{
		{Name: "q1", Scopes: 1832, Full: true, Runs: 10, AggMicroOps: 6000,
			Terms: []Term{andT(fDate1, pim.PredLE, 0xC0000000)}},
		{Name: "q2", Scopes: 66, Runs: 10,
			Terms: []Term{andT(fFlag, pim.PredEQ, 15), andT(fKey, pim.PredGE, 0x200000), andT(fKey, pim.PredLT, 0x900000)}},
		{Name: "q3", Scopes: 2336, Runs: 10,
			Terms: []Term{andT(fFlag, pim.PredEQ, 3), andT(fDate1, pim.PredLT, 0x80000000)}},
		{Name: "q4", Scopes: 2290, Runs: 10,
			Terms: []Term{andT(fDate1, pim.PredGE, 0x40000000), andT(fDate1, pim.PredLT, 0x60000000)}},
		{Name: "q5", Scopes: 508, Runs: 10,
			Terms: []Term{andT(fFlag, pim.PredEQ, 2), andT(fDate1, pim.PredGE, 0x40000000), andT(fDate1, pim.PredLT, 0x80000000)}},
		{Name: "q6", Scopes: 1832, Full: true, Runs: 10, AggMicroOps: 3000,
			Terms: []Term{
				andT(fDate1, pim.PredGE, 0x40000000), andT(fDate1, pim.PredLT, 0x60000000),
				andT(fQty, pim.PredGE, 5), andT(fQty, pim.PredLE, 7),
				andT(fFlag, pim.PredLT, 24)}},
		{Name: "q7", Scopes: 1882, Runs: 10,
			Terms: []Term{andT(fFlag, pim.PredEQ, 4), orT(fFlag, pim.PredEQ, 9),
				andT(fDate1, pim.PredGE, 0x40000000), andT(fDate1, pim.PredLE, 0x80000000)}},
		{Name: "q8", Scopes: 566, Runs: 10,
			Terms: []Term{andT(fFlag, pim.PredEQ, 1), andT(fDate1, pim.PredGE, 0x40000000),
				andT(fDate1, pim.PredLE, 0x60000000), andT(fKey, pim.PredLT, 0x800000)}},
		{Name: "q10", Scopes: 2290, Runs: 10,
			Terms: []Term{andT(fDate1, pim.PredGE, 0x48000000), andT(fDate1, pim.PredLT, 0x58000000),
				andT(fFlag, pim.PredEQ, 1)}},
		{Name: "q11", Scopes: 4, Runs: 10,
			Terms: []Term{andT(fFlag, pim.PredEQ, 7)}},
		{Name: "q12", Scopes: 1832, Runs: 10,
			Terms: []Term{andT(fFlag, pim.PredEQ, 5), orT(fFlag, pim.PredEQ, 6),
				andT(fDate1, pim.PredGE, 0x48000000), andT(fDate1, pim.PredLT, 0x58000000),
				andT(fDate2, pim.PredLT, 0x80000000), andT(fDate2, pim.PredGE, 0x20000000)}},
		{Name: "q14", Scopes: 1832, Runs: 10,
			Terms: []Term{andT(fDate1, pim.PredGE, 0x46000000), andT(fDate1, pim.PredLT, 0x4C000000)}},
		{Name: "q15", Scopes: 1832, Runs: 10,
			Terms: []Term{andT(fDate1, pim.PredGE, 0x46000000), andT(fDate1, pim.PredLT, 0x49000000)}},
		{Name: "q16", Scopes: 62, Runs: 10,
			Terms: []Term{andT(fFlag, pim.PredNE, 4), andT(fKey, pim.PredLT, 0x800000),
				orT(fQty, pim.PredEQ, 3), orT(fQty, pim.PredEQ, 9), orT(fQty, pim.PredEQ, 14),
				orT(fQty, pim.PredEQ, 19), orT(fQty, pim.PredEQ, 23), orT(fQty, pim.PredEQ, 36),
				orT(fQty, pim.PredEQ, 45), orT(fQty, pim.PredEQ, 49)}},
		{Name: "q17", Scopes: 62, Runs: 10,
			Terms: []Term{andT(fFlag, pim.PredEQ, 11), andT(fQty, pim.PredEQ, 23)}},
		{Name: "q19", Scopes: 1894, Runs: 10,
			Terms: []Term{
				andT(fFlag, pim.PredEQ, 1), andT(fQty, pim.PredGE, 1), andT(fQty, pim.PredLE, 11),
				orT(fFlag, pim.PredEQ, 2), andT(fQty, pim.PredGE, 10), andT(fQty, pim.PredLE, 20),
				orT(fFlag, pim.PredEQ, 3), andT(fQty, pim.PredGE, 20), andT(fQty, pim.PredLE, 30),
				andT(fKey, pim.PredGE, 0x100000), andT(fKey, pim.PredLE, 0xF00000)}},
		{Name: "q20", Scopes: 2294, Runs: 10,
			Terms: []Term{andT(fKey, pim.PredGE, 0x100000), andT(fKey, pim.PredLT, 0x600000),
				andT(fDate1, pim.PredGE, 0x46000000)}},
		{Name: "q21", Scopes: 1832, Runs: 10,
			Terms: []Term{andT(fFlag, pim.PredEQ, 6), andT(fDate2, pim.PredGT, 0x80000000)}},
		{Name: "q22", Scopes: 46, Full: true, Runs: 10, AggMicroOps: 2000,
			Terms: []Term{andT(fFlag, pim.PredEQ, 13), orT(fFlag, pim.PredEQ, 21),
				orT(fFlag, pim.PredEQ, 23), orT(fFlag, pim.PredEQ, 11),
				orT(fFlag, pim.PredEQ, 20), orT(fFlag, pim.PredEQ, 18), orT(fFlag, pim.PredEQ, 17),
				andT(fQty, pim.PredGT, 30)}},
	}
}

// QueryByName finds a query spec.
func QueryByName(name string) (QuerySpec, bool) {
	for _, q := range Queries() {
		if q.Name == name {
			return q, true
		}
	}
	return QuerySpec{}, false
}

// FieldValue is the raw synthetic generator for field f of the record at
// (scope, pos).
func FieldValue(scope mem.ScopeID, pos, f int) uint64 {
	x := uint64(scope)*0x9E3779B97F4A7C15 + uint64(pos)*0xBF58476D1CE4E5B9 + uint64(f)*0x94D049BB133111EB
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return x
}

// storedValue maps the raw generator into the field's domain. It doubles
// as the verification oracle's view of the data.
func storedValue(scope mem.ScopeID, pos, f int) uint64 {
	h := FieldValue(scope, pos, f)
	switch f {
	case fDate1, fDate2:
		return h & 0xFFFFFFFF
	case fQty:
		return h % 51
	case fFlag:
		return h % 25
	default:
		return h & 0xFFFFFF
	}
}

// InitScope writes synthetic records for one scope (functional runs).
func InitScope(bk *mem.Backing, layout pimdb.Layout, scopeBase mem.Addr, scope mem.ScopeID) {
	rows := layout.RecordsPerScope()
	for pos := 0; pos < rows; pos++ {
		line := layout.EncodeRecord(uint64(pos)+1, nil)
		for f := 0; f < layout.Fields; f++ {
			layout.EncodeFieldBE(line, f, widthOfField(f), storedValue(scope, pos, f))
		}
		bk.WriteLine(layout.RecordLine(scopeBase, pos), line)
	}
}

// Eval evaluates the query's predicate on a record (the oracle): terms
// fold left, OR terms join with OR, the rest with AND.
func (q QuerySpec) Eval(scope mem.ScopeID, pos int) bool {
	result := false
	for i, t := range q.Terms {
		term := t.Pred.Eval(storedValue(scope, pos, t.Field), t.Const)
		switch {
		case i == 0:
			result = term
		case t.Or:
			result = result || term
		default:
			result = result && term
		}
	}
	return result
}

// Compile builds the PIM op sequence the query issues to every scope: one
// compare op per term, a combine per extra term, the gather, and the
// aggregate for full-query sections — the fine-grained sequence §IV-A's
// scope buffer exploits.
func (q QuerySpec) Compile(layout pimdb.Layout) []*mem.PIMProgram {
	var ops []*mem.PIMProgram
	for i, t := range q.Terms {
		dst := 0
		if i > 0 {
			dst = 1
		}
		spec := pimdb.CompareSpec{Field: t.Field, Pred: t.Pred, WidthBits: t.Width, Const: t.Const, Dst: dst}
		ops = append(ops, layout.CompileCompare(spec))
		if i > 0 {
			op := pim.OpAND
			name := "and"
			if t.Or {
				op = pim.OpOR
				name = "or"
			}
			ops = append(ops, layout.CompileCombine(pimdb.CombineOp{Op: op, OpName: name, A: 0, B: 1, To: 0}))
		}
	}
	ops = append(ops, layout.CompileGather(0))
	if q.Full {
		ops = append(ops, layout.CompileAggregate(0, fDate2, q.AggMicroOps))
	}
	return ops
}
