package pimdb

import (
	"fmt"

	"bulkpim/internal/mem"
	"bulkpim/internal/pim"
)

// Bulk-bitwise PIM instruction sets are fine-grained (AND, OR, compare
// steps; §IV-A), so one database operation compiles to SEVERAL PIM ops per
// scope — the temporal locality the scope buffer exploits. The compilers
// below return the op sequence for one scope. The same sequence must be
// issued to every scope holding data ("If data in multiple scopes require
// the same processing, the required PIM ops should be duplicated for each
// scope", §III), and it can be: a program names no scope, and its Apply
// works on the scope whose base the module passes it. So an operation is
// compiled once and its programs are shared by every scope, thread and
// run.

// GatherMicroOpsPerArray is the cost of packing one data array's match
// column into its result row (inter-array column-to-row move).
const GatherMicroOpsPerArray = 2

// CompileRangeScan builds the PIM ops that scan one scope for records with
// key in [lo, hi]: a >=lo compare, a <=hi compare, and an AND+gather that
// packs per-record match bits into the result rows.
func (l Layout) CompileRangeScan(lo, hi uint64) []*mem.PIMProgram {
	return []*mem.PIMProgram{
		{Name: "cmp_ge(key)", MicroOps: pim.CmpMicroOps(pim.PredGE, l.KeyBits, lo),
			Apply: l.compareApply(pim.PredGE, 0, l.KeyBits, lo, 0)},
		{Name: "cmp_le(key)", MicroOps: pim.CmpMicroOps(pim.PredLE, l.KeyBits, hi),
			Apply: l.compareApply(pim.PredLE, 0, l.KeyBits, hi, 1)},
		{Name: "and", MicroOps: 1, Apply: l.combineApply(CombineOp{Op: pim.OpAND, A: 0, B: 1, To: 2})},
		l.CompileGather(2),
	}
}

// CompareSpec is one predicate term of a filter (TPC-H WHERE clauses).
type CompareSpec struct {
	Field int
	Pred  pim.Predicate
	// WidthBits of the compared prefix of the field (dates 32, quantities
	// 16, flags 8 ...).
	WidthBits int
	Const     uint64
	// Dst selects the match column (0..3) receiving the term result.
	Dst int
}

// CompileCompare builds the PIM op for one predicate term on every record
// of a scope.
func (l Layout) CompileCompare(spec CompareSpec) *mem.PIMProgram {
	if spec.WidthBits <= 0 || spec.WidthBits > 64 {
		panic(fmt.Sprintf("pimdb: compare width %d", spec.WidthBits))
	}
	return &mem.PIMProgram{
		Name:     fmt.Sprintf("cmp(f%d%s%d)", spec.Field, spec.Pred, spec.Const),
		MicroOps: pim.CmpMicroOps(spec.Pred, spec.WidthBits, spec.Const),
		Apply:    l.compareApply(spec.Pred, l.FieldCol(spec.Field), spec.WidthBits, spec.Const, spec.Dst),
	}
}

// compareApply compares the width-bit field at column col of every record
// with k, into match column dst.
func (l Layout) compareApply(pred pim.Predicate, col, width int, k uint64, dst int) func(*mem.Backing, mem.Addr, uint64) {
	return func(b *mem.Backing, base mem.Addr, writer uint64) {
		l.forEachDataArray(b, base, writer, func(img *pim.ArrayImage) {
			img.CmpConst(pred, col, width, k, l.MatchCols[dst], l.TmpGT, l.TmpEQ)
		})
	}
}

// CombineOp merges match columns.
type CombineOp struct {
	Op       pim.BoolOp
	OpName   string
	A, B, To int // match column indices
}

// CompileCombine builds one column-combine PIM op (AND/OR of two terms).
func (l Layout) CompileCombine(c CombineOp) *mem.PIMProgram {
	return &mem.PIMProgram{
		Name:     fmt.Sprintf("combine(%s m%d m%d->m%d)", c.OpName, c.A, c.B, c.To),
		MicroOps: 1,
		Apply:    l.combineApply(c),
	}
}

// combineApply combines match columns c.A and c.B into c.To.
func (l Layout) combineApply(c CombineOp) func(*mem.Backing, mem.Addr, uint64) {
	return func(b *mem.Backing, base mem.Addr, writer uint64) {
		l.forEachDataArray(b, base, writer, func(img *pim.ArrayImage) {
			img.ColOp(c.Op, l.MatchCols[c.To], l.MatchCols[c.A], l.MatchCols[c.B])
		})
	}
}

// CompileGather packs match column src into the result rows. The packed
// bit plane of a match column is exactly the result row's bit pattern, so
// each array's 512 match bits move as eight word stores instead of 512
// single-bit copies.
func (l Layout) CompileGather(src int) *mem.PIMProgram {
	return &mem.PIMProgram{
		Name:     "gather",
		MicroOps: GatherMicroOpsPerArray * l.DataArrays,
		Apply: func(b *mem.Backing, base mem.Addr, writer uint64) {
			res := pim.LoadArray(b, base, l.Geom, l.ResultArray)
			plane := make([]uint64, res.PlaneWords())
			for a := 0; a < l.DataArrays; a++ {
				img := pim.LoadArray(b, base, l.Geom, a)
				img.LoadPlane(l.MatchCols[src], plane)
				res.SetRowBits(a, plane, l.Geom.Rows)
			}
			res.Store(b, writer)
		},
	}
}

// CompileAggregate models the in-PIM aggregation of full-query sections
// (TPC-H q1/q6/q22, [25]): a long bit-serial multiply-accumulate over the
// matched records. Functionally it sums the 32-bit prefix of field
// `field` over records whose match bit (column src) is set, writing the
// total to the scope's aggregate line.
func (l Layout) CompileAggregate(src, field, microOps int) *mem.PIMProgram {
	col := l.FieldCol(field)
	return &mem.PIMProgram{
		Name:     "aggregate",
		MicroOps: microOps,
		Apply: func(b *mem.Backing, base mem.Addr, writer uint64) {
			var sum uint64
			for a := 0; a < l.DataArrays; a++ {
				img := pim.LoadArray(b, base, l.Geom, a)
				for r := 0; r < l.Geom.Rows; r++ {
					if img.Bit(r, l.MatchCols[src]) {
						sum += img.FieldBE(r, col, 32)
					}
				}
			}
			line := l.AggLine(base)
			b.WriteWord(line.Addr(), sum)
			b.SetWriter(line, writer)
		},
	}
}

func (l Layout) forEachDataArray(b *mem.Backing, base mem.Addr, writer uint64, fn func(*pim.ArrayImage)) {
	for a := 0; a < l.DataArrays; a++ {
		img := pim.LoadArray(b, base, l.Geom, a)
		fn(img)
		img.Store(b, writer)
	}
}
