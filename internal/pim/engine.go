package pim

import "bulkpim/internal/mem"

// ArrayImage is the functional state of one crossbar array, loaded from
// backing memory, operated on with bulk-bitwise micro-operations, and
// stored back. All column operations act on every row in parallel, exactly
// like the hardware's row-parallel column logic (Fig. 2).
type ArrayImage struct {
	g     Geometry
	base  mem.Addr
	array int
	rows  []byte // Rows * LineSize, row-major
	dirty []bool // per row

	planes [][]uint64 // reusable column bit-plane scratch (colview.go)
}

// LoadArray materializes array `array` of the scope at base from b.
func LoadArray(b *mem.Backing, base mem.Addr, g Geometry, array int) *ArrayImage {
	img := &ArrayImage{
		g: g, base: base, array: array,
		rows:  make([]byte, g.Rows*mem.LineSize),
		dirty: make([]bool, g.Rows),
	}
	b.Read(g.RowAddr(base, array, 0), img.rows)
	return img
}

// Store writes modified rows back to b, tagging each written line with
// writer for happens-before tracking.
func (a *ArrayImage) Store(b *mem.Backing, writer uint64) {
	for r := 0; r < a.g.Rows; r++ {
		if !a.dirty[r] {
			continue
		}
		addr := a.g.RowAddr(a.base, a.array, r)
		b.Write(addr, a.rows[r*mem.LineSize:(r+1)*mem.LineSize])
		b.SetWriter(mem.LineOf(addr), writer)
	}
}

// Bit returns cell (row, col).
func (a *ArrayImage) Bit(row, col int) bool {
	byteIdx := row*mem.LineSize + col/8
	return a.rows[byteIdx]&(1<<uint(col%8)) != 0
}

// SetBit writes cell (row, col).
func (a *ArrayImage) SetBit(row, col int, v bool) {
	byteIdx := row*mem.LineSize + col/8
	bit := byte(1) << uint(col%8)
	if v {
		a.rows[byteIdx] |= bit
	} else {
		a.rows[byteIdx] &^= bit
	}
	a.dirty[row] = true
}

// Row returns the 64-byte image of one row.
func (a *ArrayImage) Row(row int) []byte {
	return a.rows[row*mem.LineSize : (row+1)*mem.LineSize]
}

// SetRow overwrites one row.
func (a *ArrayImage) SetRow(row int, data []byte) {
	copy(a.Row(row), data[:mem.LineSize])
	a.dirty[row] = true
}

// BoolOp is a two-input bitwise logic function (the array's basic
// operation: NOR in MAGIC, AND/OR in Ambit, ...).
type BoolOp func(x, y bool) bool

// Basic operations offered by the technology. Complex logic is composed
// from these.
var (
	OpNOR  BoolOp = func(x, y bool) bool { return !(x || y) }
	OpAND  BoolOp = func(x, y bool) bool { return x && y }
	OpOR   BoolOp = func(x, y bool) bool { return x || y }
	OpXOR  BoolOp = func(x, y bool) bool { return x != y }
	OpNAND BoolOp = func(x, y bool) bool { return !(x && y) }
)

// ColOp computes dst = op(src1, src2) for every row of the array in
// parallel: one hardware micro-operation. Rows are processed as packed
// 64-row words through the op's truth table, so any BoolOp — named or
// custom — runs word-parallel.
func (a *ArrayImage) ColOp(op BoolOp, dst, src1, src2 int) {
	x, y, d := a.plane(0), a.plane(1), a.plane(2)
	a.LoadPlane(src1, x)
	a.LoadPlane(src2, y)
	t00, t01, t10, t11 := truthMasks(op)
	for w := range d {
		d[w] = wordOp(x[w], y[w], t00, t01, t10, t11)
	}
	a.StorePlane(dst, d)
}

// CmpConst computes, for every row in parallel, the comparison of the
// unsigned big-endian field stored in columns [fieldBase, fieldBase+width)
// against constant k, leaving the boolean result in column dstCol. The
// temporaries tmpGT and tmpEQ must be two scratch columns.
//
// This is the standard bit-serial magnitude comparator: walk the bits from
// MSB to LSB keeping running "greater" and "equal" flags. With the constant
// known at compile time each bit step specializes to about two column ops.
// The returned micro-op count is what the timing model charges.
// The running "greater" and "equal" flags stay in packed registers for the
// whole bit walk — only the compared field's columns are gathered, and the
// flag columns are scattered once at the end — so the comparator costs one
// gather plus two word ops per bit per 64 rows. Charged micro-ops are
// unchanged: the timing model still sees the bit-serial op sequence.
func (a *ArrayImage) CmpConst(pred Predicate, fieldBase, width int, k uint64, dstCol, tmpGT, tmpEQ int) int {
	micro := 0
	gt, eq, x := a.plane(0), a.plane(1), a.plane(2)
	for w := range gt {
		gt[w] = 0
		eq[w] = ^uint64(0)
	}
	micro += 2
	for b := 0; b < width; b++ {
		col := fieldBase + b // bit b is the MSB-first position
		kbit := k&(1<<uint(width-1-b)) != 0
		a.LoadPlane(col, x)
		if kbit {
			// x_b=0 while still equal => x < k at this bit; gt unchanged;
			// eq &= x_b.
			for w := range eq {
				eq[w] &= x[w]
			}
			micro++
		} else {
			// x_b=1 while still equal => x > k: gt |= eq & x_b; eq &= !x_b.
			for w := range eq {
				gt[w] |= eq[w] & x[w]
				eq[w] &^= x[w]
			}
			micro += 2
		}
	}
	a.StorePlane(tmpGT, gt)
	a.StorePlane(tmpEQ, eq)
	// Combine flags per predicate.
	d := a.plane(3)
	switch pred {
	case PredEQ:
		copy(d, eq)
		micro++
	case PredNE:
		for w := range d {
			d[w] = ^eq[w]
		}
		micro++
	case PredGT:
		copy(d, gt)
		micro++
	case PredGE:
		for w := range d {
			d[w] = gt[w] | eq[w]
		}
		micro++
	case PredLT:
		for w := range d {
			d[w] = ^(gt[w] | eq[w]) // NOT >=
		}
		micro += 2
	case PredLE:
		for w := range d {
			d[w] = ^gt[w]
		}
		micro++
	default:
		panic("pim: unknown predicate")
	}
	a.StorePlane(dstCol, d)
	return micro
}

// CmpMicroOps returns the micro-op count CmpConst will report, for timing
// estimation without functional execution.
func CmpMicroOps(pred Predicate, width int, k uint64) int {
	micro := 2
	for b := 0; b < width; b++ {
		if k&(1<<uint(width-1-b)) != 0 {
			micro++
		} else {
			micro += 2
		}
	}
	if pred == PredLT {
		return micro + 2
	}
	return micro + 1
}

// Predicate is a comparison against a constant.
type Predicate uint8

const (
	PredEQ Predicate = iota
	PredNE
	PredLT
	PredLE
	PredGT
	PredGE
)

func (p Predicate) String() string {
	switch p {
	case PredEQ:
		return "=="
	case PredNE:
		return "!="
	case PredLT:
		return "<"
	case PredLE:
		return "<="
	case PredGT:
		return ">"
	case PredGE:
		return ">="
	default:
		return "?"
	}
}

// Eval applies the predicate to host integers (the oracle the bit-serial
// programs are property-tested against).
func (p Predicate) Eval(x, k uint64) bool {
	switch p {
	case PredEQ:
		return x == k
	case PredNE:
		return x != k
	case PredLT:
		return x < k
	case PredLE:
		return x <= k
	case PredGT:
		return x > k
	case PredGE:
		return x >= k
	default:
		panic("pim: unknown predicate")
	}
}

// FieldBE reads the big-endian field stored in columns
// [fieldBase, fieldBase+width) of a row, for tests and oracles.
func (a *ArrayImage) FieldBE(row, fieldBase, width int) uint64 {
	var v uint64
	for b := 0; b < width; b++ {
		v <<= 1
		if a.Bit(row, fieldBase+b) {
			v |= 1
		}
	}
	return v
}

// SetFieldBE writes the big-endian field of a row.
func (a *ArrayImage) SetFieldBE(row, fieldBase, width int, v uint64) {
	for b := 0; b < width; b++ {
		a.SetBit(row, fieldBase+b, v&(1<<uint(width-1-b)) != 0)
	}
}
