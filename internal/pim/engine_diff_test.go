package pim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"bulkpim/internal/mem"
)

// Differential property tests: the word-packed column ops and comparator
// are pinned, byte-for-byte over the whole array image, against the
// retained bit-serial reference implementations below — the original
// one-Bit/SetBit-per-row loops. Geometries straddle word boundaries (rows
// 1..512, including non-multiples of 64) and widths span 1..64.

// refColOp is the bit-serial ColOp: one Bit/SetBit pair per row.
func refColOp(a *ArrayImage, op BoolOp, dst, src1, src2 int) {
	for r := 0; r < a.g.Rows; r++ {
		a.SetBit(r, dst, op(a.Bit(r, src1), a.Bit(r, src2)))
	}
}

func refColSet(a *ArrayImage, dst int, v bool) {
	for r := 0; r < a.g.Rows; r++ {
		a.SetBit(r, dst, v)
	}
}

func refColCopy(a *ArrayImage, dst, src int) {
	for r := 0; r < a.g.Rows; r++ {
		a.SetBit(r, dst, a.Bit(r, src))
	}
}

func refTransposeColToRow(a *ArrayImage, dst, src, n int) {
	for i := 0; i < n; i++ {
		a.SetBit(dst, i, a.Bit(i, src))
	}
}

// refCmpConst is the bit-serial magnitude comparator, as originally
// implemented.
func refCmpConst(a *ArrayImage, pred Predicate, fieldBase, width int, k uint64, dstCol, tmpGT, tmpEQ int) int {
	micro := 0
	refColSet(a, tmpGT, false)
	refColSet(a, tmpEQ, true)
	micro += 2
	for b := 0; b < width; b++ {
		col := fieldBase + b
		kbit := k&(1<<uint(width-1-b)) != 0
		if kbit {
			refColOp(a, OpAND, tmpEQ, tmpEQ, col)
			micro++
		} else {
			for r := 0; r < a.g.Rows; r++ {
				eq := a.Bit(r, tmpEQ)
				x := a.Bit(r, col)
				if eq && x {
					a.SetBit(r, tmpGT, true)
				}
				if x {
					a.SetBit(r, tmpEQ, false)
				}
			}
			micro += 2
		}
	}
	switch pred {
	case PredEQ:
		refColCopy(a, dstCol, tmpEQ)
		micro++
	case PredNE:
		refColOp(a, OpNOR, dstCol, tmpEQ, tmpEQ)
		micro++
	case PredGT:
		refColCopy(a, dstCol, tmpGT)
		micro++
	case PredGE:
		refColOp(a, OpOR, dstCol, tmpGT, tmpEQ)
		micro++
	case PredLT:
		refColOp(a, OpOR, dstCol, tmpGT, tmpEQ)
		refColOp(a, OpNOR, dstCol, dstCol, dstCol)
		micro += 2
	case PredLE:
		refColOp(a, OpNOR, dstCol, tmpGT, tmpGT)
		micro++
	}
	return micro
}

// diffRows are the row counts exercised: word-multiple, off-by-one around
// every boundary, and sub-word arrays.
var diffRows = []int{1, 3, 63, 64, 65, 100, 127, 128, 200, 511, 512}

// twinImages returns two independent images with identical pseudo-random
// contents for the given row count.
func twinImages(rng *rand.Rand, rows int) (got, want *ArrayImage) {
	g := Geometry{Rows: rows, Cols: mem.LineSize * 8, Arrays: 1}
	got = LoadArray(mem.NewBacking(), 0, g, 0)
	want = LoadArray(mem.NewBacking(), 0, g, 0)
	line := make([]byte, mem.LineSize)
	for r := 0; r < rows; r++ {
		rng.Read(line)
		got.SetRow(r, line)
		want.SetRow(r, line)
	}
	return got, want
}

func assertSameImage(t *testing.T, ctx string, got, want *ArrayImage) {
	t.Helper()
	for r := 0; r < got.g.Rows; r++ {
		if !bytes.Equal(got.Row(r), want.Row(r)) {
			t.Fatalf("%s: row %d diverges from bit-serial reference\n packed: %x\n serial: %x",
				ctx, r, got.Row(r), want.Row(r))
		}
	}
}

func TestColOpsMatchBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := []struct {
		name string
		op   BoolOp
	}{{"nor", OpNOR}, {"and", OpAND}, {"or", OpOR}, {"xor", OpXOR}, {"nand", OpNAND}}
	for _, rows := range diffRows {
		for _, o := range ops {
			got, want := twinImages(rng, rows)
			got.ColOp(o.op, 7, 130, 300)
			refColOp(want, o.op, 7, 130, 300)
			assertSameImage(t, fmt.Sprintf("ColOp(%s) rows=%d", o.name, rows), got, want)
		}
		// The gather's column-to-row transpose: a packed plane stored as
		// row bits.
		got, want := twinImages(rng, rows)
		p := make([]uint64, got.PlaneWords())
		got.LoadPlane(200, p)
		got.SetRowBits(0, p, rows)
		refTransposeColToRow(want, 0, 200, rows)
		assertSameImage(t, fmt.Sprintf("TransposeColToRow rows=%d", rows), got, want)
	}
}

func TestCmpConstMatchesBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	preds := []Predicate{PredEQ, PredNE, PredLT, PredLE, PredGT, PredGE}
	for _, rows := range diffRows {
		for trial := 0; trial < 4; trial++ {
			width := 1 + rng.Intn(64)
			pred := preds[rng.Intn(len(preds))]
			var k uint64
			if width == 64 {
				k = rng.Uint64()
			} else {
				k = rng.Uint64() & ((1 << uint(width)) - 1)
			}
			got, want := twinImages(rng, rows)
			m1 := got.CmpConst(pred, 0, width, k, 470, 464, 465)
			m2 := refCmpConst(want, pred, 0, width, k, 470, 464, 465)
			if m1 != m2 {
				t.Fatalf("CmpConst rows=%d width=%d pred=%s: micro %d != reference %d", rows, width, pred, m1, m2)
			}
			if m1 != CmpMicroOps(pred, width, k) {
				t.Fatalf("CmpConst micro %d != CmpMicroOps %d", m1, CmpMicroOps(pred, width, k))
			}
			assertSameImage(t, fmt.Sprintf("CmpConst rows=%d width=%d pred=%s k=%d", rows, width, pred, k), got, want)
		}
	}
}
