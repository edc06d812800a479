package pim

import (
	"testing"

	"bulkpim/internal/mem"
)

// TestArithAllocFree pins the word-packed column kernels at zero
// steady-state allocations: after a first call warms the image's plane
// scratch, repeated ops must reuse it.
func TestArithAllocFree(t *testing.T) {
	g := DefaultGeometry()
	img := LoadArray(mem.NewBacking(), 0, g, 0)
	const w = 16
	ops := map[string]func(){
		"ColOp":    func() { img.ColOp(OpAND, 448, 0, 1) },
		"CmpConst": func() { img.CmpConst(PredGT, 0, w, 12345, 448, 449, 450) },
	}
	for name, op := range ops {
		op() // warm the plane scratch
		if avg := testing.AllocsPerRun(3, op); avg != 0 {
			t.Errorf("%s allocates %.2f allocs/op steady-state, want 0", name, avg)
		}
	}
}
