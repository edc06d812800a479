package pim

import (
	"math/rand"
	"testing"

	"bulkpim/internal/mem"
)

// Microbenchmarks feeding BENCH_sim_throughput.json: the word-packed
// comparator is paired with its retained bit-serial reference (the
// *BitSerial variant) so the recorded run carries its own baseline —
// benchjson computes the speedup and bench.yml gates the pair at >= 3x.
// The ns/row-bit metric normalizes across geometries and widths.

func benchImage(b *testing.B) *ArrayImage {
	b.Helper()
	g := DefaultGeometry()
	img := LoadArray(mem.NewBacking(), 0, g, 0)
	rng := rand.New(rand.NewSource(42))
	line := make([]byte, mem.LineSize)
	for r := 0; r < g.Rows; r++ {
		rng.Read(line)
		img.SetRow(r, line)
	}
	return img
}

func reportRowBits(b *testing.B, rows, bitsPerRow int) {
	b.Helper()
	total := float64(b.N) * float64(rows) * float64(bitsPerRow)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/row-bit")
}

// BenchmarkCmpConst covers the scan hot path — the op YCSB/TPC-H
// filters issue per field, so its pair is speedup-gated.
func BenchmarkCmpConst(b *testing.B) {
	img := benchImage(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img.CmpConst(PredGE, 0, 64, 1<<40, 470, 464, 465)
	}
	reportRowBits(b, img.g.Rows, 64)
}

func BenchmarkCmpConstBitSerial(b *testing.B) {
	img := benchImage(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refCmpConst(img, PredGE, 0, 64, 1<<40, 470, 464, 465)
	}
	reportRowBits(b, img.g.Rows, 64)
}
