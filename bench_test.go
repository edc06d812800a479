package bulkpim

// One benchmark per table and figure of the paper's evaluation, each
// regenerating its experiment at bench scale (the same code paths as
// cmd/pimbench at quick/medium/full scale), plus micro-benchmarks of the
// core structures. Key figure values are attached as custom metrics.

import (
	"testing"

	"bulkpim/internal/core"
	"bulkpim/internal/mem"
	"bulkpim/internal/pim"
	"bulkpim/internal/sim"
)

// Parallelism is pinned to 1 so benchmark numbers stay comparable
// across machines and with pre-runner history.
var benchOpts = Options{Scale: ScaleBench, Parallelism: 1}

// reportLast attaches the final sweep point of each variant as metrics.
func reportLast(b *testing.B, s *Series, unit string) {
	b.Helper()
	if len(s.X) == 0 {
		return
	}
	last := len(s.X) - 1
	for _, v := range s.Variants {
		b.ReportMetric(s.Y[v][last], v+"_"+unit)
	}
}

// BenchmarkFig1Litmus regenerates the §I / Fig. 1 litmus verdicts.
func BenchmarkFig1Litmus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outs, err := SweepFig1(SWFlush, []Tick{0, 400, 800, 1200, 1600})
		if err != nil {
			b.Fatal(err)
		}
		stale, cycle := LitmusVulnerable(outs)
		if !stale || !cycle {
			b.Fatal("Fig. 1 not reproduced under swflush")
		}
		for _, m := range ProposedModels() {
			outs, err := SweepFig1(m, []Tick{0, 800, 1600})
			if err != nil {
				b.Fatal(err)
			}
			if s, c := LitmusVulnerable(outs); s || c {
				b.Fatalf("%v vulnerable", m)
			}
		}
	}
}

// BenchmarkFig3Coherence regenerates Fig. 3 (naive / uncacheable / swflush).
func BenchmarkFig3Coherence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := Fig3(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		reportLast(b, s, "norm")
	}
}

// BenchmarkFig7YCSB regenerates Fig. 7 (run time, absolute + normalized).
func BenchmarkFig7YCSB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := Fig7(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		reportLast(b, f.Norm, "norm")
	}
}

// BenchmarkFig8TPCH regenerates Fig. 8 (per-query normalized run time) and
// Fig. 9's TPC-H hit rates.
func BenchmarkFig8TPCH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := Fig8Fig9(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9ScopeBuffer regenerates the YCSB scope-buffer hit rates.
func BenchmarkFig9ScopeBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Fig9YCSB(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10PIMStats regenerates Fig. 10's system statistics (shared
// sweep with Fig. 7).
func BenchmarkFig10PIMStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := Fig7(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		reportLast(b, f.BufLen, "buflen")
		reportLast(b, f.ScanLatency, "scancyc")
	}
}

// BenchmarkFig11Ablations regenerates Fig. 11a (unbounded PIM buffer) and
// Fig. 11b (zero PIM latency).
func BenchmarkFig11Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Fig11a(benchOpts); err != nil {
			b.Fatal(err)
		}
		if _, err := Fig11b(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12LLC8MB regenerates the 8MB-LLC experiment.
func BenchmarkFig12LLC8MB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := Fig12(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		reportLast(b, f.ScanLatency, "scancyc")
	}
}

// BenchmarkFig13Threads8 regenerates the 8-thread / 16-core experiment.
func BenchmarkFig13Threads8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := Fig13(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		reportLast(b, s, "norm")
	}
}

// BenchmarkTableI..IV and the area model regenerate the paper's tables.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if TableITable().String() == "" {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if TableIITable().String() == "" {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if TableIIITable().String() == "" {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if TableIVTable().String() == "" {
			b.Fatal("empty")
		}
	}
}

// BenchmarkAreaModel regenerates the §VI-A hardware-overhead estimate.
func BenchmarkAreaModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := EstimateArea()
		b.ReportMetric(rep.LLCOnlyCalibratedPct, "llc_pct")
		b.ReportMetric(rep.AllCachesCalibratedPct, "all_pct")
	}
}

// ---- micro-benchmarks of the core structures ----

func BenchmarkKernelEventThroughput(b *testing.B) {
	k := sim.NewKernel()
	n := 0
	var tick func(any)
	tick = func(any) {
		n++
		if n < b.N {
			k.ScheduleCtx(1, tick, nil)
		}
	}
	b.ResetTimer()
	k.ScheduleCtx(1, tick, nil)
	if _, err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkScopeBufferLookup(b *testing.B) {
	sb := core.NewScopeBuffer(64, 4)
	for s := 0; s < 256; s++ {
		sb.Insert(mem.ScopeID(s))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.Lookup(mem.ScopeID(i & 1023))
	}
}

func BenchmarkSBVScanFilter(b *testing.B) {
	v := core.NewSBV(2048)
	for s := 0; s < 2048; s += 32 {
		v.OnInsert(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for s := 0; s < 2048; s++ {
			if v.Test(s) {
				n++
			}
		}
		if n == 0 {
			b.Fatal("no sets")
		}
	}
}

func BenchmarkEngineCmpConst(b *testing.B) {
	g := pim.DefaultGeometry()
	bk := mem.NewBacking()
	img := pim.LoadArray(bk, 0, g, 0)
	for r := 0; r < g.Rows; r++ {
		img.SetFieldBE(r, 0, 64, uint64(r)*0x9E3779B97F4A7C15)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img.CmpConst(pim.PredGE, 0, 64, uint64(i), 500, 501, 502)
	}
}

func BenchmarkMayReorder(b *testing.B) {
	a := core.OpRef{Class: core.OpPIM, Scope: 3}
	c := core.OpRef{Class: core.OpLoad, Scope: 7, Line: 0x1000}
	for i := 0; i < b.N; i++ {
		core.MayReorder(core.Scope, a, c)
	}
}
