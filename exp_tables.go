package bulkpim

// Static tables (Table I-IV, the §VI-A area estimate) and the
// extension experiments that tabulate one small job batch each: the
// §IV coherence-hardware ablation, the §IV-A scope buffer sizing
// claim, and the multi-module extension. The static tables plan zero
// jobs; the extension specs plan their batches on the sweep's largest
// YCSB workload.

import (
	"fmt"

	"bulkpim/internal/core"
	"bulkpim/internal/report"
	"bulkpim/internal/workload/tpch"
	"bulkpim/internal/workload/ycsb"
)

// tableSpec wraps a job-less, options-independent table artifact. Its
// key set is empty, so a streaming run emits it immediately.
func tableSpec(name string, build func() *Table) ExperimentSpec {
	s := ExperimentSpec{Name: name}
	s.Artifacts, s.Render = singleArtifact(name, nil,
		func(Options, *ResultSet) ([]ReportItem, error) {
			return []ReportItem{build()}, nil
		})
	return s
}

// TableITable renders the paper's Table I.
func TableITable() *Table {
	t := &Table{Title: "Table I — consistency model definitions and implementations",
		Header: []string{"model", "PIM op allowed reordering", "additional fence", "scope buffer & SBV"}}
	for _, d := range core.TableI() {
		t.AddRow(d.Model.String(), d.AllowedReorder, d.AdditionalFences, d.Structures)
	}
	return t
}

// TableIITable renders the evaluation system configuration.
func TableIITable() *Table {
	cfg := DefaultConfig()
	t := &Table{Title: "Table II — architecture and system configuration",
		Header: []string{"component", "value"}}
	t.AddRow("cores", fmt.Sprintf("%d, x86-TSO commit-order, %.1fGHz", cfg.Cores, cfg.ClockGHz))
	t.AddRow("L1", fmt.Sprintf("private, %dKB, 64B lines, %d-way, %d-cycle hit",
		cfg.L1Sets*cfg.L1Ways*64/1024, cfg.L1Ways, cfg.L1HitLatency))
	t.AddRow("LLC", fmt.Sprintf("shared, %dMB, 64B lines, %d-way, %d-cycle hit, inclusive MESI",
		cfg.LLCSets*cfg.LLCWays*64/(1<<20), cfg.LLCWays, cfg.LLCHitLatency))
	t.AddRow("L1 scope buffer", fmt.Sprintf("%d sets, %d-way (scope-relaxed only)", cfg.L1ScopeBufSets, cfg.L1ScopeBufWays))
	t.AddRow("L2 scope buffer", fmt.Sprintf("%d sets, %d-way", cfg.LLCScopeBufSets, cfg.LLCScopeBufWays))
	t.AddRow("main memory", fmt.Sprintf("%d-cycle DRAM, %d banks", cfg.DRAMLatency, cfg.Banks))
	t.AddRow("PIM module", fmt.Sprintf("1 (spec as in [25]), buffer %d ops, %d cycles/micro-op",
		cfg.PIMBufferSize, cfg.PIMCyclesPerMicroOp))
	t.AddRow("scope", "2MB huge page")
	t.AddRow("max records/scope", fmt.Sprintf("%d", DefaultLayout().RecordsPerScope()))
	return t
}

// TableIIITable renders the YCSB workload summary.
func TableIIITable() *Table {
	p := ycsb.DefaultParams(1_000_000)
	t := &Table{Title: "Table III — YCSB workload summary", Header: []string{"parameter", "value"}}
	t.AddRow("operations", fmt.Sprintf("%d", p.Operations))
	t.AddRow("scan fraction", fmt.Sprintf("%.0f%%", p.ScanFraction*100))
	t.AddRow("insert fraction", fmt.Sprintf("%.0f%%", (1-p.ScanFraction)*100))
	t.AddRow("fields per record", fmt.Sprintf("%d", p.Fields))
	t.AddRow("field length", fmt.Sprintf("%dB", p.FieldBytes))
	t.AddRow("records in scan results", fmt.Sprintf("uniform [1,%d]", p.MaxScanRecords))
	t.AddRow("scan base record", fmt.Sprintf("zipfian (theta=%.2f)", p.ZipfTheta))
	return t
}

// TableIVTable renders the TPC-H query summary.
func TableIVTable() *Table {
	t := &Table{Title: "Table IV — TPC-H query summary",
		Header: []string{"query", "scopes", "PIM section", "terms", "ops/scope"}}
	for _, q := range tpch.Queries() {
		section := "Filter only"
		if q.Full {
			section = "Full-query"
		}
		t.AddRow(q.Name, fmt.Sprintf("%d", q.Scopes), section,
			fmt.Sprintf("%d", len(q.Terms)), fmt.Sprintf("%d", q.OpsPerScope()))
	}
	return t
}

// AreaTable renders the §VI-A hardware-overhead estimate.
func AreaTable() *Table {
	rep := EstimateArea()
	t := &Table{Title: "Hardware overhead — scope buffer + SBV (paper: 0.092% / 0.22%)",
		Header: []string{"configuration", "raw bit ratio", "calibrated area"}}
	t.AddRow("LLC only (atomic/store/scope)",
		fmt.Sprintf("%.4f%%", rep.LLCOnlyRawPct), fmt.Sprintf("%.3f%%", rep.LLCOnlyCalibratedPct))
	t.AddRow("all caches (scope-relaxed)",
		fmt.Sprintf("%.4f%%", rep.AllCachesRawPct), fmt.Sprintf("%.3f%%", rep.AllCachesCalibratedPct))
	return t
}

// ---- Ablation (§IV coherence hardware) ----

// ablationVariant is one coherence-hardware configuration.
type ablationVariant struct {
	name        string
	noSB, noSBV bool
}

// ablationVariants quantifies the coherence hardware of §IV: the scope
// buffer (avoids repeat scans) and the SBV (skips untouched sets).
// Without the SBV a scan pays one cycle per LLC set; without the scope
// buffer every PIM op scans.
var ablationVariants = []ablationVariant{
	{"scope buffer + SBV (paper)", false, false},
	{"no scope buffer", true, false},
	{"no SBV", false, true},
	{"neither", true, true},
}

func planAblation(opts Options) []SimJob {
	lw := &lazyYCSB{p: opts.lastRecordsParams(), snap: opts.Snapshots}
	extra := ycsbIdentity(lw.p)
	specs := make([]SimJob, len(ablationVariants))
	for i, v := range ablationVariants {
		v := v
		specs[i] = SimJob{
			Key:  "ablation/" + v.name,
			Base: DefaultConfig(),
			Mutate: func(cfg *Config) {
				cfg.Model = Scope
				cfg.NoScopeBuffer = v.noSB
				cfg.NoSBV = v.noSBV
			},
			Execute: countExec(func(cfg Config) (Result, error) {
				return ycsb.Run(lw.workload(), cfg)
			}),
			Extra: extra,
		}
	}
	return specs
}

func ablationTableFrom(opts Options, rs *ResultSet) (*Table, error) {
	t := &Table{Title: fmt.Sprintf("Ablation — §IV coherence hardware (YCSB, %d scopes, scope model)",
		ycsb.ScopeCount(opts.lastRecordsParams())),
		Header: []string{"configuration", "run time norm", "mean scan latency", "scans", "sb hit rate"}}
	var base float64
	for i, v := range ablationVariants {
		r, ok := rs.Lookup("ablation/" + v.name)
		if !ok {
			return nil, fmt.Errorf("ablation: missing point %q", v.name)
		}
		if i == 0 {
			base = float64(r.Cycles)
		}
		t.AddRow(v.name,
			report.F(float64(r.Cycles)/base),
			report.F(r.Stats["llc.scan_latency_mean"]),
			report.F(r.Stats["llc.scan_count"]),
			report.F(r.Stats["llc.sb_hit_rate"]))
	}
	return t, nil
}

// ablationSpec quantifies the coherence hardware of §IV (see
// ablationVariants).
func ablationSpec() ExperimentSpec {
	s := ExperimentSpec{
		Name: "ablation",
		Plan: func(opts Options) ([]SimJob, error) { return planAblation(opts), nil },
	}
	s.Artifacts, s.Render = singleArtifact("ablation",
		func(Options) []string {
			keys := make([]string, len(ablationVariants))
			for i, v := range ablationVariants {
				keys[i] = "ablation/" + v.name
			}
			return keys
		},
		func(opts Options, rs *ResultSet) ([]ReportItem, error) {
			return one(ablationTableFrom(opts, rs))
		})
	return s
}

// ---- Scope buffer sizing (§IV-A) ----

// sbGeometries are the swept scope-buffer shapes, largest last (the
// normalization baseline).
var sbGeometries = []struct{ sets, ways int }{{1, 1}, {4, 1}, {16, 1}, {64, 1}, {64, 4}}

func planSBSize(opts Options) []SimJob {
	lw := &lazyYCSB{p: opts.lastRecordsParams(), snap: opts.Snapshots}
	extra := ycsbIdentity(lw.p)
	specs := make([]SimJob, len(sbGeometries))
	for i, g := range sbGeometries {
		g := g
		specs[i] = SimJob{
			Key:  fmt.Sprintf("sbsize/%dx%d", g.sets, g.ways),
			Base: DefaultConfig(),
			Mutate: func(cfg *Config) {
				cfg.Model = Scope
				cfg.LLCScopeBufSets, cfg.LLCScopeBufWays = g.sets, g.ways
			},
			Execute: countExec(func(cfg Config) (Result, error) {
				return ycsb.Run(lw.workload(), cfg)
			}),
			Extra: extra,
		}
	}
	return specs
}

func sbsizeTableFrom(opts Options, rs *ResultSet) (*Table, error) {
	t := &Table{Title: fmt.Sprintf("Scope buffer sizing (YCSB, %d scopes, scope model)",
		ycsb.ScopeCount(opts.lastRecordsParams())),
		Header: []string{"geometry", "entries", "hit rate", "run time norm"}}
	results := make([]Result, len(sbGeometries))
	for i, g := range sbGeometries {
		r, ok := rs.Lookup(fmt.Sprintf("sbsize/%dx%d", g.sets, g.ways))
		if !ok {
			return nil, fmt.Errorf("sbsize: missing point %dx%d", g.sets, g.ways)
		}
		results[i] = r
	}
	// Normalize against the largest geometry (the last point).
	base := float64(results[len(results)-1].Cycles)
	for i, g := range sbGeometries {
		t.AddRow(fmt.Sprintf("%d sets x %d ways", g.sets, g.ways),
			fmt.Sprintf("%d", g.sets*g.ways),
			report.F(results[i].Stats["llc.sb_hit_rate"]),
			report.F(float64(results[i].Cycles)/base))
	}
	return t, nil
}

// sbsizeSpec reproduces the §IV-A sizing claim: "even a small-sized
// scope buffer is sufficient to achieve close to the maximum possible
// hit rate".
func sbsizeSpec() ExperimentSpec {
	s := ExperimentSpec{
		Name: "sbsize",
		Plan: func(opts Options) ([]SimJob, error) { return planSBSize(opts), nil },
	}
	s.Artifacts, s.Render = singleArtifact("sbsize",
		func(Options) []string {
			keys := make([]string, len(sbGeometries))
			for i, g := range sbGeometries {
				keys[i] = fmt.Sprintf("sbsize/%dx%d", g.sets, g.ways)
			}
			return keys
		},
		func(opts Options, rs *ResultSet) ([]ReportItem, error) {
			return one(sbsizeTableFrom(opts, rs))
		})
	return s
}

// ---- Multi-module extension ----

// multimodCounts are the swept PIM module counts.
var multimodCounts = []int{1, 2, 4}

func planMultiModule(opts Options) []SimJob {
	lw := &lazyYCSB{p: opts.lastRecordsParams(), snap: opts.Snapshots}
	extra := ycsbIdentity(lw.p)
	specs := make([]SimJob, len(multimodCounts))
	for i, n := range multimodCounts {
		n := n
		specs[i] = SimJob{
			Key:  fmt.Sprintf("multimod/n=%d", n),
			Base: DefaultConfig(),
			Mutate: func(cfg *Config) {
				cfg.Model = Scope
				cfg.PIMModules = n
			},
			Execute: countExec(func(cfg Config) (Result, error) {
				return ycsb.Run(lw.workload(), cfg)
			}),
			Extra: extra,
		}
	}
	return specs
}

func multimodTableFrom(opts Options, rs *ResultSet) (*Table, error) {
	t := &Table{Title: fmt.Sprintf("Extension — multiple PIM modules (YCSB, %d scopes, scope model)",
		ycsb.ScopeCount(opts.lastRecordsParams())),
		Header: []string{"modules", "run time norm", "mean buffer len", "peak buffer"}}
	var base float64
	for i, n := range multimodCounts {
		r, ok := rs.Lookup(fmt.Sprintf("multimod/n=%d", n))
		if !ok {
			return nil, fmt.Errorf("multimod: missing point n=%d", n)
		}
		if i == 0 {
			base = float64(r.Cycles)
		}
		t.AddRow(fmt.Sprintf("%d", n),
			report.F(float64(r.Cycles)/base),
			report.F(r.Stats["pim.buffer_len_mean"]),
			report.F(r.Stats["pim.peak_buffer"]))
	}
	return t, nil
}

// multimodSpec is an extension experiment: scopes distributed over N
// PIM modules ("different PIM modules ... connect to the same host",
// §II-A). More modules add module-level buffering and arrival
// bandwidth.
func multimodSpec() ExperimentSpec {
	s := ExperimentSpec{
		Name: "multimod",
		Plan: func(opts Options) ([]SimJob, error) { return planMultiModule(opts), nil },
	}
	s.Artifacts, s.Render = singleArtifact("multimod",
		func(Options) []string {
			keys := make([]string, len(multimodCounts))
			for i, n := range multimodCounts {
				keys[i] = fmt.Sprintf("multimod/n=%d", n)
			}
			return keys
		},
		func(opts Options, rs *ResultSet) ([]ReportItem, error) {
			return one(multimodTableFrom(opts, rs))
		})
	return s
}
