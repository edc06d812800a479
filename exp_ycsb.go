package bulkpim

// YCSB-swept experiments: Fig. 3 (coherence baselines), Fig. 7 + Fig. 10
// (the six variants plus system statistics), Fig. 11a/b (harness
// ablations), Fig. 12 (8MB LLC) and Fig. 13 (8 threads / 16 cores).
// Each is an ExperimentSpec whose Plan enumerates (records x model)
// grid points and whose artifacts fold looked-up results into series.
// The grid — key format included — is the contract between the
// phases: Plan, Artifacts and Render all enumerate it through
// ycsbGrid, so jobs, countdown key sets and lookups cannot drift.

import (
	"fmt"
	"strings"
	"sync"

	"bulkpim/internal/report"
	"bulkpim/internal/workload/ycsb"
)

// fig3Variants / fig7Variants are the paper's series.
var (
	fig3Variants = []Model{Naive, Uncacheable, SWFlush}
	fig7Variants = []Model{Naive, SWFlush, Atomic, Store, Scope, ScopeRelaxed}
)

// variantNames maps models to series names.
func variantNames(models []Model) []string {
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = m.String()
	}
	return out
}

// ycsbParams builds the workload parameter set for one record count at
// this option's scale and seed.
func (o Options) ycsbParams(records int, modifyParams func(*ycsb.Params)) ycsb.Params {
	p := ycsb.DefaultParams(records)
	p.Operations = o.ycsbOps()
	p.Seed = o.seed()
	if modifyParams != nil {
		modifyParams(&p)
	}
	return p
}

// ycsbIdentity renders the full workload parameter set as a SimJob
// Extra string, so runs at different scales, seeds or thread counts
// never alias in the result cache even when their Configs agree.
func ycsbIdentity(p ycsb.Params) string { return fmt.Sprintf("ycsb:%+v", p) }

// ycsbPoint is one (records, model) grid point, identified before
// execution.
type ycsbPoint struct {
	Key     string
	Records int
	Scopes  int
	Model   Model
}

func ycsbKey(prefix string, records int, m Model) string {
	return fmt.Sprintf("%s/records=%d/model=%s", prefix, records, m)
}

// ycsbGrid enumerates a sweep's grid points — the shared contract
// between Plan (which turns them into jobs) and Report (which looks
// their results up by key).
func ycsbGrid(opts Options, prefix string, models []Model, modifyParams func(*ycsb.Params)) []ycsbPoint {
	var grid []ycsbPoint
	for _, records := range opts.ycsbRecordCounts() {
		p := opts.ycsbParams(records, modifyParams)
		for _, m := range models {
			grid = append(grid, ycsbPoint{
				Key:     ycsbKey(prefix, records, m),
				Records: records,
				Scopes:  ycsb.ScopeCount(p),
				Model:   m,
			})
		}
	}
	return grid
}

// lazyYCSB defers workload generation to the first executing job of a
// record count. Planning therefore touches no workload at all, a
// fully-cached run never generates one, and the sync.Once makes the
// first concurrent use safe; afterwards the workload is frozen
// (Precompute) and shared read-only by every model variant, so all
// models measure the identical operation sequence.
type lazyYCSB struct {
	p    ycsb.Params
	once sync.Once
	w    *ycsb.Workload
}

func (l *lazyYCSB) workload() *ycsb.Workload {
	l.once.Do(func() {
		genCount.Add(1)
		l.w = ycsb.New(l.p)
		l.w.Precompute()
	})
	return l.w
}

// planYCSB enumerates one job per (records, model) grid point. One
// lazy workload is shared per record count.
func planYCSB(opts Options, prefix string, models []Model,
	modifyParams func(*ycsb.Params), modify func(*Config)) []SimJob {
	var specs []SimJob
	for _, records := range opts.ycsbRecordCounts() {
		lw := &lazyYCSB{p: opts.ycsbParams(records, modifyParams)}
		extra := ycsbIdentity(lw.p)
		for _, m := range models {
			m := m
			specs = append(specs, SimJob{
				Key:  ycsbKey(prefix, records, m),
				Base: DefaultConfig(),
				Mutate: func(cfg *Config) {
					cfg.Model = m
					if modify != nil {
						modify(cfg)
					}
				},
				Execute: countExec(func(cfg Config) (Result, error) {
					return ycsb.Run(lw.workload(), cfg)
				}),
				Extra: extra,
			})
		}
	}
	return specs
}

// runRecord is one simulated run's outcome inside a sweep.
type runRecord struct {
	Model   Model
	Records int
	Scopes  int
	Result  Result
}

// gridKeys projects a grid onto its job keys — the per-artifact key
// set the streaming countdown tracks.
func gridKeys(grid []ycsbPoint) []string {
	out := make([]string, len(grid))
	for i, pt := range grid {
		out[i] = pt.Key
	}
	return out
}

// gridRecords folds a grid's looked-up results into runRecords,
// skipping points whose job failed (absent from the set).
func gridRecords(grid []ycsbPoint, rs *ResultSet) []runRecord {
	var out []runRecord
	for _, pt := range grid {
		r, ok := rs.Lookup(pt.Key)
		if !ok {
			continue
		}
		out = append(out, runRecord{Model: pt.Model, Records: pt.Records, Scopes: pt.Scopes, Result: r})
	}
	return out
}

// normalizeToNaive converts a sweep into per-point ratios against Naive.
// It fails explicitly when a record count has no Naive baseline — the
// model list omitted Naive, or its point errored — instead of emitting
// +Inf ratios.
func normalizeToNaive(recs []runRecord) (map[int]map[string]float64, error) {
	base := map[int]float64{}
	for _, r := range recs {
		if r.Model == Naive {
			base[r.Records] = float64(r.Result.Cycles)
		}
	}
	out := map[int]map[string]float64{}
	for _, r := range recs {
		b := base[r.Records]
		if b == 0 {
			return nil, fmt.Errorf("normalize: no Naive baseline for records=%d (sweep must include a successful Naive point)", r.Records)
		}
		if out[r.Records] == nil {
			out[r.Records] = map[string]float64{}
		}
		out[r.Records][r.Model.String()] = float64(r.Result.Cycles) / b
	}
	return out, nil
}

func scopesOf(recs []runRecord, records int) int {
	for _, r := range recs {
		if r.Records == records {
			return r.Scopes
		}
	}
	return 0
}

// ---- Fig. 3 ----

// fig3Spec reproduces Fig. 3: Naive vs Uncacheable vs SW-Flush run
// time (normalized to Naive) over the record-count sweep.
func fig3Spec() ExperimentSpec {
	s := ExperimentSpec{
		Name: "fig3",
		Plan: func(opts Options) ([]SimJob, error) {
			return planYCSB(opts, "ycsb", fig3Variants, nil, nil), nil
		},
	}
	s.Artifacts, s.Render = singleArtifact("fig3",
		func(opts Options) []string {
			return gridKeys(ycsbGrid(opts, "ycsb", fig3Variants, nil))
		},
		func(opts Options, rs *ResultSet) ([]ReportItem, error) {
			return one(fig3Series(opts, rs))
		})
	return s
}

func fig3Series(opts Options, rs *ResultSet) (*Series, error) {
	recs := gridRecords(ycsbGrid(opts, "ycsb", fig3Variants, nil), rs)
	s := report.NewSeries("Fig3", "records", "run time / naive", variantNames(fig3Variants))
	norm, err := normalizeToNaive(recs)
	if err != nil {
		return nil, err
	}
	for _, records := range opts.ycsbRecordCounts() {
		s.AddPoint(float64(records), norm[records])
	}
	return s, nil
}

// ---- Fig. 7 + Fig. 10 ----

// ycsbFigures bundles the series Figs. 7 and 10 share.
type ycsbFigures struct {
	Abs          *Series // Fig. 7a: absolute run time (seconds)
	Norm         *Series // Fig. 7b: run time normalized to Naive
	BufLen       *Series // Fig. 10a: mean PIM buffer length on arrival
	UniqueScopes *Series // Fig. 10b: mean unique scopes in PIM buffer
	ScanLatency  *Series // Fig. 10c: mean LLC scan latency (cycles)
	SkipRatio    *Series // Fig. 10d: SBV mean skipped-set ratio
}

// buildYCSBFigures derives all YCSB series from one sweep, X = scope count.
func buildYCSBFigures(opts Options, prefix string, recs []runRecord) (*ycsbFigures, error) {
	names := variantNames(fig7Variants)
	f := &ycsbFigures{
		Abs:          report.NewSeries(prefix+"a", "scopes", "run time [s]", names),
		Norm:         report.NewSeries(prefix+"b", "scopes", "run time / naive", names),
		BufLen:       report.NewSeries(prefix+"-10a", "scopes", "mean PIM buffer len", names),
		UniqueScopes: report.NewSeries(prefix+"-10b", "scopes", "mean unique scopes", names),
		ScanLatency:  report.NewSeries(prefix+"-10c", "scopes", "mean LLC scan latency", names),
		SkipRatio:    report.NewSeries(prefix+"-10d", "scopes", "SBV skip ratio", names),
	}
	norm, err := normalizeToNaive(recs)
	if err != nil {
		return nil, err
	}
	for _, records := range opts.ycsbRecordCounts() {
		x := float64(scopesOf(recs, records))
		abs := map[string]float64{}
		buf := map[string]float64{}
		uniq := map[string]float64{}
		scan := map[string]float64{}
		skip := map[string]float64{}
		for _, r := range recs {
			if r.Records != records {
				continue
			}
			name := r.Model.String()
			abs[name] = r.Result.Seconds
			buf[name] = r.Result.Stats["pim.buffer_len_mean"]
			uniq[name] = r.Result.Stats["pim.unique_scopes_mean"]
			scan[name] = r.Result.Stats["llc.scan_latency_mean"]
			skip[name] = r.Result.Stats["llc.sbv_skip_ratio"]
		}
		f.Abs.AddPoint(x, abs)
		f.Norm.AddPoint(x, norm[records])
		f.BufLen.AddPoint(x, buf)
		f.UniqueScopes.AddPoint(x, uniq)
		f.ScanLatency.AddPoint(x, scan)
		f.SkipRatio.AddPoint(x, skip)
	}
	return f, nil
}

// fig7Spec reproduces Fig. 7 (run times) and Fig. 10 (system
// statistics) from one YCSB sweep over all six variants.
func fig7Spec() ExperimentSpec {
	keys := func(opts Options) []string {
		return gridKeys(ycsbGrid(opts, "ycsb", fig7Variants, nil))
	}
	return ExperimentSpec{
		Name:    "fig7",
		Bundles: []string{"fig10"},
		Plan: func(opts Options) ([]SimJob, error) {
			return planYCSB(opts, "ycsb", fig7Variants, nil, nil), nil
		},
		// Both artifacts fold the whole sweep (Fig. 10's statistics are
		// cut against the same Naive baselines), so they share one key
		// set and stream out together when the sweep settles.
		Artifacts: func(opts Options) []Artifact {
			ks := keys(opts)
			return []Artifact{{Name: "fig7", Keys: ks}, {Name: "fig10", Keys: ks}}
		},
		Render: func(opts Options, artifact string, rs *ResultSet) ([]ReportItem, error) {
			f, err := buildYCSBFigures(opts, "Fig7", gridRecords(ycsbGrid(opts, "ycsb", fig7Variants, nil), rs))
			if err != nil {
				return nil, err
			}
			switch artifact {
			case "fig7":
				return []ReportItem{f.Abs, f.Norm}, nil
			case "fig10":
				return []ReportItem{f.BufLen, f.UniqueScopes, f.ScanLatency, f.SkipRatio}, nil
			}
			return nil, fmt.Errorf("fig7: unknown artifact %q", artifact)
		},
	}
}

// ---- Fig. 11a / Fig. 11b ----

// figModifiedSpec describes a Fig. 11 harness ablation: a fig7-variant
// sweep under a modified config, referenced against the "basic-naive"
// series — the bounded-buffer Naive baseline from the base "ycsb"
// sweep.
func figModifiedSpec(name string, modify func(*Config)) ExperimentSpec {
	prefix := strings.ToLower(name)
	s := ExperimentSpec{
		Name: prefix,
		Plan: func(opts Options) ([]SimJob, error) {
			jobs := planYCSB(opts, prefix, fig7Variants, nil, modify)
			return append(jobs, planYCSB(opts, "ycsb", []Model{Naive}, nil, nil)...), nil
		},
	}
	s.Artifacts, s.Render = singleArtifact(prefix,
		func(opts Options) []string {
			// The modified sweep plus the base-config Naive reference —
			// the same two grids Plan enumerates.
			return append(gridKeys(ycsbGrid(opts, prefix, fig7Variants, nil)),
				gridKeys(ycsbGrid(opts, "ycsb", []Model{Naive}, nil))...)
		},
		func(opts Options, rs *ResultSet) ([]ReportItem, error) {
			return one(figModifiedSeries(opts, name, rs))
		})
	return s
}

func figModifiedSeries(opts Options, name string, rs *ResultSet) (*Series, error) {
	prefix := strings.ToLower(name)
	recs := gridRecords(ycsbGrid(opts, prefix, fig7Variants, nil), rs)
	baseNaive := gridRecords(ycsbGrid(opts, "ycsb", []Model{Naive}, nil), rs)
	names := append(variantNames(fig7Variants), "basic-naive")
	s := report.NewSeries(name, "scopes", "run time / naive", names)
	norm, err := normalizeToNaive(recs)
	if err != nil {
		return nil, err
	}
	for _, records := range opts.ycsbRecordCounts() {
		vals := norm[records]
		var naiveCycles float64
		for _, r := range recs {
			if r.Records == records && r.Model == Naive {
				naiveCycles = float64(r.Result.Cycles)
			}
		}
		for _, r := range baseNaive {
			if r.Records == records {
				vals["basic-naive"] = float64(r.Result.Cycles) / naiveCycles
			}
		}
		s.AddPoint(float64(scopesOf(recs, records)), vals)
	}
	return s, nil
}

// fig11aSpec: unbounded PIM module buffer.
func fig11aSpec() ExperimentSpec {
	return figModifiedSpec("Fig11a", func(cfg *Config) { cfg.PIMBufferSize = 0 })
}

// fig11bSpec: zero PIM logic execution time.
func fig11bSpec() ExperimentSpec {
	return figModifiedSpec("Fig11b", func(cfg *Config) { cfg.PIMZeroLatency = true })
}

// ---- Fig. 12 ----

func fig12Modify(cfg *Config) {
	cfg.LLCSets = 8192 // 8MB, 16-way, 64B lines
}

// fig12Spec reproduces the 8MB-LLC experiment: run time plus the
// scan-latency and SBV statistics (Fig. 12a-c).
func fig12Spec() ExperimentSpec {
	s := ExperimentSpec{
		Name: "fig12",
		Plan: func(opts Options) ([]SimJob, error) {
			return planYCSB(opts, "fig12", fig7Variants, nil, fig12Modify), nil
		},
	}
	s.Artifacts, s.Render = singleArtifact("fig12",
		func(opts Options) []string {
			return gridKeys(ycsbGrid(opts, "fig12", fig7Variants, nil))
		},
		func(opts Options, rs *ResultSet) ([]ReportItem, error) {
			f, err := buildYCSBFigures(opts, "Fig12", gridRecords(ycsbGrid(opts, "fig12", fig7Variants, nil), rs))
			if err != nil {
				return nil, err
			}
			return []ReportItem{f.Norm, f.ScanLatency, f.SkipRatio}, nil
		})
	return s
}

// ---- Fig. 13 ----

func fig13Params(p *ycsb.Params) { p.Threads = 8 }
func fig13Modify(cfg *Config)    { cfg.Cores = 16 }

// fig13Spec reproduces the 8-thread / 16-core experiment.
func fig13Spec() ExperimentSpec {
	s := ExperimentSpec{
		Name: "fig13",
		Plan: func(opts Options) ([]SimJob, error) {
			return planYCSB(opts, "fig13", fig7Variants, fig13Params, fig13Modify), nil
		},
	}
	s.Artifacts, s.Render = singleArtifact("fig13",
		func(opts Options) []string {
			return gridKeys(ycsbGrid(opts, "fig13", fig7Variants, fig13Params))
		},
		func(opts Options, rs *ResultSet) ([]ReportItem, error) {
			return one(fig13Series(opts, rs))
		})
	return s
}

func fig13Series(opts Options, rs *ResultSet) (*Series, error) {
	recs := gridRecords(ycsbGrid(opts, "fig13", fig7Variants, fig13Params), rs)
	s := report.NewSeries("Fig13", "scopes", "run time / naive", variantNames(fig7Variants))
	norm, err := normalizeToNaive(recs)
	if err != nil {
		return nil, err
	}
	for _, records := range opts.ycsbRecordCounts() {
		s.AddPoint(float64(scopesOf(recs, records)), norm[records])
	}
	return s, nil
}
