package bulkpim

// TPC-H experiments: Fig. 8 (per-query run time normalized to Naive)
// and Fig. 9 (scope buffer hit rates — the TPC-H columns from the same
// runs, plus the YCSB column from a dedicated batch). One spec plans
// the whole (query x model) grid plus the fig9 YCSB points, so a
// distributed run ships them all as one unit.

import (
	"errors"
	"fmt"
	"sync"

	"bulkpim/internal/report"
	"bulkpim/internal/workload/tpch"
	"bulkpim/internal/workload/ycsb"
)

// tpchIdentity is the TPC-H workload identity for the result cache:
// query name plus everything NewWorkload derives the instruction
// streams from.
func tpchIdentity(q tpch.QuerySpec, threads int, scale float64, verify bool) string {
	return fmt.Sprintf("tpch:%s:threads=%d:scale=%g:verify=%v", q.Name, threads, scale, verify)
}

func tpchKey(query string, m Model) string {
	return fmt.Sprintf("tpch/%s/model=%s", query, m)
}

// tpchThreads is the paper's TPC-H worker count.
const tpchThreads = 4

// lazyTPCH defers workload construction to the first executing job of
// a query, mirroring lazyYCSB: planning touches no workload and a
// fully-cached run constructs none. The prepared workload is shared
// read-only by the query's model variants.
type lazyTPCH struct {
	q       tpch.QuerySpec
	threads int
	scale   float64
	verify  bool
	once    sync.Once
	w       *tpch.Workload
}

func (l *lazyTPCH) workload() *tpch.Workload {
	l.once.Do(func() {
		genCount.Add(1)
		l.w = tpch.NewWorkload(l.q, l.threads, l.scale, l.verify)
	})
	return l.w
}

// planTPCH enumerates one job per (query, model) point.
func planTPCH(opts Options, models []Model) []SimJob {
	var specs []SimJob
	for _, q := range tpch.Queries() {
		lw := &lazyTPCH{q: q, threads: tpchThreads, scale: opts.tpchScale()}
		extra := tpchIdentity(q, tpchThreads, opts.tpchScale(), false)
		for _, m := range models {
			m := m
			specs = append(specs, SimJob{
				Key:    tpchKey(q.Name, m),
				Base:   DefaultConfig(),
				Mutate: func(cfg *Config) { cfg.Model = m },
				Execute: countExec(func(cfg Config) (Result, error) {
					return tpch.Run(lw.workload(), cfg)
				}),
				Extra: extra,
			})
		}
	}
	return specs
}

// fig9YCSBKey identifies the Fig. 9 YCSB-column points.
func fig9YCSBKey(m Model) string { return fmt.Sprintf("fig9-ycsb/model=%s", m) }

// planFig9YCSB enumerates the YCSB column of Fig. 9: the proposed
// models on the sweep's largest workload.
func planFig9YCSB(opts Options) []SimJob {
	lw := &lazyYCSB{p: opts.lastRecordsParams()}
	extra := ycsbIdentity(lw.p)
	var specs []SimJob
	for _, m := range ProposedModels() {
		m := m
		specs = append(specs, SimJob{
			Key:    fig9YCSBKey(m),
			Base:   DefaultConfig(),
			Mutate: func(cfg *Config) { cfg.Model = m },
			Execute: countExec(func(cfg Config) (Result, error) {
				return ycsb.Run(lw.workload(), cfg)
			}),
			Extra: extra,
		})
	}
	return specs
}

// tpchKeys enumerates the TPC-H grid's job keys for the given models.
func tpchKeys(models []Model) []string {
	var out []string
	for _, q := range tpch.Queries() {
		for _, m := range models {
			out = append(out, tpchKey(q.Name, m))
		}
	}
	return out
}

// fig9YCSBKeys enumerates the Fig. 9 YCSB-column job keys.
func fig9YCSBKeys() []string {
	var out []string
	for _, m := range ProposedModels() {
		out = append(out, fig9YCSBKey(m))
	}
	return out
}

func fig8Spec() ExperimentSpec {
	return ExperimentSpec{
		Name:    "fig8",
		Bundles: []string{"fig9"},
		Plan: func(opts Options) ([]SimJob, error) {
			return append(planTPCH(opts, fig7Variants), planFig9YCSB(opts)...), nil
		},
		// fig9's hit rates come from the same TPC-H runs as fig8 (its
		// table builder normalizes against the full grid, Naive
		// included), plus the dedicated YCSB-column batch.
		Artifacts: func(opts Options) []Artifact {
			tk := tpchKeys(fig7Variants)
			return []Artifact{
				{Name: "fig8", Keys: tk},
				{Name: "fig9", Keys: append(append([]string{}, tk...), fig9YCSBKeys()...)},
			}
		},
		Render: func(opts Options, artifact string, rs *ResultSet) ([]ReportItem, error) {
			f8, f9, err := fig8fig9Tables(rs)
			if err != nil {
				return nil, err
			}
			switch artifact {
			case "fig8":
				return []ReportItem{f8}, nil
			case "fig9":
				y, err := fig9YCSBTable(rs)
				if err != nil {
					return nil, err
				}
				return []ReportItem{f9, y}, nil
			}
			return nil, fmt.Errorf("fig8: unknown artifact %q", artifact)
		},
	}
}

// fig8fig9Tables folds the TPC-H grid's results into Fig. 8 (run time
// normalized to Naive, with the geometric mean) and Fig. 9's TPC-H
// scope-buffer hit rates.
func fig8fig9Tables(rs *ResultSet) (fig8, fig9 *Table, err error) {
	models := fig7Variants
	byQuery := map[string]map[string]float64{}
	hit := map[string]map[string]float64{}
	for _, q := range tpch.Queries() {
		byQuery[q.Name] = map[string]float64{}
		hit[q.Name] = map[string]float64{}
		for _, m := range models {
			r, ok := rs.Lookup(tpchKey(q.Name, m))
			if !ok {
				continue
			}
			byQuery[q.Name][m.String()] = float64(r.Cycles)
			hit[q.Name][m.String()] = r.Stats["llc.sb_hit_rate"]
		}
	}

	fig8 = &Table{Title: "Fig8 — TPC-H run time normalized to Naive"}
	fig8.Header = append([]string{"query"}, variantNames(models[1:])...)
	geo := map[string][]float64{}
	for _, q := range tpch.Queries() {
		row := []string{q.Name}
		naive := byQuery[q.Name][Naive.String()]
		if naive == 0 {
			return nil, nil, fmt.Errorf("fig8: no Naive baseline for %s", q.Name)
		}
		for _, m := range models[1:] {
			v := byQuery[q.Name][m.String()] / naive
			geo[m.String()] = append(geo[m.String()], v)
			row = append(row, report.F(v))
		}
		fig8.AddRow(row...)
	}
	row := []string{"geomean"}
	for _, m := range models[1:] {
		row = append(row, report.F(report.GeoMean(geo[m.String()])))
	}
	fig8.AddRow(row...)

	fig9 = &Table{Title: "Fig9 — scope buffer hit rate"}
	proposed := []Model{Atomic, Store, Scope, ScopeRelaxed}
	fig9.Header = append([]string{"query"}, variantNames(proposed)...)
	for _, q := range tpch.Queries() {
		row := []string{q.Name}
		for _, m := range proposed {
			row = append(row, report.F(hit[q.Name][m.String()]))
		}
		fig9.AddRow(row...)
	}
	return fig8, fig9, nil
}

// fig9YCSBTable renders the YCSB column of Fig. 9.
func fig9YCSBTable(rs *ResultSet) (*Table, error) {
	t := &Table{Title: "Fig9 (YCSB) — scope buffer hit rate", Header: []string{"model", "hit rate"}}
	for _, m := range ProposedModels() {
		r, ok := rs.Lookup(fig9YCSBKey(m))
		if !ok {
			return nil, fmt.Errorf("fig9-ycsb: missing point for %s", m)
		}
		t.AddRow(m.String(), report.F(r.Stats["llc.sb_hit_rate"]))
	}
	return t, nil
}

// Fig8Fig9 runs the TPC-H grid of Fig. 8 on in-process workers and
// returns Fig. 8 (per-query run time normalized to Naive, with the
// geometric mean) and Fig. 9's TPC-H scope buffer hit rates from the
// same runs. Every other experiment runs only through the registry
// (RunExperiment, StreamReport); this one exported figure function
// stays because the repo benchmark's tpch-timing workload renders its
// report check through it. Per-job failures are folded into the
// returned error.
func Fig8Fig9(opts Options) (fig8, fig9 *Table, err error) {
	groups, _ := dedupPlan([]plannedExperiment{{name: "tpch sweep", jobs: planTPCH(opts, fig7Variants)}})
	rs := &ResultSet{byKey: map[string]Result{}}
	var errs []error
	_, launchErr := execute(opts, groups, func(key string, r Result, jobErr error) {
		if jobErr != nil {
			errs = append(errs, fmt.Errorf("%s: %w", key, jobErr))
			return
		}
		rs.byKey[key] = r
	}, inProcess)
	if err := errors.Join(append(errs, launchErr)...); err != nil {
		return nil, nil, err
	}
	return fig8fig9Tables(rs)
}
