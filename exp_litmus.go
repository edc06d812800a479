package bulkpim

// Fig. 1 litmus experiment: the §I stale-read / happens-before-cycle
// scenario swept over adversary timings for every variant. Each
// model's sweep is one planned job whose verdict is folded into the
// harness Result shape, so Fig. 1 flows through the same
// plan/execute/report, cache and coordinator machinery as the
// simulation sweeps.

import (
	"fmt"
)

// fig1Models is the paper's Fig. 1 variant list.
var fig1Models = []Model{Naive, SWFlush, Atomic, Store, Scope, ScopeRelaxed}

func fig1Key(m Model) string { return fmt.Sprintf("fig1/model=%s", m) }

// Result.Stats keys carrying a litmus sweep's verdict (1 = observed).
const (
	litmusStaleStat      = "litmus.stale"
	litmusCycleStat      = "litmus.cycle"
	litmusIncompleteStat = "litmus.incomplete"
)

// litmusResult folds a sweep's outcomes into the Result shape.
func litmusResult(outs []LitmusOutcome) Result {
	flag := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	stale, cycle := LitmusVulnerable(outs)
	incomplete := false
	for _, o := range outs {
		if !o.Completed {
			incomplete = true
		}
	}
	return Result{Stats: map[string]float64{
		litmusStaleStat:      flag(stale),
		litmusCycleStat:      flag(cycle),
		litmusIncompleteStat: flag(incomplete),
	}}
}

// planFig1 enumerates one job per model, each running the full
// adversary-timing sweep. The delays are part of the cache identity.
func planFig1() []SimJob {
	extra := fmt.Sprintf("litmus:fig1:delays=%v", LitmusDefaultSweep())
	var specs []SimJob
	for _, m := range fig1Models {
		m := m
		specs = append(specs, SimJob{
			Key:    fig1Key(m),
			Base:   DefaultConfig(),
			Mutate: func(cfg *Config) { cfg.Model = m },
			Execute: countExec(func(cfg Config) (Result, error) {
				outs, err := SweepFig1(cfg.Model, LitmusDefaultSweep())
				if err != nil {
					return Result{}, err
				}
				return litmusResult(outs), nil
			}),
			Extra: extra,
		})
	}
	return specs
}

// fig1Keys enumerates the litmus sweep's job keys, one per model.
func fig1Keys() []string {
	out := make([]string, len(fig1Models))
	for i, m := range fig1Models {
		out[i] = fig1Key(m)
	}
	return out
}

func fig1Spec() ExperimentSpec {
	s := ExperimentSpec{
		Name: "fig1",
		Plan: func(opts Options) ([]SimJob, error) { return planFig1(), nil },
	}
	s.Artifacts, s.Render = singleArtifact("fig1",
		func(Options) []string { return fig1Keys() },
		func(_ Options, rs *ResultSet) ([]ReportItem, error) {
			return one(fig1TableFrom(rs))
		})
	return s
}

// fig1TableFrom tabulates the verdicts (§I / Fig. 1).
func fig1TableFrom(rs *ResultSet) (*Table, error) {
	t := &Table{Title: "Fig1 — litmus: stale read / happens-before cycle under adversarial prefetch",
		Header: []string{"model", "stale read", "hb cycle", "guaranteed correct"}}
	for _, m := range fig1Models {
		r, ok := rs.Lookup(fig1Key(m))
		if !ok {
			return nil, fmt.Errorf("fig1: missing sweep for %s", m)
		}
		stale := r.Stats[litmusStaleStat] != 0
		cycle := r.Stats[litmusCycleStat] != 0
		incomplete := r.Stats[litmusIncompleteStat] != 0
		verdict := "yes"
		if stale || cycle || incomplete {
			verdict = "NO"
		}
		staleS := fmt.Sprintf("%v", stale)
		if incomplete {
			staleS += " (stuck reads)"
		}
		t.AddRow(m.String(), staleS, fmt.Sprintf("%v", cycle), verdict)
	}
	return t, nil
}
