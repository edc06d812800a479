package tpch

import (
	"testing"

	"bulkpim/internal/core"
	"bulkpim/internal/mem"
	"bulkpim/internal/pimdb"
	"bulkpim/internal/system"
)

// TestTableIV checks the query inventory against the paper's Table IV.
func TestTableIV(t *testing.T) {
	want := map[string]struct {
		scopes int
		full   bool
	}{
		"q1": {1832, true}, "q2": {66, false}, "q3": {2336, false},
		"q4": {2290, false}, "q5": {508, false}, "q6": {1832, true},
		"q7": {1882, false}, "q8": {566, false}, "q10": {2290, false},
		"q11": {4, false}, "q12": {1832, false}, "q14": {1832, false},
		"q15": {1832, false}, "q16": {62, false}, "q17": {62, false},
		"q19": {1894, false}, "q20": {2294, false}, "q21": {1832, false},
		"q22": {46, true},
	}
	qs := Queries()
	if len(qs) != 19 {
		t.Fatalf("%d queries, want 19 (q9, q13, q18 have no PIM section)", len(qs))
	}
	for _, q := range qs {
		w, ok := want[q.Name]
		if !ok {
			t.Fatalf("unexpected query %s", q.Name)
		}
		if q.Scopes != w.scopes || q.Full != w.full {
			t.Errorf("%s: scopes=%d full=%v, want %d/%v", q.Name, q.Scopes, q.Full, w.scopes, w.full)
		}
		if q.Runs != 10 {
			t.Errorf("%s: runs=%d, want 10", q.Name, q.Runs)
		}
		if len(q.Terms) == 0 {
			t.Errorf("%s: no predicate terms", q.Name)
		}
		if q.OpsPerScope() < 2 {
			t.Errorf("%s: implausible ops/scope", q.Name)
		}
	}
	// The paper singles out q2, q12, q19 as having more and longer PIM ops
	// per scope than other filter-only queries (§VII).
	q12, _ := QueryByName("q12")
	q14, _ := QueryByName("q14")
	q19, _ := QueryByName("q19")
	if q12.OpsPerScope() <= q14.OpsPerScope() || q19.OpsPerScope() <= q12.OpsPerScope() {
		t.Error("q19 > q12 > q14 ops/scope expected")
	}
}

func TestQueryByName(t *testing.T) {
	if _, ok := QueryByName("q6"); !ok {
		t.Fatal("q6 missing")
	}
	if _, ok := QueryByName("q9"); ok {
		t.Fatal("q9 must not exist (no PIM section)")
	}
}

// Functional check: the compiled PIM filter of a query produces exactly
// the oracle's match bits.
func TestCompiledFilterMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("functional PIM execution is slow")
	}
	layout := pimdb.DefaultLayout()
	bk := mem.NewBacking()
	base := mem.DefaultPIMBase
	scope := mem.ScopeID(0)
	InitScope(bk, layout, base, scope)
	for _, name := range []string{"q6", "q12", "q19"} {
		q, _ := QueryByName(name)
		for _, op := range q.Compile(layout) {
			op.Apply(bk, base, 1)
		}
		line := make([]byte, mem.LineSize)
		matches := 0
		for a := 0; a < layout.DataArrays; a++ {
			bk.ReadLine(layout.ResultLine(base, a), line)
			for r := 0; r < layout.RecordsPerArray(); r++ {
				pos := a*layout.RecordsPerArray() + r
				want := q.Eval(scope, pos)
				if pimdb.ResultBit(line, r) != want {
					t.Fatalf("%s: record %d match=%v want %v", name, pos, pimdb.ResultBit(line, r), want)
				}
				if want {
					matches++
				}
			}
		}
		if matches == 0 || matches == layout.RecordsPerScope() {
			t.Errorf("%s: degenerate selectivity (%d matches)", name, matches)
		}
	}
}

// End-to-end functional run of a small query under every proposed model.
func TestFunctionalQueryAllModels(t *testing.T) {
	if testing.Short() {
		t.Skip("functional PIM execution is slow")
	}
	q, _ := QueryByName("q11") // 4 scopes: smallest
	w := NewWorkload(q, 2, 1.0, true)
	w.Runs = 2
	for _, model := range core.ProposedModels() {
		cfg := system.Default()
		cfg.Model = model
		cfg.Cores = 2
		res, err := Run(w, cfg)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if res.Violations != 0 {
			t.Errorf("%v: %d violations", model, res.Violations)
		}
		wantOps := float64(w.Scopes * q.OpsPerScope() * w.Runs)
		if got := res.Stats["pim.ops_executed"]; got != wantOps {
			t.Errorf("%v: %v PIM ops executed, want %v", model, got, wantOps)
		}
	}
}

// Timing smoke: every model completes a scaled q6 and full queries read
// less than filter queries.
func TestTimingRunsAndFullQueryReadsLess(t *testing.T) {
	cfg := system.Default()
	q6, _ := QueryByName("q6")   // full
	q14, _ := QueryByName("q14") // filter, same scope count
	run := func(q QuerySpec, model core.Model) system.Result {
		w := NewWorkload(q, 4, 0.02, false) // ~36 scopes, 1 run... scale
		w.Runs = 1
		c := cfg
		c.Model = model
		res, err := Run(w, c)
		if err != nil {
			t.Fatalf("%s/%v: %v", q.Name, model, err)
		}
		return res
	}
	for _, model := range core.AllVariants() {
		run(q14, model)
	}
	full := run(q6, core.Scope)
	filter := run(q14, core.Scope)
	if full.Stats["cpu.loads"] >= filter.Stats["cpu.loads"] {
		t.Errorf("full-query loads %v should be below filter loads %v",
			full.Stats["cpu.loads"], filter.Stats["cpu.loads"])
	}
}
