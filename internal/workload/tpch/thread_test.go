package tpch

import (
	"testing"

	"bulkpim/internal/core"
	"bulkpim/internal/cpu"
	"bulkpim/internal/system"
)

func drain(t *testing.T, th cpu.Thread, limit int) []cpu.Instr {
	t.Helper()
	var out []cpu.Instr
	for i := 0; i < limit; i++ {
		in, ok := th.Next()
		if !ok {
			return out
		}
		out = append(out, in)
	}
	t.Fatalf("thread did not terminate within %d instructions", limit)
	return nil
}

func TestThreadStructureFilterQuery(t *testing.T) {
	q, _ := QueryByName("q12")
	w := NewWorkload(q, 2, 1.0, false)
	w.Scopes = 8 // shrink for the test
	w.Runs = 3
	cfg := w.SystemConfig(system.Default())
	cfg.Model = core.Store
	s := system.New(cfg)
	threads := w.BuildThreads(s)
	instrs := drain(t, threads[0], 100000)
	var pims, bursts, barriers int
	for _, in := range instrs {
		switch in.Kind {
		case cpu.InstrPIMOp:
			pims++
		case cpu.InstrLoadBurst:
			bursts++
		case cpu.InstrBarrier:
			barriers++
		}
	}
	// Thread 0 owns 4 of 8 scopes; q12 has 12 ops/scope; 3 runs.
	if pims != 3*4*q.OpsPerScope() {
		t.Errorf("pim instrs = %d, want %d", pims, 3*4*q.OpsPerScope())
	}
	if bursts != 3*4 {
		t.Errorf("bursts = %d, want %d (one result region per scope per run)", bursts, 3*4)
	}
	if barriers != 3 {
		t.Errorf("barriers = %d, want 3", barriers)
	}
}

func TestFullQueryReadsOnlyAggregates(t *testing.T) {
	q, _ := QueryByName("q6")
	w := NewWorkload(q, 1, 1.0, false)
	w.Scopes = 2
	w.Runs = 1
	cfg := w.SystemConfig(system.Default())
	cfg.Model = core.Atomic
	s := system.New(cfg)
	instrs := drain(t, w.BuildThreads(s)[0], 100000)
	for _, in := range instrs {
		if in.Kind != cpu.InstrLoadBurst {
			continue
		}
		total := 0
		for _, r := range in.Burst {
			total += r.Bytes
		}
		if total > 64 {
			t.Fatalf("full-query burst reads %d bytes; must read only the aggregate line", total)
		}
	}
}

func TestScaledWorkloadBounds(t *testing.T) {
	q, _ := QueryByName("q3") // 2336 scopes
	w := NewWorkload(q, 4, 0.01, false)
	if w.Scopes < 4 || w.Scopes > 24 {
		t.Fatalf("scaled scopes = %d", w.Scopes)
	}
	if w.Runs < 1 {
		t.Fatal("runs must be at least 1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scale > 1 must panic")
		}
	}()
	NewWorkload(q, 4, 1.5, false)
}

// TestPendingSizedOnce pins the instruction buffer's up-front capacity as
// an upper bound on one run: no model (SW-Flush adds flushes, the scope
// models fences) and neither query shape makes it grow.
func TestPendingSizedOnce(t *testing.T) {
	for _, name := range []string{"q6", "q12"} {
		q, _ := QueryByName(name)
		for _, m := range core.AllVariants() {
			w := NewWorkload(q, 2, 1.0, false)
			w.Scopes, w.Runs = 6, 3
			cfg := w.SystemConfig(system.Default())
			cfg.Model = m
			for _, thr := range w.BuildThreads(system.New(cfg)) {
				th := thr.(*thread)
				want := cap(th.pending)
				drain(t, th, 100000)
				if got := cap(th.pending); got != want {
					t.Errorf("%s/%v: pending grew from cap %d to %d", name, m, want, got)
				}
			}
		}
	}
}
