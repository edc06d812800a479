package bulkpim

// A grid point's machine is built from buffers an earlier point
// released (System.Release, called by the YCSB and TPC-H runners).
// These tests pin that reuse to the fresh-memory results.

import (
	"math/rand"
	"reflect"
	"testing"

	"bulkpim/internal/sim"
)

// TestMachineReuseDifferential runs every smoke-grid point twice: once
// on a fresh machine, with the free lists emptied before it, and once on
// buffers a different point released. The second pass runs the points
// in shuffled order, so models and geometries mix: fig12's 8 MB LLC,
// fig13's core counts, the scope-buffer sweeps and the TPC-H and YCSB
// grids hand each other their line arrays, payload blocks and kernel
// wheels. It runs at Parallelism 1, where each point takes the buffers
// of the point before it, and at 4, where concurrent points share the
// free lists. Cycles, drain cycles, violations and every stat must be
// identical.
func TestMachineReuseDifferential(t *testing.T) {
	opts := Options{Scale: ScaleSmoke}
	groups, _, err := planGroups("all", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) < 2 {
		t.Fatalf("smoke grid has %d points", len(groups))
	}
	fresh := map[string]Result{}
	fpOf := map[string]string{}
	for _, g := range groups {
		for _, k := range g.keys {
			fpOf[k] = g.fp
		}
		sim.DropFreeLists()
		r, err := g.job.Run()
		if err != nil {
			t.Fatalf("%s: %v", g.keys[0], err)
		}
		fresh[g.fp] = r
	}

	for i, parallelism := range []int{1, 4} {
		// execute drops each job once it settles: plan afresh.
		shuffled, _, err := planGroups("all", opts)
		if err != nil {
			t.Fatal(err)
		}
		rand.New(rand.NewSource(int64(i+1))).Shuffle(len(shuffled), func(a, b int) {
			shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
		})
		// Prime the free lists with the last point's buffers, so the
		// first point also runs on a different point's.
		sim.DropFreeLists()
		if _, err := shuffled[len(shuffled)-1].job.Run(); err != nil {
			t.Fatal(err)
		}
		reused := map[string]Result{}
		o := opts
		o.Parallelism = parallelism
		if _, err := execute(o, shuffled, func(key string, r Result, jobErr error) {
			if jobErr != nil {
				t.Errorf("%s: %v", key, jobErr)
				return
			}
			reused[fpOf[key]] = r
		}, inProcess); err != nil {
			t.Fatal(err)
		}
		if len(reused) != len(fresh) {
			t.Fatalf("parallelism %d: %d points settled, want %d", parallelism, len(reused), len(fresh))
		}
		for _, g := range groups {
			f, r := fresh[g.fp], reused[g.fp]
			if f.Cycles != r.Cycles || f.DrainCycles != r.DrainCycles || f.Violations != r.Violations {
				t.Errorf("parallelism %d, %s: cycles %d/%d, drain %d/%d, violations %d/%d (fresh/reused)",
					parallelism, g.keys[0], f.Cycles, r.Cycles, f.DrainCycles, r.DrainCycles, f.Violations, r.Violations)
			}
			if !reflect.DeepEqual(f.Stats, r.Stats) {
				t.Errorf("parallelism %d, %s: stats differ\nfresh:  %v\nreused: %v", parallelism, g.keys[0], f.Stats, r.Stats)
			}
		}
	}
}
