package bulkpim

// A grid point's machine is built from buffers an earlier point
// released (System.Release, called by the YCSB and TPC-H runners).
// These tests pin that reuse to the fresh-memory results.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bulkpim/internal/sim"
	"bulkpim/internal/workload/tpch"
	"bulkpim/internal/workload/ycsb"
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

// randomGeometryPoint is one machine of TestMachineReuseRandomGeometry:
// a small YCSB or TPC-H workload on a machine of a random shape.
type randomGeometryPoint struct {
	name string
	cfg  Config
	run  func(Config) (Result, error)
}

// randomGeometryPoints draws n points. Cores, the L1 and LLC geometries,
// both scope-buffer geometries, PIMModules, Banks, the model and the
// seed are drawn per machine. ScopeCount and Functional follow the
// workload, whose kind, size, thread count and verification are drawn
// too. A verified point writes its whole database into memory first, so
// only the smallest workloads verify: YCSB at 20 000 records, and TPC-H
// on one thread and one scope.
func randomGeometryPoints(rng *rand.Rand, n int) []randomGeometryPoint {
	pick := func(xs ...int) int { return xs[rng.Intn(len(xs))] }
	models := AllVariants()
	queries := tpch.Queries()
	var oneScope []tpch.QuerySpec // queries with one scope at scale 0.01
	for _, q := range queries {
		if q.Scopes < 100 {
			oneScope = append(oneScope, q)
		}
	}
	pts := make([]randomGeometryPoint, n)
	for i := range pts {
		pt := &pts[i]
		threads := pick(1, 2, 4)
		if rng.Intn(2) == 0 {
			p := ycsb.DefaultParams(pick(20_000, 50_000, 100_000))
			if rng.Intn(4) == 0 {
				p, p.Verify = ycsb.DefaultParams(20_000), true
			}
			p.Operations, p.Threads, p.Seed = 8, threads, uint64(rng.Int63())
			w := ycsb.New(p)
			w.Precompute()
			pt.name = fmt.Sprintf("%d: ycsb records=%d threads=%d verify=%v", i, p.Records, threads, p.Verify)
			pt.run = func(cfg Config) (Result, error) { return ycsb.Run(w, cfg) }
		} else {
			q, scale, verify := queries[rng.Intn(len(queries))], []float64{0.01, 0.02, 0.05}[rng.Intn(3)], false
			if rng.Intn(4) == 0 {
				q, scale, threads, verify = oneScope[rng.Intn(len(oneScope))], 0.01, 1, true
			}
			w := tpch.NewWorkload(q, threads, scale, verify)
			pt.name = fmt.Sprintf("%d: tpch %s scale=%g threads=%d verify=%v", i, q.Name, scale, threads, verify)
			pt.run = func(cfg Config) (Result, error) { return tpch.Run(w, cfg) }
		}
		cfg := DefaultConfig()
		cfg.Model = models[rng.Intn(len(models))]
		cfg.Cores = threads + rng.Intn(3)
		cfg.L1Sets, cfg.L1Ways = pick(16, 32, 64), pick(1, 2, 4)
		cfg.LLCSets, cfg.LLCWays = pick(128, 512, 2048), pick(2, 8, 16)
		cfg.L1ScopeBufSets, cfg.L1ScopeBufWays = pick(4, 16), pick(1, 2)
		cfg.LLCScopeBufSets, cfg.LLCScopeBufWays = pick(8, 64), pick(1, 4)
		cfg.PIMModules = pick(1, 2, 3)
		cfg.Banks = pick(1, 8, 16)
		cfg.Seed = uint64(rng.Int63())
		pt.cfg = cfg
		pt.name += fmt.Sprintf(" model=%s cores=%d", cfg.Model, cfg.Cores)
	}
	return pts
}

// sameShape reports whether two configs build the same machine, model,
// seed and payloads aside.
func sameShape(a, b Config) bool {
	a.Model, a.Seed, a.Functional = b.Model, b.Seed, b.Functional
	return a == b
}

// TestMachineReuseRandomGeometry is the random-geometry half of
// TestMachineReuseDifferential. It runs random points once each on a
// fresh machine, with the free lists emptied before it, and then again
// in shuffled order, so that every machine is built on the cores,
// caches, scope units, controller, modules, links, pool and kernel a
// machine of another shape released. The two runs of a point must
// return the same Result.
func TestMachineReuseRandomGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randomGeometryPoints(rng, 32)
	fresh := make([]Result, len(pts))
	for i, pt := range pts {
		sim.DropFreeLists()
		r, err := pt.run(pt.cfg)
		if err != nil {
			t.Fatalf("%s: %v", pt.name, err)
		}
		fresh[i] = r
	}
	order := rng.Perm(len(pts))
	// Prime the free lists with the last point's machine, so the first
	// point also runs on another machine's storage.
	prev := order[len(order)-1]
	sim.DropFreeLists()
	if _, err := pts[prev].run(pts[prev].cfg); err != nil {
		t.Fatal(err)
	}
	for _, i := range order {
		pt := pts[i]
		if sameShape(pt.cfg, pts[prev].cfg) {
			t.Fatalf("%s runs after a machine of its own shape (%s)", pt.name, pts[prev].name)
		}
		r, err := pt.run(pt.cfg)
		if err != nil {
			t.Fatalf("%s after %s: %v", pt.name, pts[prev].name, err)
		}
		if !reflect.DeepEqual(fresh[i], r) {
			t.Errorf("%s after %s: results differ\nfresh:  %+v\nreused: %+v", pt.name, pts[prev].name, fresh[i], r)
		}
		prev = i
	}
}
