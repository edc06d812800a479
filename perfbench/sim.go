package main

// The simulation workloads: ycsb-timing (the Fig. 7 grid at quick
// scale) and tpch-timing (the Fig. 8 grid at SF 0.1), timing only. Each
// is a list of grid points grouped by generated workload. A pass runs
// every point once, in plan order, on one goroutine, storing each result
// into a fresh result cache and rendering the report from it, as a
// sequential `pimbench run` does.
//
// Set-up is what comes before the first point can run: a process
// starts, plans the grid and generates every workload. It is timed in
// fresh child processes, because the YCSB generator memoizes its zeta
// sums for the life of a process. The measuring process then generates
// the workloads once more and runs passes until the run time is up.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"time"

	"bulkpim"
	"bulkpim/internal/cpu"
	"bulkpim/internal/system"
	"bulkpim/internal/workload/tpch"
	"bulkpim/internal/workload/ycsb"
)

// fig7Models are the six Fig. 7/Fig. 8 series, in plan order.
var fig7Models = []bulkpim.Model{bulkpim.Naive, bulkpim.SWFlush, bulkpim.Atomic,
	bulkpim.Store, bulkpim.Scope, bulkpim.ScopeRelaxed}

// simPoint is one grid point: a model run against its group's workload.
type simPoint struct {
	name  string // the harness job key
	fp    string // harness fingerprint, from the manifest
	model bulkpim.Model
}

// simGroup is one generated workload and the points that share it.
type simGroup struct {
	ycsb   *ycsb.Params    // a YCSB database, or
	query  *tpch.QuerySpec // a TPC-H query section at SF 0.1
	points []*simPoint
	p      prepared // set by generate
}

// prepared is a generated workload behind the calls a run makes on it.
type prepared struct {
	config  func(system.Config) system.Config
	threads func(*system.System) []cpu.Thread
	run     func(system.Config) (system.Result, error) // the library path
}

func (g *simGroup) prepare() prepared {
	if g.ycsb != nil {
		w := ycsb.New(*g.ycsb)
		w.Precompute()
		return prepared{config: w.SystemConfig, threads: w.Threads,
			run: func(cfg system.Config) (system.Result, error) { return ycsb.Run(w, cfg) }}
	}
	w := tpch.NewWorkload(*g.query, 4, 0.1, false)
	return prepared{config: w.SystemConfig, threads: w.BuildThreads,
		run: func(cfg system.Config) (system.Result, error) { return tpch.Run(w, cfg) }}
}

// simBench is one grid over one input: the harness experiment whose
// plan keys its points, the options it is planned and rendered with, and
// the digest its report must have.
type simBench struct {
	groups   []*simGroup
	manifest string
	opts     bulkpim.Options
	render   func(bulkpim.Options) (string, error)
	digest   string // sha256 of the report the harness renders
}

// ycsbInputs is how many YCSB input seeds an untraced ycsb-timing run
// covers. Sixteen operations vary the simulated work by up to a fifth
// from seed to seed; averaging over several sequences keeps a run's
// figures close to the typical one.
const ycsbInputs = 4

// recordedSeeds is how many YCSB seeds digests.json holds (1 to 260).
const recordedSeeds = 260

// ycsbInputSeed derives the k-th YCSB input seed of a run from its seed,
// within the recorded seeds; runs whose seeds differ by less than 65 get
// disjoint inputs.
func ycsbInputSeed(seed uint64, k int) uint64 {
	return 1 + (seed*ycsbInputs+uint64(k))%recordedSeeds
}

// simWorkloads builds each simulation workload's grids for a run seed.
var simWorkloads = map[string]func(seed uint64) []*simBench{
	"ycsb-timing": func(seed uint64) []*simBench {
		var bs []*simBench
		for k := 0; k < ycsbInputs; k++ {
			bs = append(bs, newYCSBTiming(ycsbInputSeed(seed, k)))
		}
		return bs
	},
	"tpch-timing": func(uint64) []*simBench { return []*simBench{newTPCHTiming()} },
}

func ycsbParams(records int, seed uint64) *ycsb.Params {
	p := ycsb.DefaultParams(records)
	p.Operations = 16
	p.Seed = seed
	return &p
}

// newYCSBTiming is the Fig. 7 grid at quick scale for one YCSB seed: 6
// models x 4 record counts, 16 operations, 4 threads.
func newYCSBTiming(seed uint64) *simBench {
	b := &simBench{
		manifest: "fig7",
		opts:     bulkpim.Options{Scale: bulkpim.ScaleQuick, Seed: seed, Parallelism: 1},
		render: func(o bulkpim.Options) (string, error) {
			return bulkpim.RunExperiment("fig7", o)
		},
		digest: digests[fmt.Sprintf("ycsb-timing/seed=%d", seed)],
	}
	for _, records := range []int{100_000, 500_000, 2_000_000, 8_000_000} {
		g := &simGroup{ycsb: ycsbParams(records, seed)}
		for _, m := range fig7Models {
			g.points = append(g.points, &simPoint{
				name: fmt.Sprintf("ycsb/records=%d/model=%s", records, m), model: m})
		}
		b.groups = append(b.groups, g)
	}
	return b
}

// newTPCHTiming is the Fig. 8 grid: all 19 Table IV queries x 6 models at
// SF 0.1. It is seedless.
func newTPCHTiming() *simBench {
	b := &simBench{
		manifest: "fig8",
		opts:     bulkpim.Options{Scale: bulkpim.ScaleMedium, Parallelism: 1},
		render:   renderFig8,
		digest:   digests["tpch-timing"],
	}
	for _, q := range tpch.Queries() {
		g := &simGroup{query: &q}
		for _, m := range fig7Models {
			g.points = append(g.points, &simPoint{
				name: fmt.Sprintf("tpch/%s/model=%s", q.Name, m), model: m})
		}
		b.groups = append(b.groups, g)
	}
	return b
}

// renderFig8 renders Figs. 8 and 9's TPC-H tables the way the harness
// prints them.
func renderFig8(o bulkpim.Options) (string, error) {
	f8, f9, err := bulkpim.Fig8Fig9(o)
	if err != nil {
		return "", err
	}
	return f8.String() + "\n" + f9.String() + "\n", nil
}

// plan looks every point's fingerprint up in the harness manifest.
func (b *simBench) plan() error {
	if b.digest == "" {
		return fmt.Errorf("%s seed %d: no recorded report digest (run --record-digests)", b.manifest, b.opts.Seed)
	}
	jobs, err := bulkpim.Manifest(b.manifest, b.opts)
	if err != nil {
		return fmt.Errorf("manifest %s: %w", b.manifest, err)
	}
	fps := map[string]string{}
	for _, j := range jobs {
		fps[j.Key] = j.Fingerprint
	}
	for _, g := range b.groups {
		for _, pt := range g.points {
			if pt.fp = fps[pt.name]; pt.fp == "" {
				return fmt.Errorf("manifest %s plans no job %q", b.manifest, pt.name)
			}
		}
	}
	return nil
}

// generate builds every group's workload.
func (b *simBench) generate() {
	for _, g := range b.groups {
		g.p = g.prepare()
	}
}

func (b *simBench) npoints() int {
	n := 0
	for _, g := range b.groups {
		n += len(g.points)
	}
	return n
}

// setUpSim is a set-up child process: plan and generate every grid of
// the workload, then exit.
func setUpSim(benches []*simBench) error {
	for _, b := range benches {
		if err := b.plan(); err != nil {
			return err
		}
		b.generate()
	}
	return nil
}

// passRecord is what one pass measured. Times are in seconds at
// reference speed.
type passRecord struct {
	wall   float64            // the pass without the benchmark's own checks
	lat    map[string]float64 // op time by point: run and store
	fixed  float64            // result-cache open, report render and close
	render float64
	cycles map[string]uint64 // simulated run time by point
	report string            // digest of the rendered report
	alloc  uint64            // heap bytes allocated by the pass
	rss    float64           // peak resident set during the pass, MB

	// Replayed passes only: the public calls timed from outside, summed
	// over the pass (stores and lookups per call, raw), and the counts.
	build, run      float64
	stores, lookups []float64
	events, mallocs uint64
	stats           map[string]float64
	hits, misses    int
}

// summed and averaged are the Result.Stats keys folded per pass.
var (
	summedStats   = []string{"cpu.instrs", "cpu.stalls", "llc.hits", "llc.misses", "llc.scan_count", "mc.loads", "mc.writes", "mc.pim_forwarded", "pim.ops_executed", "violations"}
	averagedStats = []string{"llc.sb_hit_rate", "llc.sbv_skip_ratio", "mc.queue_len_mean"}
)

// execute runs one point: through the library (ycsb.Run / tpch.Run) or,
// when replaying, step by step (system.New, then Run), returning the raw
// times of those two calls.
func (g *simGroup) execute(pt *simPoint, replay bool, pr *passRecord) (res system.Result, build, run float64, err error) {
	cfg := bulkpim.DefaultConfig()
	cfg.Model = pt.model
	if !replay {
		res, err = g.p.run(cfg)
		return res, 0, 0, err
	}
	t := time.Now()
	s := system.New(g.p.config(cfg))
	build = time.Since(t).Seconds()
	threads := g.p.threads(s)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t = time.Now()
	res, err = s.Run(threads)
	run = time.Since(t).Seconds()
	runtime.ReadMemStats(&m1)
	pr.mallocs += m1.Mallocs - m0.Mallocs
	pr.events += s.K.Fired()
	return res, build, run, err
}

// pass runs every point once, storing each result into a fresh result
// cache, renders the report from the cache and checks it. A replayed
// pass runs each point step by step and times the public calls.
func (b *simBench) pass(o *outcome, ref *hostRef, workDir string, replay bool) *passRecord {
	pr := &passRecord{lat: map[string]float64{}, cycles: map[string]uint64{}, stats: map[string]float64{}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var cache *bulkpim.ResultCache
	dir, err := os.MkdirTemp(workDir, "cache-")
	if err == nil {
		defer os.RemoveAll(dir)
		pr.fixed, _ = ref.measure(func() { cache, err = bulkpim.OpenResultCache(dir) })
	}
	if err != nil {
		o.fail("open result cache: %v", err)
		return pr
	}
	pr.wall = pr.fixed
	stored := map[*simPoint]system.Result{}
	n := float64(b.npoints())
	for _, g := range b.groups {
		for _, pt := range g.points {
			var res system.Result
			var build, run float64
			scaled, raw := ref.measure(func() {
				res, build, run, err = g.execute(pt, replay, pr)
				if err == nil {
					t := time.Now()
					err = cache.Store(pt.name, pt.fp, res)
					pr.stores = append(pr.stores, time.Since(t).Seconds())
				}
			})
			f := scaled / raw
			pr.build += build * f
			pr.run += run * f
			pr.lat[pt.name] = scaled
			pr.wall += scaled
			o.attempted++
			switch {
			case err != nil:
				o.fail("%s: %v", pt.name, err)
				continue
			case res.Violations != 0 || res.Stats["violations"] != 0:
				o.fail("%s: %d verification violations", pt.name, res.Violations)
				continue
			}
			stored[pt] = res
			pr.cycles[pt.name] = uint64(res.Cycles)
			pr.stats["cycles"] += float64(res.Cycles)
			for _, k := range summedStats {
				pr.stats[k] += res.Stats[k]
			}
			for _, k := range averagedStats {
				pr.stats[k] += res.Stats[k] / n
			}
		}
	}

	before := cache.Stats()
	opts := b.opts
	opts.Cache = cache
	var out string
	var closeErr error
	pr.render, _ = ref.measure(func() {
		out, err = b.render(opts)
		closeErr = cache.Close()
	})
	pr.fixed += pr.render
	pr.wall += pr.render
	runtime.ReadMemStats(&ms1)
	pr.alloc = ms1.TotalAlloc - ms0.TotalAlloc

	after := cache.Stats()
	switch {
	case err != nil:
		o.fail("render %s: %v", b.manifest, err)
	case closeErr != nil:
		o.fail("close result cache: %v", closeErr)
	case after.Misses != before.Misses:
		o.fail("render %s: %d result-cache misses, want none", b.manifest, after.Misses-before.Misses)
	}
	if pr.report = digestOf(out); pr.report != b.digest {
		o.fail("%s seed %d: report digest %s, the harness renders %s", b.manifest, b.opts.Seed, pr.report, b.digest)
	}
	// Every stored point must read back unchanged.
	for pt, want := range stored {
		t := time.Now()
		got, hit := cache.Lookup(pt.name, pt.fp)
		pr.lookups = append(pr.lookups, time.Since(t).Seconds())
		if !hit || !reflect.DeepEqual(got, want) {
			o.fail("%s: result cache returned a different result", pt.name)
		}
	}
	after = cache.Stats()
	pr.hits, pr.misses = after.Hits-before.Hits, after.Misses-before.Misses
	return pr
}

// A run sets up at least minSetups times and until setupTime has passed,
// at most maxSetups times, and reports the median set-up.
const (
	minSetups, maxSetups = 5, 50
	setupTime            = 2 * time.Second
)

// runChild starts this program as a child process of the benchmark
// (--child setup or warm) and waits for it.
func runChild(rc *runConfig, workload, mode string, extra ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	args := append([]string{"--child", mode, "--workload", workload,
		"--seed", strconv.FormatUint(rc.seed, 10)}, extra...)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout, cmd.Stderr = rc.stderr, rc.stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s process: %w", mode, err)
	}
	return nil
}

// runSim times set-up in child processes, then plans and generates the
// grids itself and runs passes, cycling through the inputs, until the
// run time is up (every input at least once). Each point is reported at
// its median pass over its input, and the resident set at the median
// pass's peak.
//
// A traced run covers the first input only. It times the YCSB
// generator's calls, makes its first pass through the library calls as
// the reference for the tracing overhead and for the replayed cycle
// counts, and replays and profiles the rest.
func runSim(name string, benches []*simBench, rc *runConfig) (*outcome, error) {
	o := newOutcome(rc)
	ref := &hostRef{}
	v := o.values
	if rc.traced {
		benches = benches[:1]
	} else {
		var setups []float64
		for t := time.Now(); len(setups) < minSetups || time.Since(t) < setupTime && len(setups) < maxSetups; {
			var err error
			s, _ := ref.measure(func() { err = runChild(rc, name, "setup") })
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
		v["setup_s"] = median(setups)
		fmt.Fprintf(rc.stderr, "perfbench: %d set-ups, %.4g to %.4g s\n", len(setups), slices.Min(setups), slices.Max(setups))
	}

	var prof *profiler
	if rc.traced {
		var err error
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
		timeYCSBGen(benches[0], ref, v)
	}
	for _, b := range benches {
		var err error
		manifest, _ := ref.measure(func() { err = b.plan() })
		if err != nil {
			return nil, err
		}
		v["bulkpim.manifest_ms"] = 1e3 * manifest
		b.generate()
	}
	if prof != nil {
		prof.pause()
	}

	rss := startRSSMeter()
	defer rss.close()
	recs := make([][]*passRecord, len(benches))
	start := time.Now()
	last := 0.0
	for n := 0; ; n++ {
		k := n % len(benches)
		replay := rc.traced && n > 0
		first := n < len(benches) || replay && n == 1
		if !first && time.Since(start).Seconds()+last/2 > rc.seconds.Seconds() {
			break
		}
		if replay {
			prof.resume()
		}
		t := time.Now()
		rss.span()
		pr := benches[k].pass(o, ref, rc.workDir, replay)
		pr.rss = rss.span()
		last = time.Since(t).Seconds()
		if replay {
			prof.pause()
		}
		if len(recs[k]) > 0 {
			checkRepeat(o, recs[k][0], pr)
		}
		recs[k] = append(recs[k], pr)
	}
	if rc.traced {
		return o, layerMetrics(o, recs[0], prof, ref)
	}

	wall, alloc := 0.0, 0.0
	var peaks []float64
	for _, prs := range recs {
		peaks = append(peaks, col(prs, func(pr *passRecord) float64 { return pr.rss })...)
		w := median(col(prs, func(pr *passRecord) float64 { return pr.fixed }))
		for pt := range prs[0].lat {
			w += median(col(prs, func(pr *passRecord) float64 { return pr.lat[pt] }))
		}
		wall += w / float64(len(recs))
		alloc += median(col(prs, func(pr *passRecord) float64 { return float64(pr.alloc) })) / float64(len(recs))
	}
	v["wall_s"] = wall
	v["req_per_s"] = float64(benches[0].npoints()) / wall
	v["alloc_mb"] = alloc / 1e6
	v["peak_rss_mb"] = median(peaks)
	fmt.Fprintf(rc.stderr, "perfbench: %d passes; host ran the reference loop at %.2fx its nominal time\n",
		len(peaks), ref.slowdown())
	return o, nil
}

// col returns f of every pass.
func col(prs []*passRecord, f func(*passRecord) float64) []float64 {
	xs := make([]float64, len(prs))
	for i, pr := range prs {
		xs[i] = f(pr)
	}
	return xs
}

// checkRepeat compares a pass with the first pass over the same input:
// the same report and the same simulated run time for every point.
func checkRepeat(o *outcome, first, pr *passRecord) {
	if pr.report != first.report {
		o.fail("report differs from the first pass over the same input")
	}
	for name, c := range pr.cycles {
		if want, ok := first.cycles[name]; ok && c != want {
			o.fail("%s: %d cycles, the first pass gave %d", name, c, want)
		}
	}
}

// timeYCSBGen times the YCSB generator's public calls for every group
// of a grid: ycsb.NewZipf while its zeta sums are not yet memoized, then
// ycsb.New and Precompute, which reuse them.
func timeYCSBGen(b *simBench, ref *hostRef, v map[string]float64) {
	v["ycsb.zipf_init_s"], v["ycsb.gen_s"] = 0, 0
	for _, g := range b.groups {
		if g.ycsb == nil {
			continue
		}
		zipf, _ := ref.measure(func() {
			ycsb.NewZipf(uint64(g.ycsb.Records-g.ycsb.MaxScanRecords), g.ycsb.ZipfTheta)
		})
		gen, _ := ref.measure(func() { g.prepare() })
		v["ycsb.zipf_init_s"] += zipf
		v["ycsb.gen_s"] += gen
	}
}

// layerMetrics folds a traced run into the per-layer metrics: timings as
// the median replayed pass's, counts from the first replayed pass (every
// replayed pass must repeat them exactly), and the profile.
func layerMetrics(o *outcome, passes []*passRecord, prof *profiler, ref *hostRef) error {
	v := o.values
	untraced, replayed := passes[0], passes[1:]
	wall := median(col(replayed, func(pr *passRecord) float64 { return pr.wall }))
	run := median(col(replayed, func(pr *passRecord) float64 { return pr.run }))
	v["bench.trace_overhead_pct"] = 100 * (wall - untraced.wall) / untraced.wall
	v["bench.host_slowdown"] = ref.slowdown()
	v["system.build_s"] = median(col(replayed, func(pr *passRecord) float64 { return pr.build }))
	v["system.run_s"] = run
	v["report.render_ms"] = 1e3 * median(col(replayed, func(pr *passRecord) float64 { return pr.render }))

	var stores, lookups []float64
	var hits, misses int
	for _, pr := range replayed {
		stores = append(stores, pr.stores...)
		lookups = append(lookups, pr.lookups...)
		hits += pr.hits
		misses += pr.misses
	}
	v["resultcache.store_us"] = 1e6 * median(stores)
	v["resultcache.lookup_us"] = 1e6 * median(lookups)
	v["resultcache.hit_rate"] = hitRate(hits, misses)
	if err := prof.shares(v); err != nil {
		return err
	}

	first := replayed[0]
	for _, pr := range replayed[1:] {
		if pr.events != first.events || !reflect.DeepEqual(pr.stats, first.stats) {
			o.fail("replayed passes disagree: %d vs %d events", first.events, pr.events)
		}
	}
	ev := float64(first.events)
	v["sim.events"] = ev
	v["sim.cycles"] = first.stats["cycles"]
	v["sim.ns_per_event"] = 1e9 * run / ev
	v["sim.events_per_s"] = ev / wall
	v["system.allocs_per_event"] = float64(first.mallocs) / ev
	for name, key := range map[string]string{
		"cpu.instrs": "cpu.instrs", "cpu.stalls": "cpu.stalls",
		"cache.llc_hits": "llc.hits", "cache.llc_misses": "llc.misses", "cache.scans": "llc.scan_count",
		"cache.sb_hit_rate": "llc.sb_hit_rate", "cache.sbv_skip_ratio": "llc.sbv_skip_ratio",
		"memctrl.loads": "mc.loads", "memctrl.writes": "mc.writes", "memctrl.pim_forwarded": "mc.pim_forwarded",
		"memctrl.queue_len_mean": "mc.queue_len_mean", "pim.ops_executed": "pim.ops_executed",
		"core.violations": "violations",
	} {
		v[name] = first.stats[key]
	}
	for _, k := range []string{"serve.p50_ms", "serve.p99_ms", "serve.submit_p50_ms", "serve.artifact_p50_ms", "serve.result_p50_ms"} {
		v[k] = 0
	}
	return nil
}

// recordDigests runs the harness itself (no result cache, two workers)
// for the given YCSB seeds and the seedless TPC-H grid, and returns the
// report digests the timing workloads check against.
func recordDigests(seeds []uint64, log func(string, ...any)) (map[string]string, error) {
	out := map[string]string{}
	for _, s := range seeds {
		if s == 0 {
			return nil, fmt.Errorf("seed 0 runs as seed 1; record seed 1")
		}
		rep, err := bulkpim.RunExperiment("fig7", bulkpim.Options{Scale: bulkpim.ScaleQuick, Seed: s, Parallelism: 2})
		if err != nil {
			return nil, fmt.Errorf("fig7 seed %d: %w", s, err)
		}
		out[fmt.Sprintf("ycsb-timing/seed=%d", s)] = digestOf(rep)
		log("fig7 seed %d done", s)
	}
	rep, err := renderFig8(bulkpim.Options{Scale: bulkpim.ScaleMedium, Parallelism: 2})
	if err != nil {
		return nil, fmt.Errorf("fig8: %w", err)
	}
	out["tpch-timing"] = digestOf(rep)
	return out, nil
}

func digestOf(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

func hitRate(hits, misses int) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// workFile is where a run keeps its scratch files: inside the checkout,
// under the build directory, removed when the run ends.
func workFile(parts ...string) string {
	return filepath.Join(append([]string{".bench_build", "perfbench-work"}, parts...)...)
}
