// Command pimbench regenerates the tables and figures of "On Consistency
// for Bulk-Bitwise Processing-in-Memory" (HPCA 2023).
//
// Usage:
//
//	pimbench [run] [flags]      execute experiments and print reports
//	pimbench plan [flags]       print the deterministic job manifest
//	pimbench merge -o DIR SRC...  merge collected result caches
//	pimbench coord [flags]      dispatch jobs to a fault-tolerant worker fleet
//	pimbench serve [flags]      HTTP daemon: cached results instantly, misses on a live fleet
//	pimbench work [flags]       worker endpoint spawned by coord and serve (jobs carry their spec)
//	pimbench snapshot [flags]   inspect / garbage-collect workload snapshots
//	pimbench version [-v]       print build identity (module, Go, VCS revision)
//
// `run` and `work` accept -cpuprofile/-memprofile to capture pprof
// profiles of the simulation (see README "Profiling & sim performance").
//
//	pimbench -exp fig7 -scale quick
//	pimbench -exp all  -scale medium -parallel 8 -v
//	pimbench -exp all  -scale full -resume                # interrupt...
//	pimbench -exp all  -scale full -resume                # ...and resume
//	pimbench -list
//
// Distributed runs split the suite across machines. Planning is
// deterministic and the -shard filter is a stable hash of the job key,
// so independently planned shards partition the suite exactly:
//
//	pimbench plan -exp all -scale full -json              # manifest
//	pimbench run -exp all -scale full -shard 0/2 -cache-dir s0   # machine 0
//	pimbench run -exp all -scale full -shard 1/2 -cache-dir s1   # machine 1
//	pimbench merge -o merged s0 s1
//	pimbench run -exp all -scale full -cache-dir merged   # warm report pass
//
// A shard run executes only its grid points (no reports); the final
// report pass is served entirely from the merged cache and is
// byte-identical to a single-process run.
//
// Incremental re-plans diff a saved manifest against the current
// build — only jobs whose fingerprint is new or changed are planned,
// and grid points that disappeared are reported, never dropped:
//
//	pimbench plan -exp all -scale full -json > manifest.json
//	# ...edit a Config parameter...
//	pimbench plan -exp all -scale full -json -diff manifest.json
//
// Streaming reports (-stream on run and coord) render each figure or
// table the moment its last job settles — settle order logs on
// stderr, stdout stays byte-identical to the batch report:
//
//	pimbench run -exp all -scale full -parallel 16 -stream
//
// The coordinator automates the whole distributed flow on one machine
// (and, via -worker-cmd, over ssh-style launchers): it dedups the
// planned suite by fingerprint, dispatches individual jobs to worker
// subprocesses with dynamic work-stealing, retries jobs from crashed
// or erroring workers on the survivors, and streams every finished
// result into the cache as it lands:
//
//	pimbench coord -workers 8 -exp all -scale full -cache-dir d
//	pimbench run -exp all -scale full -cache-dir d        # warm report pass
//
// The run survives worker death (a lost worker is replaced and its job
// retried elsewhere, up to 3 attempts per job), and a mid-run kill of
// the coordinator loses at most the in-flight jobs — re-running
// resumes from the cache. coord and serve share one executor
// (coord.Pool) and one worker mode: every job frame carries its spec.
//
// The serve daemon is the coordinator promoted to an always-on service:
// an HTTP/JSON API over the same cache and a persistent worker fleet.
// Cached requests answer instantly; misses are planned, deduplicated
// against all in-flight work fleet-wide, executed once, and written
// back (see README "Serving"):
//
//	pimbench serve -addr :8080 -cache-dir d -snapshot-dir s -workers 4
//	curl -d '{"experiment":"fig7","scale":"smoke"}' localhost:8080/v1/jobs
//
// Scales: smoke (CI, seconds), quick (minutes), medium (tens of
// minutes), full (the paper's measurement volume; hours sequentially —
// every grid point is an independent simulation, so -parallel N divides
// the wall time down to the slowest single point). All scales produce
// the same figure shapes; see README.md.
//
// With -cache-dir (or -resume), finished grid points are memoized on
// disk and skipped on re-runs; reports are byte-identical either way,
// and a cache-stats summary is printed on stderr. -resume uses
// .pimbench-cache unless -cache-dir names another directory; pass the
// same directory on both runs.
//
// With -snapshot-dir, generated workloads (YCSB databases, TPC-H query
// sections) are additionally memoized in a content-addressed snapshot
// store: re-runs — and fleet workers sharing the directory — load each
// database instead of regenerating it, so a warm run performs zero
// workload generations. `pimbench coord -snapshot-dir d` pre-warms the
// biggest databases and propagates the store to every worker.
// `pimbench snapshot -snapshot-dir d -ls` lists the store; `-gc`
// garbage-collects it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"bulkpim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its dependencies injected (flags, stdio streams) so
// tests can drive the binary end-to-end in-process; only the work
// subcommand reads stdin. The first argument selects a subcommand;
// bare flags keep their historical meaning of "run".
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "run":
			return runCmd(args[1:], stdout, stderr)
		case "plan":
			return planCmd(args[1:], stdout, stderr)
		case "merge":
			return mergeCmd(args[1:], stdout, stderr)
		case "coord":
			return coordCmd(args[1:], stdout, stderr)
		case "serve":
			return serveCmd(args[1:], stdout, stderr)
		case "work":
			return workCmd(args[1:], stdin, stdout, stderr)
		case "snapshot":
			return snapshotCmd(args[1:], stdout, stderr)
		case "version":
			return versionCmd(args[1:], stdout, stderr)
		default:
			fmt.Fprintf(stderr, "pimbench: unknown subcommand %q (have run, plan, merge, coord, serve, work, snapshot, version)\n", args[0])
			return 2
		}
	}
	return runCmd(args, stdout, stderr)
}

// defaultCacheDir is where -resume looks without an explicit -cache-dir.
const defaultCacheDir = ".pimbench-cache"

// runCmd executes experiments: the full plan -> execute -> report path,
// or — with -shard — the execute-only worker half of a distributed run.
func runCmd(args []string, stdout, stderr io.Writer) int {
	fs, f := newRunFlags(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *f.list {
		for _, e := range bulkpim.Experiments() {
			fmt.Fprintln(stdout, e)
		}
		return 0
	}
	if !f.validScale(stderr) {
		return 2
	}
	var shard bulkpim.Shard
	sharded := *f.shard != ""
	if sharded {
		var err error
		if shard, err = bulkpim.ParseShard(*f.shard); err != nil {
			fmt.Fprintf(stderr, "pimbench: %v\n", err)
			return 2
		}
		if *f.csvDir != "" {
			fmt.Fprintln(stderr, "pimbench: -csvdir is incompatible with -shard (shard runs build no reports)")
			return 2
		}
		if *f.stream {
			fmt.Fprintln(stderr, "pimbench: -stream is incompatible with -shard (shard runs build no reports)")
			return 2
		}
	}

	stopProfiles, err := startProfiles(*f.prof.cpu, *f.prof.mem)
	if err != nil {
		fmt.Fprintf(stderr, "pimbench: profile: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(stderr, "pimbench: profile: %v\n", err)
		}
	}()

	opts := f.options()
	opts.Parallelism = *f.parallel
	if *f.verbose {
		opts.Log = func(format string, args ...interface{}) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	dir := *f.cacheDir
	if *f.resume && dir == "" {
		dir = defaultCacheDir
	}
	if sharded && (dir == "" || *f.noCache) {
		fmt.Fprintln(stderr, "pimbench: -shard needs -cache-dir (or -resume): a shard ships its results as a cache file")
		return 2
	}
	var cache *bulkpim.ResultCache
	if dir != "" && !*f.noCache {
		var err error
		if cache, err = bulkpim.OpenResultCache(dir); err != nil {
			fmt.Fprintf(stderr, "pimbench: %v\n", err)
			return 1
		}
		defer cache.Close()
		opts.Cache = cache
		if *f.resume {
			fmt.Fprintf(stderr, "pimbench: resuming from %s (%d cached points)\n",
				cache.Path(), cache.Len())
		}
	}
	snapFooter, err := attachSnapshots(*f.snapDir, &opts, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "pimbench: %v\n", err)
		return 1
	}

	start := time.Now()
	var runErr error
	switch {
	case sharded:
		runErr = runShard(*f.exp, opts, shard, stderr)
	default:
		runErr = runExperiments(*f.exp, opts, *f.stream, *f.csvDir, stdout, stderr)
	}
	// Accounting goes to stderr even on failure: a partially-failed
	// resumed run still reports what it skipped and recomputed.
	if cache != nil {
		fmt.Fprintf(stderr, "pimbench: cache: %s (%s)\n", cache.Stats(), cache.Path())
	}
	snapFooter()
	if runErr != nil {
		fmt.Fprintf(stderr, "pimbench: %v\n", runErr)
		return 1
	}
	if *f.gcstats != "" {
		if err := writeGCStats(*f.gcstats); err != nil {
			fmt.Fprintf(stderr, "pimbench: gcstats: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "pimbench: %s at scale %s (parallel=%d) in %s\n",
		*f.exp, *f.scale, *f.parallel, time.Since(start).Round(time.Millisecond))
	return 0
}

// attachSnapshots opens the workload snapshot store under dir (when
// non-empty) and attaches it to opts. The returned footer prints the
// snapshot accounting — store stats plus the workloads this run
// actually generated, the number a snapshot-warm run must drive to
// zero — and is never nil, so callers print it unconditionally next to
// the cache footer.
func attachSnapshots(dir string, opts *bulkpim.Options, stderr io.Writer) (footer func(), err error) {
	if dir == "" {
		return func() {}, nil
	}
	snap, err := bulkpim.OpenSnapshotStore(dir)
	if err != nil {
		return nil, err
	}
	opts.Snapshots = snap
	genBefore := bulkpim.WorkloadGenerations()
	return func() {
		fmt.Fprintf(stderr, "pimbench: snapshots: %s; %d workloads generated (%s)\n",
			snap.Stats(), bulkpim.WorkloadGenerations()-genBefore, snap.Dir())
	}, nil
}

// runShard executes the shard's slice of the planned jobs into the
// cache — the worker half of a distributed run. Reports stay with the
// coordinator, so stdout is untouched.
func runShard(exp string, opts bulkpim.Options, shard bulkpim.Shard, stderr io.Writer) error {
	sum, err := bulkpim.ExecuteShard(exp, opts, shard)
	fmt.Fprintf(stderr, "pimbench: shard %s: %s\n", shard, sum)
	return err
}

// planCmd prints the deterministic job manifest — experiment, key,
// fingerprint per planned job — without executing any simulation work.
// -json emits the schema-versioned manifest envelope for external
// schedulers and later diffing; -shard filters to one shard's slice;
// -diff OLD.json keeps only the jobs whose fingerprint the prior
// manifest does not contain — the exact subset an incremental re-run
// has to execute (everything else is a warm cache hit).
func planCmd(args []string, stdout, stderr io.Writer) int {
	fs, f := newPlanFlags(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if !f.validScale(stderr) {
		return 2
	}
	var shard bulkpim.Shard
	if *f.shard != "" {
		var err error
		if shard, err = bulkpim.ParseShard(*f.shard); err != nil {
			fmt.Fprintf(stderr, "pimbench: %v\n", err)
			return 2
		}
	}

	opts := f.options()
	manifest, err := bulkpim.Manifest(*f.exp, opts)
	if err != nil {
		fmt.Fprintf(stderr, "pimbench: %v\n", err)
		return 1
	}
	// FilterManifest applies the same dedup-then-assign rule as a
	// `run -shard` execution, so the printed slice is exactly the work
	// (and the cache entries) that shard will produce.
	manifest = bulkpim.FilterManifest(manifest, shard)
	envelope := bulkpim.NewManifestEnvelope(*f.exp, opts, buildLine(), manifest)

	footer := fmt.Sprintf("planned %d jobs (%s at scale %s)", len(manifest), *f.exp, *f.scale)
	if *f.diff != "" {
		data, err := os.ReadFile(*f.diff)
		if err != nil {
			fmt.Fprintf(stderr, "pimbench: diff: %v\n", err)
			return 1
		}
		old, err := bulkpim.ParseManifest(data)
		if err != nil {
			fmt.Fprintf(stderr, "pimbench: diff: %v\n", err)
			return 1
		}
		if old.Experiment != envelope.Experiment || old.Scale != envelope.Scale || old.Seed != envelope.Seed {
			fmt.Fprintf(stderr, "pimbench: diff: prior manifest is %s/%s/seed=%d, this plan is %s/%s/seed=%d — diffing anyway\n",
				old.Experiment, old.Scale, old.Seed, envelope.Experiment, envelope.Scale, envelope.Seed)
		}
		d := bulkpim.DiffManifests(old, envelope)
		// Removed grid points are reported, never silently dropped: a
		// fingerprint the new plan no longer contains is stale cache the
		// operator may want to know about.
		for _, j := range d.Removed {
			fmt.Fprintf(stderr, "pimbench: removed: %s\t%s\t%s\n", j.Experiment, j.Key, j.Fingerprint)
		}
		manifest = d.Invalidated
		if manifest == nil {
			manifest = []bulkpim.PlannedJob{}
		}
		envelope.Jobs = manifest
		footer = fmt.Sprintf("diff vs %s: %s", *f.diff, d.Summary())
	}

	if *f.asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(envelope); err != nil {
			fmt.Fprintf(stderr, "pimbench: %v\n", err)
			return 1
		}
	} else {
		for _, j := range manifest {
			fmt.Fprintf(stdout, "%s\t%s\t%s\n", j.Experiment, j.Key, j.Fingerprint)
		}
	}
	fmt.Fprintf(stderr, "pimbench: %s\n", footer)
	return 0
}

// mergeCmd validates and merges collected result caches — the
// coordinator half of a distributed run.
func mergeCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pimbench merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "destination cache directory (required)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *out == "" || fs.NArg() == 0 {
		fmt.Fprintln(stderr, "pimbench: usage: pimbench merge -o DIR SRC_DIR...")
		return 2
	}
	stats, err := bulkpim.MergeResultCaches(*out, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "pimbench: merge: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "merged into %s: %s\n", *out, stats)
	return 0
}

// coordCmd runs the fault-tolerant coordinator: an execute-only fleet
// run streaming results into the cache, with a live jobs-done/ETA
// footer on stderr. Reports stay with a later warm run against the
// same cache directory — unless -stream, which renders each artifact
// coordinator-side the moment its last job settles and writes the
// assembled reports to stdout, byte-identical to that warm run.
func coordCmd(args []string, stdout, stderr io.Writer) int {
	fs, f := newCoordFlags(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if !f.validScale(stderr) {
		return 2
	}
	if *f.cacheDir == "" {
		fmt.Fprintln(stderr, "pimbench: coord needs -cache-dir: the coordinator streams results into a cache the report pass reads")
		return 2
	}
	fmt.Fprintf(stderr, "pimbench: build: %s\n", buildLine())

	opts := f.options()
	if *f.verbose {
		opts.Log = func(format string, args ...interface{}) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	cache, err := bulkpim.OpenResultCache(*f.cacheDir)
	if err != nil {
		fmt.Fprintf(stderr, "pimbench: %v\n", err)
		return 1
	}
	defer cache.Close()
	opts.Cache = cache
	snapFooter, err := attachSnapshots(*f.snapDir, &opts, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "pimbench: %v\n", err)
		return 1
	}

	copts := bulkpim.CoordOptions{
		Workers:    *f.fleet.workers,
		WorkerCmd:  *f.fleet.workerCmd,
		Progress:   stderr,
		FailWorker: *f.fleet.failWorker,
		FailAfter:  *f.fleet.failAfter,
	}
	if *f.verbose {
		copts.WorkerStderr = stderr
	}
	var asm *bulkpim.StreamAssembler
	if *f.stream {
		if asm, err = bulkpim.NewStreamAssembler(*f.exp, stdout); err != nil {
			fmt.Fprintf(stderr, "pimbench: %v\n", err)
			return 2
		}
		copts.Stream = func(e bulkpim.StreamEmit) {
			asm.Observe(e)
			logStreamEmit(e, stderr)
		}
	}
	sum, runErr := bulkpim.Coordinate(*f.exp, opts, copts)
	fmt.Fprintf(stderr, "pimbench: coord: %s\n", sum)
	fmt.Fprintf(stderr, "pimbench: cache: %s (%s)\n", cache.Stats(), cache.Path())
	snapFooter()
	if runErr != nil {
		fmt.Fprintf(stderr, "pimbench: %v\n", runErr)
		return 1
	}
	if asm != nil {
		if werr := asm.Err(); werr != nil {
			fmt.Fprintf(stderr, "pimbench: stream write: %v\n", werr)
			return 1
		}
	}
	return 0
}

// serveCmd runs the always-on daemon: an HTTP/JSON API in front of the
// result cache and a persistent elastic worker fleet. SIGINT/SIGTERM
// shut it down gracefully (in-flight jobs finish, queued ones fail).
func serveCmd(args []string, stdout, stderr io.Writer) int {
	fs, f := newServeFlags(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *f.cacheDir == "" {
		fmt.Fprintln(stderr, "pimbench: serve needs -cache-dir: the daemon is a results CDN over a shared result cache")
		return 2
	}
	fmt.Fprintf(stderr, "pimbench: build: %s\n", buildLine())

	var opts bulkpim.Options
	if *f.verbose {
		opts.Log = func(format string, args ...interface{}) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	cache, err := bulkpim.OpenResultCache(*f.cacheDir)
	if err != nil {
		fmt.Fprintf(stderr, "pimbench: %v\n", err)
		return 1
	}
	defer cache.Close()
	opts.Cache = cache
	snapFooter, err := attachSnapshots(*f.snapDir, &opts, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "pimbench: %v\n", err)
		return 1
	}

	sopts := bulkpim.ServerOptions{
		Addr:       *f.addr,
		Workers:    *f.fleet.workers,
		WorkerCmd:  *f.fleet.workerCmd,
		Local:      *f.local,
		FailWorker: *f.fleet.failWorker,
		FailAfter:  *f.fleet.failAfter,
	}
	if *f.verbose {
		sopts.WorkerStderr = stderr
	}
	srv, err := bulkpim.NewServer(opts, sopts)
	if err != nil {
		fmt.Fprintf(stderr, "pimbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "pimbench: serving on %s (%d cached points, %s)\n",
		srv.Addr(), cache.Len(), cache.Path())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		fmt.Fprintf(stderr, "pimbench: %v: shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(stderr, "pimbench: shutdown: %v\n", err)
		}
	}()

	serveErr := srv.Serve()
	fmt.Fprintf(stderr, "pimbench: cache: %s (%s)\n", cache.Stats(), cache.Path())
	snapFooter()
	if serveErr != nil {
		fmt.Fprintf(stderr, "pimbench: serve: %v\n", serveErr)
		return 1
	}
	return 0
}

// workCmd is the hidden worker endpoint `pimbench coord` and `pimbench
// serve` spawn: it speaks the line-delimited JSON protocol on
// stdin/stdout (stdout carries nothing else) and logs on stderr. It
// takes no experiment flags: every job frame carries its spec.
func workCmd(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs, f := newWorkFlags(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	stopProfiles, err := startProfiles(*f.prof.cpu, *f.prof.mem)
	if err != nil {
		fmt.Fprintf(stderr, "pimbench: profile: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(stderr, "pimbench: profile: %v\n", err)
		}
	}()
	fmt.Fprintf(stderr, "pimbench: build: %s\n", buildLine())
	var opts bulkpim.Options
	if *f.verbose {
		opts.Log = func(format string, args ...interface{}) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	snapFooter, err := attachSnapshots(*f.snapDir, &opts, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "pimbench: %v\n", err)
		return 1
	}
	defer snapFooter()
	if workErr := bulkpim.ServeWorker(opts, stdin, stdout, *f.failAfter); workErr != nil {
		fmt.Fprintf(stderr, "pimbench: work: %v\n", workErr)
		return 1
	}
	return 0
}

// snapshotCmd inspects and garbage-collects a workload snapshot store.
// -ls (the default) lists id, size and workload identity per snapshot,
// flagging files that fail verification; -gc removes snapshots older
// than -older-than (0 = all) plus anything broken — corrupt files,
// foreign store versions and orphaned temp files can never hit, so
// they are always garbage.
func snapshotCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pimbench snapshot", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("snapshot-dir", "", "snapshot store directory (required)")
	ls := fs.Bool("ls", false, "list snapshots (default action)")
	gc := fs.Bool("gc", false, "garbage-collect the store")
	olderThan := fs.Duration("older-than", 0, "with -gc, only remove snapshots older than this (0 removes every snapshot)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *dir == "" || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "pimbench: usage: pimbench snapshot -snapshot-dir DIR [-ls | -gc [-older-than DUR]]")
		return 2
	}
	snap, err := bulkpim.OpenSnapshotStore(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "pimbench: %v\n", err)
		return 1
	}
	if *gc {
		removed, freed, err := snap.GC(*olderThan, time.Now())
		if err != nil {
			fmt.Fprintf(stderr, "pimbench: snapshot gc: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "removed %d files (%d bytes) from %s\n", removed, freed, snap.Dir())
		return 0
	}
	_ = ls // listing is the default action
	infos, err := snap.List()
	if err != nil {
		fmt.Fprintf(stderr, "pimbench: %v\n", err)
		return 1
	}
	for _, in := range infos {
		if in.Err != nil {
			fmt.Fprintf(stdout, "%s\t%d\tBROKEN: %v\n", in.ID, in.Size, in.Err)
			continue
		}
		fmt.Fprintf(stdout, "%s\t%d\t%s\n", in.ID, in.Size, in.Label)
	}
	fmt.Fprintf(stderr, "pimbench: %d snapshots in %s\n", len(infos), snap.Dir())
	return 0
}

// runExperiments executes one experiment — or, for "all", the whole
// suite — writing its report to stdout artifact by artifact, in
// canonical order, followed on stderr by the per-experiment timing
// footer for "all" (wall times vary run to run, so the footer stays
// out of the byte-stable stdout reports). With stream, each
// artifact's settle order is logged on stderr as it becomes ready.
// With a non-empty csvDir, each artifact's CSV files are written as it
// settles (writeArtifactCSV), from the same report items as stdout.
func runExperiments(exp string, opts bulkpim.Options, stream bool, csvDir string, stdout, stderr io.Writer) error {
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return fmt.Errorf("csv: %w", err)
		}
	}
	// StreamReport serializes emissions, so csvErr needs no lock.
	var csvErr error
	emit := func(e bulkpim.StreamEmit) {
		if stream {
			logStreamEmit(e, stderr)
		}
		if csvDir != "" && csvErr == nil {
			csvErr = writeArtifactCSV(csvDir, e)
		}
	}
	timings, err := bulkpim.StreamReport(exp, opts, emit, stdout)
	if len(timings) > 0 {
		fmt.Fprintf(stderr, "pimbench: %s\n", bulkpim.TimingFooter(timings))
	}
	if csvErr != nil {
		err = errors.Join(err, fmt.Errorf("csv: %w", csvErr))
	}
	return err
}

// writeArtifactCSV writes one settled artifact's report items into
// dir for external plotting: a single item as ARTIFACT.csv, several as
// ARTIFACTa.csv, ARTIFACTb.csv, … in report order (fig7 → fig7a,
// fig7b; fig10 → fig10a–d). A failed artifact writes nothing.
func writeArtifactCSV(dir string, e bulkpim.StreamEmit) error {
	if e.Err != nil {
		return nil
	}
	for i, it := range e.Items {
		name := e.Artifact
		if len(e.Items) > 1 {
			name += string(rune('a' + i))
		}
		if err := os.WriteFile(filepath.Join(dir, name+".csv"), []byte(it.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// logStreamEmit prints one artifact emission's settle-order line on
// stderr — the wall-clock evidence that figures stream out before the
// suite finishes (stdout carries only the byte-stable reports).
func logStreamEmit(e bulkpim.StreamEmit, stderr io.Writer) {
	if e.Err != nil {
		fmt.Fprintf(stderr, "pimbench: artifact %s/%s failed: %v\n", e.Experiment, e.Artifact, e.Err)
		return
	}
	fmt.Fprintf(stderr, "pimbench: artifact %s/%s ready (settled #%d)\n", e.Experiment, e.Artifact, e.Seq+1)
}
