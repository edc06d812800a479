// Command pimbench regenerates the tables and figures of "On Consistency
// for Bulk-Bitwise Processing-in-Memory" (HPCA 2023).
//
// Usage:
//
//	pimbench [run] [flags]      execute experiments and print reports
//	pimbench plan [flags]       print the deterministic job manifest
//	pimbench coord [flags]      dispatch jobs to a fault-tolerant worker fleet
//	pimbench serve [flags]      HTTP daemon: cached results instantly, misses on a live fleet
//	pimbench work [flags]       worker endpoint spawned by coord and serve (jobs carry their spec)
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
// Incremental re-plans diff a saved manifest against the current
// build — only jobs whose fingerprint is new or changed are planned,
// and grid points that disappeared are reported, never dropped:
//
//	pimbench plan -exp all -scale full -json > manifest.json
//	# ...edit a Config parameter...
//	pimbench plan -exp all -scale full -json -diff manifest.json
//
// Every report streams: each figure or table is written the moment its
// last job settles, in canonical order, so stdout is byte-identical at
// every parallelism. -v logs the settle order on stderr.
//
// Distributed runs go through the coordinator, on one machine or —
// via -worker-cmd — over ssh-style launchers: it dedups the planned
// suite by fingerprint, serves what the cache already holds, dispatches
// the missing jobs to worker subprocesses with dynamic work-stealing,
// retries jobs from crashed or erroring workers on the survivors, and
// streams every finished result into the cache as it lands. It prints
// the same report as a single-process run:
//
//	pimbench coord -workers 8 -exp all -scale full -cache-dir d
//	pimbench coord -workers 8 -worker-cmd 'ssh host pimbench {args}' \
//	    -exp all -scale full -cache-dir d                 # remote workers
//
// The run survives worker death (a lost worker is replaced and its job
// retried elsewhere, up to 3 attempts per job), and a mid-run kill of
// the coordinator loses at most the in-flight jobs — re-running
// resumes from the cache and executes only what is missing. Local
// runs, coord and serve share one executor (coord.Pool); coord and
// serve share one worker mode: every job frame carries its spec.
//
// The serve daemon is the coordinator promoted to an always-on service:
// an HTTP/JSON API over the same cache and a persistent worker fleet.
// Cached requests answer instantly; misses are planned, deduplicated
// against all in-flight work fleet-wide, executed once, and written
// back (see README "Serving"):
//
//	pimbench serve -addr :8080 -cache-dir d -workers 4
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
		case "coord":
			return coordCmd(args[1:], stdout, stderr)
		case "serve":
			return serveCmd(args[1:], stdout, stderr)
		case "work":
			return workCmd(args[1:], stdin, stdout, stderr)
		case "version":
			return versionCmd(args[1:], stdout, stderr)
		default:
			fmt.Fprintf(stderr, "pimbench: unknown subcommand %q (have run, plan, coord, serve, work, version)\n", args[0])
			return 2
		}
	}
	return runCmd(args, stdout, stderr)
}

// defaultCacheDir is where -resume looks without an explicit -cache-dir.
const defaultCacheDir = ".pimbench-cache"

// runCmd executes experiments: the full plan -> execute -> report path.
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

	start := time.Now()
	runErr := runExperiments(*f.exp, opts, *f.verbose, *f.csvDir, stdout, stderr)
	// Accounting goes to stderr even on failure: a partially-failed
	// resumed run still reports what it skipped and recomputed.
	if cache != nil {
		fmt.Fprintf(stderr, "pimbench: cache: %s (%s)\n", cache.Stats(), cache.Path())
	}
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

// planCmd prints the deterministic job manifest — experiment, key,
// fingerprint per planned job — without executing any simulation work.
// -json emits the schema-versioned manifest envelope for external
// schedulers and later diffing; -diff OLD.json keeps only the jobs
// whose fingerprint the prior manifest does not contain — the exact
// subset an incremental re-run has to execute (everything else is a
// warm cache hit).
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
	opts := f.options()
	manifest, err := bulkpim.Manifest(*f.exp, opts)
	if err != nil {
		fmt.Fprintf(stderr, "pimbench: %v\n", err)
		return 1
	}
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

// coordCmd runs the fault-tolerant coordinator: the run path with its
// cache misses executed on a worker-subprocess fleet, each result
// streaming into the cache, a live jobs-done/ETA footer on stderr, and
// the report on stdout — byte-identical to a single-process run.
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
		fmt.Fprintln(stderr, "pimbench: coord needs -cache-dir: the coordinator streams results into a cache re-runs resume from")
		return 2
	}
	fmt.Fprintf(stderr, "pimbench: build: %s\n", buildLine())

	opts := f.options()
	opts.Parallelism = *f.fleet.workers
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

	copts := bulkpim.CoordOptions{
		WorkerCmd:  *f.fleet.workerCmd,
		Progress:   stderr,
		FailWorker: *f.fleet.failWorker,
		FailAfter:  *f.fleet.failAfter,
	}
	var emit func(bulkpim.StreamEmit)
	if *f.verbose {
		copts.WorkerStderr = stderr
		emit = func(e bulkpim.StreamEmit) { logStreamEmit(e, stderr) }
	}
	sum, runErr := bulkpim.Coordinate(*f.exp, opts, copts, emit, stdout)
	fmt.Fprintf(stderr, "pimbench: coord: %s\n", sum)
	fmt.Fprintf(stderr, "pimbench: cache: %s (%s)\n", cache.Stats(), cache.Path())
	if runErr != nil {
		fmt.Fprintf(stderr, "pimbench: %v\n", runErr)
		return 1
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
	if workErr := bulkpim.ServeWorker(opts, stdin, stdout, *f.failAfter); workErr != nil {
		fmt.Fprintf(stderr, "pimbench: work: %v\n", workErr)
		return 1
	}
	return 0
}

// runExperiments executes one experiment — or, for "all", the whole
// suite — writing its report to stdout artifact by artifact, in
// canonical order, followed on stderr by the per-experiment timing
// footer for "all" (wall times vary run to run, so the footer stays
// out of the byte-stable stdout reports). With verbose, each
// artifact's settle order is logged on stderr as it becomes ready.
// With a non-empty csvDir, each artifact's CSV files are written as it
// settles (writeArtifactCSV), from the same report items as stdout.
func runExperiments(exp string, opts bulkpim.Options, verbose bool, csvDir string, stdout, stderr io.Writer) error {
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return fmt.Errorf("csv: %w", err)
		}
	}
	// StreamReport serializes emissions, so csvErr needs no lock.
	var csvErr error
	emit := func(e bulkpim.StreamEmit) {
		if verbose {
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
