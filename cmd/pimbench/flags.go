package main

// Single source of shared flag definitions. The run, plan, coord,
// serve and work subcommands overlap on most of their flags — the
// -exp/-scale/-seed trio, -v, -cache-dir, -snapshot-dir, the fleet and
// crash-injection knobs, -stream — and before this file each
// subcommand declared its copies inline, so a rename or default change
// in one place could silently skew the others (and a new shared flag
// like -stream could land on run but drift from coord). Every shared
// flag is now declared by exactly one builder below; the per-
// subcommand newXxxFlags constructors compose them plus their own
// private flags. TestSharedFlagParity walks all five flag sets and
// asserts that a flag name appearing in several subcommands carries
// one default everywhere.

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"bulkpim"
)

// newFlagSet builds a subcommand flag set that reports usage and parse
// errors on stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// expFlags is the experiment-selection trio (-exp, -scale, -seed)
// shared by run, plan and coord.
type expFlags struct {
	exp   *string
	scale *string
	seed  *uint64
}

func addExpFlags(fs *flag.FlagSet, verb string) expFlags {
	return expFlags{
		exp:   fs.String("exp", "all", "experiment to "+verb+": "+strings.Join(bulkpim.Experiments(), ", ")),
		scale: fs.String("scale", "quick", "measurement scale: smoke | bench | quick | medium | full"),
		seed:  fs.Uint64("seed", 0, "workload seed (0 = default)"),
	}
}

// validScale validates -scale, printing the standard error line.
func (ef expFlags) validScale(stderr io.Writer) bool {
	if !bulkpim.ValidScale(bulkpim.Scale(*ef.scale)) {
		fmt.Fprintf(stderr, "pimbench: unknown scale %q (have %v)\n", *ef.scale, bulkpim.Scales())
		return false
	}
	return true
}

// options builds the harness Options the trio selects.
func (ef expFlags) options() bulkpim.Options {
	return bulkpim.Options{Scale: bulkpim.Scale(*ef.scale), Seed: *ef.seed}
}

func addVerbose(fs *flag.FlagSet, help string) *bool {
	return fs.Bool("v", false, help)
}

func addCacheDir(fs *flag.FlagSet, help string) *string {
	return fs.String("cache-dir", "", help)
}

func addSnapshotDir(fs *flag.FlagSet, help string) *string {
	return fs.String("snapshot-dir", "", help)
}

// addStream declares -stream for the subcommands that render reports
// (run and coord): emit each figure/table the moment its last job
// settles instead of batching every report to the end. The assembled
// stdout bytes stay identical to a batch report; the settle order is
// logged per artifact on stderr.
func addStream(fs *flag.FlagSet) *bool {
	return fs.Bool("stream", false, "stream each figure/table to stdout the moment its last job settles (bytes identical to the batch report; settle order logs on stderr)")
}

func addFailAfter(fs *flag.FlagSet, help string) *int {
	return fs.Int("fail-after", 0, help)
}

// fleetFlags are the worker-fleet knobs coord and serve share.
type fleetFlags struct {
	workers    *int
	workerCmd  *string
	failWorker *int
	failAfter  *int
}

func addFleetFlags(fs *flag.FlagSet, workersHelp string) fleetFlags {
	return fleetFlags{
		workers:    fs.Int("workers", 0, workersHelp),
		workerCmd:  fs.String("worker-cmd", "", "worker launch template; {args} expands to the work-subcommand arguments (default: re-execute this binary)"),
		failWorker: fs.Int("fail-worker", 0, "crash-injection test hook: which worker gets -fail-after"),
		failAfter:  addFailAfter(fs, "crash-injection test hook: kill that worker after N served jobs"),
	}
}

// profileFlags are the pprof capture knobs run and work share.
type profileFlags struct {
	cpu *string
	mem *string
}

func addProfileFlags(fs *flag.FlagSet) profileFlags {
	return profileFlags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile (pprof) of the run to this file"),
		mem: fs.String("memprofile", "", "write a heap profile (pprof) at run end to this file"),
	}
}

// runFlags is the `pimbench run` flag set.
type runFlags struct {
	expFlags
	verbose  *bool
	parallel *int
	list     *bool
	csvDir   *string
	cacheDir *string
	noCache  *bool
	resume   *bool
	snapDir  *string
	shard    *string
	stream   *bool
	prof     profileFlags
	gcstats  *string
}

func newRunFlags(stderr io.Writer) (*flag.FlagSet, *runFlags) {
	fs := newFlagSet("pimbench", stderr)
	f := &runFlags{
		expFlags: addExpFlags(fs, "run"),
		verbose:  addVerbose(fs, "log per-run progress"),
		parallel: fs.Int("parallel", 0, "concurrent simulation jobs (0 = GOMAXPROCS, 1 = sequential; results are identical at any value)"),
		list:     fs.Bool("list", false, "list experiments and exit"),
		csvDir:   fs.String("csvdir", "", "also write every reported artifact as CSV into this directory, as it streams out: ARTIFACT.csv, or ARTIFACTa.csv, ARTIFACTb.csv, ... for one file per series or table of a multi-part artifact"),
		cacheDir: addCacheDir(fs, "persist finished grid points here and skip them on re-runs (reports are byte-identical either way)"),
		noCache:  fs.Bool("no-cache", false, "disable the result cache even when -cache-dir or -resume is set"),
		resume:   fs.Bool("resume", false, "resume an interrupted run from the result cache (defaults -cache-dir to "+defaultCacheDir+")"),
		snapDir:  addSnapshotDir(fs, "memoize generated workloads here (content-addressed) and load instead of regenerating on re-runs; shareable across a fleet"),
		shard:    fs.String("shard", "", "execute only shard i/n of the planned jobs (stable hash of the job key) into the cache; no reports are built"),
		stream:   addStream(fs),
		prof:     addProfileFlags(fs),
		gcstats:  fs.String("gcstats", "", "write an allocation/GC summary (runtime.MemStats JSON) at run end to this file"),
	}
	return fs, f
}

// planFlags is the `pimbench plan` flag set.
type planFlags struct {
	expFlags
	shard  *string
	asJSON *bool
	diff   *string
}

func newPlanFlags(stderr io.Writer) (*flag.FlagSet, *planFlags) {
	fs := newFlagSet("pimbench plan", stderr)
	f := &planFlags{
		expFlags: addExpFlags(fs, "plan"),
		shard:    fs.String("shard", "", "print only shard i/n of the manifest"),
		asJSON:   fs.Bool("json", false, "emit the manifest as a schema-versioned JSON envelope"),
		diff:     fs.String("diff", "", "incremental re-plan: load a prior `plan -json` manifest and keep only jobs whose fingerprint is new or changed (removed jobs and a summary report on stderr)"),
	}
	return fs, f
}

// coordFlags is the `pimbench coord` flag set.
type coordFlags struct {
	expFlags
	fleet    fleetFlags
	cacheDir *string
	snapDir  *string
	verbose  *bool
	stream   *bool
}

func newCoordFlags(stderr io.Writer) (*flag.FlagSet, *coordFlags) {
	fs := newFlagSet("pimbench coord", stderr)
	f := &coordFlags{
		expFlags: addExpFlags(fs, "run"),
		fleet:    addFleetFlags(fs, "worker subprocesses (0 = GOMAXPROCS)"),
		cacheDir: addCacheDir(fs, "stream finished results into this cache directory (required)"),
		snapDir:  addSnapshotDir(fs, "workload snapshot store: the coordinator pre-warms the biggest databases and every worker is pointed at it"),
		verbose:  addVerbose(fs, "log per-job progress and forward worker stderr"),
		stream:   addStream(fs),
	}
	return fs, f
}

// serveFlags is the `pimbench serve` flag set.
type serveFlags struct {
	addr     *string
	cacheDir *string
	snapDir  *string
	fleet    fleetFlags
	local    *bool
	verbose  *bool
}

func newServeFlags(stderr io.Writer) (*flag.FlagSet, *serveFlags) {
	fs := newFlagSet("pimbench serve", stderr)
	f := &serveFlags{
		addr:     fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks an ephemeral port)"),
		cacheDir: addCacheDir(fs, "result cache directory the daemon serves from and writes back into (required)"),
		snapDir:  addSnapshotDir(fs, "workload snapshot store shared with the worker fleet"),
		fleet:    addFleetFlags(fs, "initial worker fleet size and auto-replace target (0 = 2)"),
		local:    fs.Bool("local", false, "execute in-process instead of spawning worker subprocesses"),
		verbose:  addVerbose(fs, "log requests, fleet events and forward worker stderr"),
	}
	return fs, f
}

// workFlags is the `pimbench work` flag set. It has no experiment
// flags: every job frame carries the spec the worker plans for.
type workFlags struct {
	snapDir   *string
	verbose   *bool
	failAfter *int
	prof      profileFlags
}

func newWorkFlags(stderr io.Writer) (*flag.FlagSet, *workFlags) {
	fs := newFlagSet("pimbench work", stderr)
	f := &workFlags{
		snapDir:   addSnapshotDir(fs, "workload snapshot store shared with the coordinator and sibling workers"),
		verbose:   addVerbose(fs, "log served jobs on stderr"),
		failAfter: addFailAfter(fs, "crash-injection test hook: exit 3 when job N+1 arrives"),
		prof:      addProfileFlags(fs),
	}
	return fs, f
}
