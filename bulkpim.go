// Package bulkpim is a from-scratch reproduction of "On Consistency for
// Bulk-Bitwise Processing-in-Memory" (Perach, Ronen, Kvatinsky — HPCA
// 2023): four consistency models for bulk-bitwise PIM operations, the
// scope buffer and scope bit-vector coherence hardware, a deterministic
// discrete-event simulator of the host (cores, MESI caches, reordering
// NoC, memory controller) and of a PIMDB-style PIM module with a
// functional bulk-bitwise execution engine, plus the paper's YCSB and
// TPC-H workloads and a harness that regenerates every figure and table
// of its evaluation.
//
// Quick start:
//
//	cfg := bulkpim.DefaultConfig()
//	cfg.Model = bulkpim.Scope
//	w := bulkpim.NewYCSB(bulkpim.YCSBParams(100_000))
//	res, err := bulkpim.RunYCSB(w, cfg)
//
// See examples/ for runnable programs and cmd/pimbench for the experiment
// harness.
package bulkpim

import (
	"bulkpim/internal/core"
	"bulkpim/internal/cpu"
	"bulkpim/internal/mem"
	"bulkpim/internal/pimdb"
	"bulkpim/internal/report"
	"bulkpim/internal/resultcache"
	"bulkpim/internal/runner"
	"bulkpim/internal/sim"
	"bulkpim/internal/snapshot"
	"bulkpim/internal/system"
	"bulkpim/internal/workload/litmus"
	"bulkpim/internal/workload/tpch"
	"bulkpim/internal/workload/ycsb"
)

// Model selects the PIM consistency model or baseline (paper §III, §VI-C).
type Model = core.Model

// The three baselines and four proposed consistency models.
const (
	Naive        = core.Naive
	SWFlush      = core.SWFlush
	Uncacheable  = core.Uncacheable
	Atomic       = core.Atomic
	Store        = core.Store
	Scope        = core.Scope
	ScopeRelaxed = core.ScopeRelaxed
)

// ProposedModels returns the paper's four models, strictest first.
func ProposedModels() []Model { return core.ProposedModels() }

// AllVariants returns baselines plus proposed models.
func AllVariants() []Model { return core.AllVariants() }

// ParseModel converts a model name to a Model.
func ParseModel(s string) (Model, error) { return core.ParseModel(s) }

// Config is the full machine configuration (paper Table II).
type Config = system.Config

// DefaultConfig returns Table II's system.
func DefaultConfig() Config { return system.Default() }

// System is an assembled machine; Result one run's outcome.
type (
	System = system.System
	Result = system.Result
)

// NewSystem builds a machine for cfg.
func NewSystem(cfg Config) *System { return system.New(cfg) }

// Tick is simulated time in CPU cycles.
type Tick = sim.Tick

// Thread is a workload instruction stream; Instr one instruction.
type (
	Thread     = cpu.Thread
	Instr      = cpu.Instr
	InstrKind  = cpu.InstrKind
	BurstRange = cpu.BurstRange
	Barrier    = cpu.Barrier
)

// Instruction kinds for hand-built threads (litmus tests, examples).
const (
	InstrCompute    = cpu.InstrCompute
	InstrLoad       = cpu.InstrLoad
	InstrLoadBurst  = cpu.InstrLoadBurst
	InstrStore      = cpu.InstrStore
	InstrPIMOp      = cpu.InstrPIMOp
	InstrFlush      = cpu.InstrFlush
	InstrFenceFull  = cpu.InstrFenceFull
	InstrFencePIM   = cpu.InstrFencePIM
	InstrScopeFence = cpu.InstrScopeFence
	InstrBarrier    = cpu.InstrBarrier
)

// NewSliceThread builds a thread that replays a fixed instruction
// sequence.
func NewSliceThread(instrs ...Instr) Thread { return &cpu.SliceThread{Instrs: instrs} }

// NewBarrier builds a reusable barrier for n threads.
func NewBarrier(n int) *Barrier { return cpu.NewBarrier(n) }

// PIMProgram is one bulk-bitwise PIM operation (latency + functional
// effect).
type PIMProgram = mem.PIMProgram

// NewPIMProgram builds a custom PIM program: microOps drives the latency
// model; apply, when non-nil, performs the functional memory update
// through byte-granular read/write accessors.
func NewPIMProgram(name string, microOps int, apply func(read func(Addr) byte, write func(Addr, byte))) *PIMProgram {
	p := &PIMProgram{Name: name, MicroOps: microOps}
	if apply != nil {
		p.Apply = func(b *mem.Backing, writer uint64) {
			touched := make(map[mem.LineAddr]bool)
			apply(b.ByteAt, func(a Addr, v byte) {
				b.SetByte(a, v)
				touched[mem.LineOf(a)] = true
			})
			for line := range touched {
				b.SetWriter(line, writer)
			}
		}
	}
	return p
}

// ---- YCSB ----

// YCSBWorkload is a generated YCSB run (paper Table III).
type YCSBWorkload = ycsb.Workload

// YCSBParamsT are the workload knobs.
type YCSBParamsT = ycsb.Params

// YCSBParams returns Table III defaults for a record count.
func YCSBParams(records int) YCSBParamsT { return ycsb.DefaultParams(records) }

// NewYCSB generates the operation sequence.
func NewYCSB(p YCSBParamsT) *YCSBWorkload { return ycsb.New(p) }

// RunYCSB executes the workload on a fresh system built from cfg.
func RunYCSB(w *YCSBWorkload, cfg Config) (Result, error) { return ycsb.Run(w, cfg) }

// ---- TPC-H ----

// TPCHQuery describes one query's PIM section (paper Table IV).
type TPCHQuery = tpch.QuerySpec

// TPCHWorkload is a query prepared for execution.
type TPCHWorkload = tpch.Workload

// TPCHQueries returns the 19 evaluated queries.
func TPCHQueries() []TPCHQuery { return tpch.Queries() }

// TPCHQueryByName looks a query up ("q1".."q22").
func TPCHQueryByName(name string) (TPCHQuery, bool) { return tpch.QueryByName(name) }

// NewTPCH prepares a query for threads workers at a scope/run scale in
// (0, 1] (1.0 = Table IV scale).
func NewTPCH(q TPCHQuery, threads int, scale float64, verify bool) *TPCHWorkload {
	return tpch.NewWorkload(q, threads, scale, verify)
}

// RunTPCH executes the query workload on a fresh system built from cfg.
func RunTPCH(w *TPCHWorkload, cfg Config) (Result, error) { return tpch.Run(w, cfg) }

// ---- Litmus (paper §I, Fig. 1) ----

// LitmusOutcome is one Fig. 1 run's result.
type LitmusOutcome = litmus.Outcome

// RunFig1 executes the Fig. 1 scenario at one adversary timing.
func RunFig1(m Model, adversaryDelay Tick) (LitmusOutcome, error) {
	return litmus.RunFig1(m, adversaryDelay)
}

// SweepFig1 runs Fig. 1 across adversary timings.
func SweepFig1(m Model, delays []Tick) ([]LitmusOutcome, error) {
	return litmus.SweepFig1(m, delays)
}

// LitmusDefaultSweep covers the vulnerable window.
func LitmusDefaultSweep() []Tick { return litmus.DefaultSweep() }

// LitmusVulnerable summarizes a sweep.
func LitmusVulnerable(outs []LitmusOutcome) (stale, cycle bool) {
	return litmus.Vulnerable(outs)
}

// ---- parallel job runner ----

// Job is one independent simulation point for RunJobs; JobResult pairs
// its outcome with the submission index; JobOptions sets parallelism
// and an optional progress callback; SimJob is the declarative point
// spec (base Config + mutator + Execute); JobSummary is a batch's
// wall-clock / sim-cycle accounting. Every experiment sweep in this
// package runs on the same machinery.
type (
	Job        = runner.Job[Result]
	JobResult  = runner.JobResult[Result]
	JobOptions = runner.Options[Result]
	SimJob     = runner.SimJob
	JobSummary = runner.Summary
)

// RunJobs executes independent simulation jobs on a worker pool
// (JobOptions.Parallelism wide; 0 = GOMAXPROCS) and returns results
// re-ordered by submission index, so output is identical to running
// the jobs sequentially. A failed job is captured in its JobResult
// without aborting siblings. Anything jobs share — e.g. one generated
// workload across model variants — must be read-only; freeze a YCSB
// workload with its Precompute method before sharing it.
func RunJobs(jobs []Job, opts JobOptions) []JobResult { return runner.RunJobs(jobs, opts) }

// SimJobs lowers declarative job specs into runnable jobs.
func SimJobs(specs []SimJob) []Job { return runner.SimJobs(specs) }

// SummarizeJobs folds a batch into its accounting.
func SummarizeJobs(rs []JobResult) JobSummary { return runner.Summarize(rs) }

// ---- persistent result cache ----

// ResultCache is an on-disk, content-addressed store of finished
// simulation results, keyed by (job key, config + workload
// fingerprint, schema version) and persisted as JSON lines. Set it on
// Options.Cache (or pimbench -cache-dir) to memoize grid points across
// harness invocations: a warm run skips already-computed points and
// emits byte-identical reports, so an interrupted sweep resumes
// cheaply. Loading tolerates truncated or corrupt lines — the residue
// of an interrupted run — and invalidates entries from older schema
// versions.
type ResultCache = resultcache.Cache

// CacheStats is the cache's hit/miss/invalidation accounting.
type CacheStats = resultcache.Stats

// OpenResultCache loads (or creates) a result cache under dir.
func OpenResultCache(dir string) (*ResultCache, error) { return resultcache.Open(dir) }

// CacheFileStats summarizes one validated cache file; CacheMergeStats
// summarizes a merge of several.
type (
	CacheFileStats  = resultcache.FileStats
	CacheMergeStats = resultcache.MergeStats
)

// ValidateResultCache strictly checks one cache file (or directory):
// unlike the tolerant load path, a corrupt line, a foreign schema
// version or conflicting results for one (key, fingerprint) identity
// is an error naming the file and line.
func ValidateResultCache(path string) (CacheFileStats, error) { return resultcache.Validate(path) }

// MergeResultCaches validates the source caches (directories or
// results.jsonl paths) and writes their deduplicated union to
// dstDir/results.jsonl — the coordinator half of a sharded run, after
// which a report pass against dstDir is served entirely from cache
// hits. See resultcache.Merge for the conflict rules.
func MergeResultCaches(dstDir string, srcs ...string) (CacheMergeStats, error) {
	return resultcache.Merge(dstDir, srcs...)
}

// ---- workload snapshot store ----

// SnapshotStore is a content-addressed, on-disk store of generated
// workload snapshots, keyed by workload identity (the same identity
// SimJob.Extra folds into result-cache fingerprints) and verified by
// an integrity hash on load. Set it on Options.Snapshots (or pimbench
// -snapshot-dir) to skip regenerating identical databases across
// harness invocations — and, with a shared filesystem, across a whole
// worker fleet: writers publish atomically, so each database is
// generated at most once suite-wide. Corrupt or foreign-version files
// degrade to regeneration, never errors.
type SnapshotStore = snapshot.Store

// SnapshotStats is the store's hit/miss/corruption accounting;
// SnapshotInfo describes one stored snapshot for inspection.
type (
	SnapshotStats = snapshot.Stats
	SnapshotInfo  = snapshot.Info
)

// OpenSnapshotStore prepares a snapshot store under dir.
func OpenSnapshotStore(dir string) (*SnapshotStore, error) { return snapshot.Open(dir) }

// ---- Hardware overhead (paper §VI-A) ----

// AreaReport is the scope buffer + SBV area estimate.
type AreaReport = core.AreaReport

// EstimateArea computes the paper's hardware-overhead claim (0.092% LLC
// only, 0.22% all caches).
func EstimateArea() AreaReport { return core.EstimateArea(core.DefaultAreaConfig()) }

// ---- misc re-exports used by examples and the harness ----

// Layout is the PIMDB record/result organization inside a scope.
type Layout = pimdb.Layout

// DefaultLayout returns the 64-array, 512x512 organization of 2MB scopes.
func DefaultLayout() Layout { return pimdb.DefaultLayout() }

// Addr is a physical address; LineAddr a cache-line-aligned address;
// ScopeID a PIM scope.
type (
	Addr     = mem.Addr
	LineAddr = mem.LineAddr
	ScopeID  = mem.ScopeID
)

// Series and Table are the harness output forms.
type (
	Series = report.Series
	Table  = report.Table
)
