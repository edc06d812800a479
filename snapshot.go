package bulkpim

// Workload snapshot glue: the bridge between the experiment specs'
// lazy workload generation and the content-addressed snapshot store
// (internal/snapshot). Every workload a spec plans is identified by
// the same identity string its jobs carry in SimJob.Extra — the
// workload half of the result-cache fingerprint — so the snapshot id
// is derived from an identity the pipeline already agrees on
// everywhere. generateYCSB/generateTPCH consult the store before
// generating and publish after (YCSB after Precompute, so a loaded
// database is frozen and shareable), and count every actual
// generation through genCount: the instrumentation behind the
// "a warm snapshot run generates zero workloads" invariant CI gates,
// mirroring execCount's plan/execute separation contract.

import (
	"sync/atomic"

	"bulkpim/internal/snapshot"
	"bulkpim/internal/workload/tpch"
	"bulkpim/internal/workload/ycsb"
)

// genCount counts actual workload generations, process-wide. A
// snapshot hit does not count; a miss, a corrupt snapshot or a
// store-less run does. Tests and the pimbench footer read it through
// WorkloadGenerations as before/after deltas.
var genCount atomic.Int64

// WorkloadGenerations returns the process-wide count of workload
// generations (snapshot hits excluded). Read it before and after a
// run and subtract: a run served entirely from snapshots — or from
// the result cache, which never touches workloads at all — adds zero.
func WorkloadGenerations() int64 { return genCount.Load() }

// generateYCSB returns the workload for p: loaded from the snapshot
// store when possible, generated (and published back) otherwise. A
// snapshot that fails to decode or verify falls back to generation —
// never to an error: snapshots are an accelerator, not a dependency.
func generateYCSB(snap *SnapshotStore, p ycsb.Params) *ycsb.Workload {
	identity := ycsbIdentity(p)
	if snap != nil {
		if b, ok := snap.Load(snapshot.ID(identity)); ok {
			w, err := ycsb.FromSnapshot(b, p)
			if err == nil {
				return w
			}
			// The store's integrity check passed but the workload layer
			// rejected the payload (wire-version skew, foreign params):
			// re-book the hit as a corrupt miss so the stats report
			// workloads served, not bytes read.
			snap.DecodeFailed()
		}
	}
	genCount.Add(1)
	w := ycsb.New(p)
	w.Precompute()
	if snap != nil {
		if b, err := w.Snapshot(); err == nil {
			// Publish errors are counted in the store's stats; the
			// generated workload is still good.
			_ = snap.Save(snapshot.ID(identity), identity, b)
		}
	}
	return w
}

// generateTPCH is generateYCSB's TPC-H counterpart. The construction
// is cheap, but routing it through the store keeps the
// zero-generations invariant uniform across workload kinds.
func generateTPCH(snap *SnapshotStore, q tpch.QuerySpec, threads int, scale float64, verify bool) *tpch.Workload {
	identity := tpchIdentity(q, threads, scale, verify)
	if snap != nil {
		if b, ok := snap.Load(snapshot.ID(identity)); ok {
			w, err := tpch.FromSnapshot(b, q, threads, scale, verify)
			if err == nil {
				return w
			}
			snap.DecodeFailed()
		}
	}
	genCount.Add(1)
	w := tpch.NewWorkload(q, threads, scale, verify)
	if snap != nil {
		if b, err := w.Snapshot(); err == nil {
			_ = snap.Save(snapshot.ID(identity), identity, b)
		}
	}
	return w
}

// plannedIdentities collects the workload identity strings the jobs of
// fingerprint groups carry in Extra. The fingerprint folds Extra in, so
// a plan's groups carry every identity its jobs do.
func plannedIdentities(groups []*fpGroup) map[string]bool {
	identities := map[string]bool{}
	for _, g := range groups {
		identities[g.job.Extra] = true
	}
	return identities
}

// prewarmPlanned generates and publishes the most expensive workloads
// a plan actually uses, given the workload identities its jobs carry
// (plannedIdentities): the largest YCSB database in its default shape
// (shared by the top grid points of every base sweep plus the
// fig9-ycsb, ablation, sbsize and multimod batches) and in its Fig. 13
// 8-thread shape — each only when some planned job carries its
// identity, so a TPC-H-only run pre-warms nothing. Databases whose
// snapshot already exists are skipped with a header-only presence
// check (no multi-GB load just to discard it). Coordinate calls this
// before its first worker launches, with the jobs it dispatches, so a fleet
// sharing the store's filesystem finds the big databases instead of
// racing to regenerate them; everything smaller is published by
// whichever worker generates it first. No-op without a store. Returns
// how many databases were generated here (0 = present or not planned).
func prewarmPlanned(opts Options, identities map[string]bool) int {
	if opts.Snapshots == nil {
		return 0
	}
	before := genCount.Load()
	counts := opts.ycsbRecordCounts()
	last := counts[len(counts)-1]
	for _, p := range []ycsb.Params{
		opts.ycsbParams(last, nil),
		opts.ycsbParams(last, fig13Params),
	} {
		identity := ycsbIdentity(p)
		if !identities[identity] || opts.Snapshots.Contains(snapshot.ID(identity)) {
			continue
		}
		generateYCSB(opts.Snapshots, p)
	}
	return int(genCount.Load() - before)
}
