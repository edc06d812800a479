package bulkpim

// Tests for the workload snapshot glue: planning must generate no
// workloads, a snapshot-warm suite run must generate none either while
// staying byte-identical, and the coordinator's pre-warm must publish
// the big databases exactly once.

import (
	"testing"

	"bulkpim/internal/snapshot"
)

// runAllReport runs the whole suite at smoke scale and returns the
// concatenated reports, the byte-stable form the other paths are
// compared against.
func runAllReport(t *testing.T, opts Options) string {
	t.Helper()
	out, err := RunExperiment("all", opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSnapshotSkipsRegeneration is the snapshot counterpart of
// TestPlanExecutesNothing: a run against a warm snapshot store must
// perform zero workload generations (every generateYCSB/generateTPCH
// routes through the genCount instrumentation) and still emit reports
// byte-identical to both its own cold run and a store-less run.
func TestSnapshotSkipsRegeneration(t *testing.T) {
	dir := t.TempDir()
	snap, err := OpenSnapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	before := genCount.Load()
	cold := runAllReport(t, Options{Scale: ScaleSmoke, Snapshots: snap})
	coldGen := genCount.Load() - before
	if coldGen == 0 {
		t.Fatal("cold run generated no workloads — the instrumentation is broken")
	}
	if st := snap.Stats(); st.Stores != int(coldGen) {
		t.Fatalf("cold run generated %d workloads but published %d (%+v)", coldGen, st.Stores, st)
	}

	// A fresh handle over the same directory — a new process — must be
	// served entirely from snapshots.
	warmStore, err := OpenSnapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	before = genCount.Load()
	warm := runAllReport(t, Options{Scale: ScaleSmoke, Snapshots: warmStore})
	if got := genCount.Load() - before; got != 0 {
		t.Fatalf("snapshot-warm run generated %d workloads, want 0", got)
	}
	if st := warmStore.Stats(); st.Misses != 0 || st.Hits == 0 || st.Corrupt != 0 {
		t.Fatalf("warm-run store stats = %+v, want all hits", st)
	}
	if warm != cold {
		t.Fatal("snapshot-warm report differs from cold run")
	}

	plain := runAllReport(t, Options{Scale: ScaleSmoke})
	if plain != cold {
		t.Fatal("snapshot-backed report differs from store-less run")
	}
}

// TestPlanGeneratesNoWorkloads mirrors TestPlanExecutesNothing one
// layer down: planning (and fingerprinting) the full-scale suite must
// neither generate a workload nor even consult the snapshot store —
// generation is deferred into the job closures.
func TestPlanGeneratesNoWorkloads(t *testing.T) {
	snap, err := OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	before := genCount.Load()
	planned, err := planFor("all", Options{Scale: ScaleFull, Snapshots: snap})
	if err != nil {
		t.Fatal(err)
	}
	jobs := 0
	for _, p := range planned {
		for _, j := range p.jobs {
			jobs++
			if j.FingerprintID() == "" {
				t.Fatalf("%s: job without fingerprint", p.name)
			}
		}
	}
	if jobs == 0 {
		t.Fatal("full-scale suite planned zero jobs")
	}
	if got := genCount.Load() - before; got != 0 {
		t.Fatalf("planning generated %d workloads, want 0", got)
	}
	if st := snap.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("planning consulted the snapshot store: %+v", st)
	}
}

// TestPrewarmSnapshots: the coordinator's pre-warm publishes the
// biggest databases the planned experiment actually uses, exactly once
// — a second pre-warm finds them by presence check without loading —
// and is a no-op without a store or for plans that never touch them.
func TestPrewarmSnapshots(t *testing.T) {
	// prewarm drives the pre-warm the way Coordinate does: over the
	// identities of the plan it dispatches.
	prewarm := func(name string, opts Options) int {
		t.Helper()
		groups, _, err := planGroups(name, opts)
		if err != nil {
			t.Fatal(err)
		}
		return prewarmPlanned(opts, plannedIdentities(groups))
	}
	snap, err := OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Scale: ScaleSmoke, Snapshots: snap}
	if n := prewarm("all", opts); n != 2 {
		t.Fatalf("first pre-warm generated %d databases, want 2 (default + fig13 shape)", n)
	}
	if n := prewarm("all", opts); n != 0 {
		t.Fatalf("second pre-warm regenerated %d databases, want 0", n)
	}
	st := snap.Stats()
	if st.Stores != 2 {
		t.Fatalf("pre-warm published %d snapshots, want 2 (%+v)", st.Stores, st)
	}
	// The second pre-warm must use the header-only presence check, not
	// full loads of multi-GB payloads it would only discard.
	if st.Hits != 0 {
		t.Fatalf("second pre-warm loaded %d snapshots instead of presence-checking (%+v)", st.Hits, st)
	}
	if n := prewarm("all", Options{Scale: ScaleSmoke}); n != 0 {
		t.Fatalf("store-less pre-warm generated %d databases, want no-op", n)
	}

	// Plan awareness: a table-only experiment plans no workloads, and a
	// fig13-only run needs only the 8-thread shape.
	empty, err := OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if n := prewarm("table1", Options{Scale: ScaleSmoke, Snapshots: empty}); n != 0 {
		t.Fatalf("table-only pre-warm generated %d databases, want 0", n)
	}
	if n := prewarm("fig13", Options{Scale: ScaleSmoke, Snapshots: empty}); n != 1 {
		t.Fatalf("fig13 pre-warm generated %d databases, want 1 (8-thread shape only)", n)
	}

	// The pre-warmed databases are the ones the extension batches load:
	// the ablation runs entirely on the largest default-shape database,
	// so against the pre-warmed store it must generate nothing.
	before := genCount.Load()
	if _, err := RunExperiment("ablation", opts); err != nil {
		t.Fatal(err)
	}
	if got := genCount.Load() - before; got != 0 {
		t.Fatalf("ablation after pre-warm generated %d workloads, want 0", got)
	}
}

// TestGenerateYCSBFallsBackOnCorruptSnapshot: a snapshot that loads
// but fails to decode regenerates (and republishes) instead of
// erroring — snapshots are an accelerator, not a dependency.
func TestGenerateYCSBFallsBackOnCorruptSnapshot(t *testing.T) {
	snap, err := OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Scale: ScaleSmoke}
	p := opts.lastRecordsParams()
	w := generateYCSB(snap, p)

	// Publish a valid store entry whose payload is not a decodable
	// workload: the store's integrity hash passes, the gob layer must
	// reject it, and generation must take over.
	identity := ycsbIdentity(p)
	if err := snap.Save(snapshot.ID(identity), identity, []byte("valid store entry, junk payload")); err != nil {
		t.Fatal(err)
	}
	before := genCount.Load()
	w2 := generateYCSB(snap, p)
	if got := genCount.Load() - before; got != 1 {
		t.Fatalf("undecodable snapshot triggered %d generations, want 1", got)
	}
	if w2.Scopes != w.Scopes || w2.P != w.P {
		t.Fatal("fallback generated a different workload")
	}
	// The optimistic store hit must be re-booked as a corrupt miss, so
	// the hit-rate stats reflect workloads served, not bytes read.
	if st := snap.Stats(); st.Hits != 0 || st.Corrupt != 1 || st.Misses != 2 {
		// Misses: the initial cold generation plus the re-booked one.
		t.Fatalf("decode failure not re-booked as corrupt miss: %+v", st)
	}
}
