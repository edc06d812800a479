package bulkpim

// Tests for the persistent result cache's end-to-end contract: a
// warm-cache suite run must produce byte-identical reports to a
// cold-cache run (results round-trip exactly through the JSON-lines
// store), a warm run must actually be served from the cache, and a
// truncated cache file — the residue of an interrupted run — must
// degrade to a partial cache instead of failing the run.

import (
	"os"
	"testing"
)

// runAllReports executes the full suite at smoke scale against the
// given cache and returns the concatenated per-experiment reports in
// canonical order.
func runAllReports(t *testing.T, cache *ResultCache) string {
	t.Helper()
	out, err := RunExperiment("all", Options{Scale: ScaleSmoke, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWarmCacheByteIdenticalReports is the memoization contract: the
// cold run computes and stores every grid point; the warm run must
// serve >90% of lookups from the cache and emit exactly the same
// bytes. Every job is fingerprinted, the litmus sweeps included (their
// workload identity rides in Extra), so TestWarmRunAllFullyHit pins
// the stricter 100%.
func TestWarmCacheByteIdenticalReports(t *testing.T) {
	cache, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	cold := runAllReports(t, cache)
	afterCold := cache.Stats()
	if afterCold.Stores == 0 {
		t.Fatal("cold run stored nothing")
	}

	warm := runAllReports(t, cache)
	if cold != warm {
		t.Fatalf("warm-cache reports differ from cold-cache reports\ncold %d bytes, warm %d bytes",
			len(cold), len(warm))
	}
	warmStats := cache.Stats()
	hits := warmStats.Hits - afterCold.Hits
	misses := warmStats.Misses - afterCold.Misses
	if hits+misses == 0 {
		t.Fatal("warm run performed no lookups")
	}
	if rate := float64(hits) / float64(hits+misses); rate <= 0.9 {
		t.Fatalf("warm hit rate %.1f%% (%d hits, %d misses), want >90%%",
			100*rate, hits, misses)
	}
	if warmStats.Stores != afterCold.Stores {
		t.Fatalf("warm run re-stored points: %d -> %d", afterCold.Stores, warmStats.Stores)
	}
}

// TestWarmRunAllFullyHit is the executor's dedup-and-fan-out contract
// on the real suite: a cold single-process `-exp all` run executes
// each distinct fingerprint exactly once — aliased keys (fig9-ycsb,
// the ablation baseline, the sizing defaults all planning the suite's
// most expensive simulation) ride their group's one execution — yet
// writes exactly one cache entry under EVERY planned (key,
// fingerprint) identity: a same-key twin (a Naive baseline several
// experiments plan) is stored once, an aliased key gets its own entry.
// A warm re-run is then 100%-hit, stores nothing and is
// byte-identical.
func TestWarmRunAllFullyHit(t *testing.T) {
	cache, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	before := execCount.Load()
	cold := runAllReports(t, cache)
	executed := execCount.Load() - before

	manifest, err := Manifest("all", Options{Scale: ScaleSmoke})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	identities := map[string]bool{}
	for _, j := range manifest {
		distinct[j.Fingerprint] = true
		identities[j.Key+"\x00"+j.Fingerprint] = true
	}
	if executed != int64(len(distinct)) {
		t.Fatalf("cold run executed %d simulations, suite has %d distinct fingerprints (aliases must dedup)",
			executed, len(distinct))
	}
	if len(identities) == len(manifest) || len(identities) == len(distinct) {
		t.Fatalf("suite lost its same-key twins or aliases (%d jobs, %d identities, %d fingerprints): the test no longer covers them",
			len(manifest), len(identities), len(distinct))
	}
	if st := cache.Stats(); st.Stores != len(identities) {
		t.Fatalf("cold run stored %d entries, want one per planned (key, fingerprint): %d", st.Stores, len(identities))
	}
	for _, j := range manifest {
		if _, ok := cache.Lookup(j.Key, j.Fingerprint); !ok {
			t.Fatalf("planned identity missing from cache after cold run: %s (%s)", j.Key, j.Fingerprint)
		}
	}

	beforeWarm := cache.Stats()
	warm := runAllReports(t, cache)
	stats := cache.Stats()
	if misses := stats.Misses - beforeWarm.Misses; misses != 0 {
		t.Fatalf("warm run missed the cache %d times, want 0 (100%% hit)", misses)
	}
	if stores := stats.Stores - beforeWarm.Stores; stores != 0 {
		t.Fatalf("warm run stored %d entries, want 0", stores)
	}
	if cold != warm {
		t.Fatalf("warm reports differ from cold: cold %d bytes, warm %d bytes", len(cold), len(warm))
	}
}

// TestTruncatedCacheIgnoredNotFatal interrupts a cached run by
// truncating the store mid-line: reopening must succeed, valid entries
// must survive, and a fresh suite run must recompute only what was
// lost while still producing identical reports.
func TestTruncatedCacheIgnoredNotFatal(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	reference := runAllReports(t, cache)
	entries := cache.Len()
	cache.Close()

	b, err := os.ReadFile(cache.Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.Path(), b[:len(b)-37], 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenResultCache(dir)
	if err != nil {
		t.Fatalf("truncated cache must not be fatal: %v", err)
	}
	defer reopened.Close()
	if reopened.Stats().Corrupt == 0 {
		t.Fatalf("truncated line not counted: %+v", reopened.Stats())
	}
	if got := reopened.Len(); got == 0 || got >= entries {
		t.Fatalf("loaded %d entries from truncated file, had %d", got, entries)
	}
	if rerun := runAllReports(t, reopened); rerun != reference {
		t.Fatal("reports after cache truncation differ from reference")
	}
}
