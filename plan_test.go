package bulkpim

// Tests for the plan/execute separation: planning must execute zero
// simulation work and generate no workload, and manifests must be deterministic and coherent.

import (
	"reflect"
	"testing"
)

// TestPlanExecutesNothing is the plan/execute separation contract:
// planning every experiment — at the paper's full measurement volume —
// and fingerprinting every planned job must invoke no job's Execute.
// (Every spec routes its Execute closures through the countExec
// instrumentation.)
func TestPlanExecutesNothing(t *testing.T) {
	before := execCount.Load()
	planned, err := planFor("all", Options{Scale: ScaleFull})
	if err != nil {
		t.Fatal(err)
	}
	jobs := 0
	for _, p := range planned {
		for _, j := range p.jobs {
			jobs++
			if j.Key == "" || j.FingerprintID() == "" {
				t.Fatalf("%s: job without key/fingerprint: %+v", p.name, j)
			}
		}
	}
	if jobs == 0 {
		t.Fatal("full-scale suite planned zero jobs")
	}
	if got := execCount.Load() - before; got != 0 {
		t.Fatalf("planning executed %d simulation jobs, want 0", got)
	}
}

// TestPlanGeneratesNoWorkloads mirrors TestPlanExecutesNothing one
// layer down: planning (and fingerprinting) the full-scale suite must
// not generate a workload — generation is deferred into the job
// closures.
func TestPlanGeneratesNoWorkloads(t *testing.T) {
	before := genCount.Load()
	planned, err := planFor("all", Options{Scale: ScaleFull})
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
}

// TestManifestDeterministic: two plans of the same options must agree
// exactly — the property that lets every machine of a distributed run
// derive the same manifest independently.
func TestManifestDeterministic(t *testing.T) {
	opts := Options{Scale: ScaleQuick}
	a, err := Manifest("all", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Manifest("all", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("manifests differ or empty: %d vs %d entries", len(a), len(b))
	}
}

// TestManifestKeyFingerprintCoherent: within one suite manifest, a job
// key must always carry the same fingerprint — grid points shared
// across experiments (the Naive baselines) are one unit of work, and
// the result cache depends on (key, fingerprint) identifying it.
func TestManifestKeyFingerprintCoherent(t *testing.T) {
	manifest, err := Manifest("all", Options{Scale: ScaleSmoke})
	if err != nil {
		t.Fatal(err)
	}
	fp := map[string]string{}
	for _, j := range manifest {
		if prev, ok := fp[j.Key]; ok && prev != j.Fingerprint {
			t.Fatalf("key %s planned with two fingerprints: %s vs %s", j.Key, prev, j.Fingerprint)
		}
		fp[j.Key] = j.Fingerprint
	}
}

// TestRegistryResolution: the advertised experiment lists and the
// dispatch path both derive from the registry, so every listed name
// must resolve and every standalone name must be a canonical spec.
func TestRegistryResolution(t *testing.T) {
	for _, name := range StandaloneExperiments() {
		spec, ok := LookupExperiment(name)
		if !ok || spec.Name != name {
			t.Fatalf("standalone %q resolves to %q (ok=%v)", name, spec.Name, ok)
		}
	}
	for _, name := range Experiments() {
		if name == "all" {
			continue
		}
		if _, ok := LookupExperiment(name); !ok {
			t.Fatalf("listed experiment %q does not resolve", name)
		}
	}
	// Bundled artifacts resolve to their owning sweep's spec.
	for bundle, owner := range map[string]string{"fig10": "fig7", "fig9": "fig8"} {
		spec, ok := LookupExperiment(bundle)
		if !ok || spec.Name != owner {
			t.Fatalf("bundle %q resolves to %q (ok=%v), want %q", bundle, spec.Name, ok, owner)
		}
	}
	if _, ok := LookupExperiment("all"); ok {
		t.Fatal("\"all\" must not be a registered spec (it is the suite)")
	}
}
