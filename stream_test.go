package bulkpim

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestArtifactContract pins the per-artifact redesign of the registry:
// every spec declares its renderable artifacts — the spec's own name
// first, bundled names after, globally unique — with key sets that
// exactly cover the spec's planned jobs, and declaring them executes
// no simulation work. Names are scale-independent (only key sets vary
// with options), which is what lets catalogs and stream assemblers
// enumerate at a fixed scale.
func TestArtifactContract(t *testing.T) {
	opts := Options{Scale: ScaleSmoke}
	seen := map[string]string{}
	before := execCount.Load()
	for _, spec := range registry {
		names := spec.ArtifactNames()
		want := append([]string{spec.Name}, spec.Bundles...)
		if strings.Join(names, ",") != strings.Join(want, ",") {
			t.Errorf("%s: artifact names %v, want name+bundles %v", spec.Name, names, want)
		}
		for _, n := range names {
			if owner, dup := seen[n]; dup {
				t.Errorf("artifact %q declared by both %s and %s", n, owner, spec.Name)
			}
			seen[n] = spec.Name
		}

		planned := map[string]bool{}
		if spec.Plan != nil {
			jobs, err := spec.Plan(opts)
			if err != nil {
				t.Fatalf("%s: plan: %v", spec.Name, err)
			}
			for _, j := range jobs {
				planned[j.Key] = true
			}
		}
		union := map[string]bool{}
		for _, a := range spec.Artifacts(opts) {
			for _, k := range a.Keys {
				if !planned[k] {
					t.Errorf("%s/%s declares key %q the plan does not contain", spec.Name, a.Name, k)
				}
				union[k] = true
			}
		}
		if len(union) != len(planned) {
			t.Errorf("%s: artifact keys cover %d of %d planned keys", spec.Name, len(union), len(planned))
		}

		full := spec.Artifacts(Options{Scale: ScaleFull})
		if len(full) != len(names) {
			t.Fatalf("%s: %d artifacts at full scale, %d at smoke", spec.Name, len(full), len(names))
		}
		for i, a := range full {
			if a.Name != names[i] {
				t.Errorf("%s: artifact name varies with scale: %q vs %q", spec.Name, a.Name, names[i])
			}
		}
	}
	if len(seen) != 18 {
		t.Errorf("%d artifacts suite-wide, want 18", len(seen))
	}
	if got := execCount.Load() - before; got != 0 {
		t.Errorf("declaring artifacts executed %d simulation jobs, want 0", got)
	}
}

// TestStreamReportByteIdentical is the streaming acceptance contract:
// a streamed "all" run emits every artifact exactly once (settle-order
// seqs 0..17), and the assembled output is byte-identical to the batch
// report.
func TestStreamReportByteIdentical(t *testing.T) {
	opts := Options{Scale: ScaleSmoke}
	batch, err := RunExperiment("all", opts)
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}

	var mu sync.Mutex
	var emits []StreamEmit
	var buf bytes.Buffer
	timings, err := StreamReport("all", opts, func(e StreamEmit) {
		mu.Lock()
		defer mu.Unlock()
		emits = append(emits, e)
	}, &buf)
	if err != nil {
		t.Fatalf("streamed run: %v", err)
	}
	if buf.String() != batch {
		t.Fatalf("streamed output diverges from batch report:\n--- batch ---\n%s\n--- stream ---\n%s",
			batch, buf.String())
	}
	if len(timings) != len(registry) {
		t.Fatalf("%d timings, want %d", len(timings), len(registry))
	}
	if len(emits) != 18 {
		t.Fatalf("%d emissions, want 18", len(emits))
	}
	seqs := map[int]bool{}
	for _, e := range emits {
		if e.Err != nil {
			t.Errorf("artifact %s/%s emitted an error: %v", e.Experiment, e.Artifact, e.Err)
		}
		if e.Seq < 0 || e.Seq >= len(emits) || seqs[e.Seq] {
			t.Errorf("bad or duplicate seq %d for %s/%s", e.Seq, e.Experiment, e.Artifact)
		}
		seqs[e.Seq] = true
	}
}

// TestStreamReportSingleExperiment: a single-experiment stream matches
// RunExperiment for that name — including a bundled artifact name,
// which streams its owner's full artifact list.
func TestStreamReportSingleExperiment(t *testing.T) {
	opts := Options{Scale: ScaleSmoke}
	for _, name := range []string{"fig3", "fig10"} {
		batch, err := RunExperiment(name, opts)
		if err != nil {
			t.Fatalf("%s: batch run: %v", name, err)
		}
		var buf bytes.Buffer
		if _, err := StreamReport(name, opts, nil, &buf); err != nil {
			t.Fatalf("%s: streamed run: %v", name, err)
		}
		if buf.String() != batch {
			t.Fatalf("%s: streamed output diverges from batch report", name)
		}
	}
}

// TestReportStreamStaticImmediate: zero-key artifacts (the static
// tables) emit at stream construction, before any job settles.
func TestReportStreamStaticImmediate(t *testing.T) {
	var emits []StreamEmit
	s, err := newReportStream("table2", Options{Scale: ScaleSmoke}, func(e StreamEmit) {
		emits = append(emits, e)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(emits) != 1 || emits[0].Artifact != "table2" || emits[0].Err != nil {
		t.Fatalf("static table did not emit at construction: %+v", emits)
	}
	if emits[0].Output == "" {
		t.Fatal("static table emitted empty output")
	}
	if s.Pending() != 0 {
		t.Fatalf("%d artifacts pending after construction, want 0", s.Pending())
	}
}

// TestReportStreamFailedJob: a failed job still counts its artifacts
// down — the artifact emits the job's error instead of stalling the
// stream, and the assembler skips it.
func TestReportStreamFailedJob(t *testing.T) {
	opts := Options{Scale: ScaleSmoke}
	var emits []StreamEmit
	s, err := newReportStream("fig1", opts, func(e StreamEmit) {
		emits = append(emits, e)
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := LookupExperiment("fig1")
	arts := spec.Artifacts(opts)
	if len(arts) != 1 || len(arts[0].Keys) == 0 {
		t.Fatalf("fig1 artifact shape changed: %+v", arts)
	}
	for i, k := range arts[0].Keys {
		if i == 0 {
			s.Settle(k, Result{}, errors.New("injected job failure"))
			continue
		}
		s.Settle(k, Result{}, nil)
	}
	if s.Pending() != 0 {
		t.Fatalf("stream stalled: %d pending after every key settled", s.Pending())
	}
	if len(emits) != 1 || emits[0].Err == nil {
		t.Fatalf("artifact with a failed key must emit a render error, got %+v", emits)
	}
	// Repeat settlements of an already-settled key are ignored.
	s.Settle(arts[0].Keys[0], Result{}, nil)
	if len(emits) != 1 {
		t.Fatalf("repeat settlement re-emitted: %d emissions", len(emits))
	}
}
