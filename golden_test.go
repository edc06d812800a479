package bulkpim

// Golden-file report tests: smoke-scale expected reports are committed
// under testdata/ and compared byte-for-byte. Cross-run byte-identity
// (cold vs warm, coordinated vs single-process) is checked elsewhere; the
// goldens additionally pin the bytes across commits, so an accidental
// simulator or formatting change cannot slip through as "still
// self-consistent". After an intentional change, regenerate with:
//
//	go test -run TestGolden -update
//
// and review the diff like any other code change.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/ with current output")

// checkGolden compares got against testdata/<name>, rewriting the file
// instead when -update is set. Mismatches report the first differing
// line, not a byte dump.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with `go test -run TestGolden -update`): %v", path, err)
	}
	if bytes.Equal(want, []byte(got)) {
		return
	}
	wantLines := bytes.Split(want, []byte("\n"))
	gotLines := bytes.Split([]byte(got), []byte("\n"))
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g []byte
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if !bytes.Equal(w, g) {
			t.Fatalf("%s: first difference at line %d:\nwant: %s\ngot:  %s\n(%d vs %d bytes; regenerate with -update if intentional)",
				path, i+1, w, g, len(want), len(got))
		}
	}
	t.Fatalf("%s differs (%d vs %d bytes)", path, len(want), len(got))
}

// goldenReport renders one experiment at smoke scale.
func goldenReport(t *testing.T, exp string) string {
	t.Helper()
	out, err := RunExperiment(exp, Options{Scale: ScaleSmoke})
	if err != nil {
		t.Fatalf("%s: %v", exp, err)
	}
	if out == "" {
		t.Fatalf("%s: empty report", exp)
	}
	return out
}

// TestGoldenReportAllSmoke pins the entire smoke-scale suite output —
// the same bytes the CI coord and incremental jobs compare runs against.
func TestGoldenReportAllSmoke(t *testing.T) {
	checkGolden(t, "all_smoke.golden", goldenReport(t, "all"))
}

// TestGoldenReportFig1 pins the litmus verdict table on its own: the
// paper's headline consistency claims, cheap to regenerate and read.
func TestGoldenReportFig1(t *testing.T) {
	checkGolden(t, "fig1_smoke.golden", goldenReport(t, "fig1"))
}

// TestGoldenReportArea pins the hardware-overhead table (§VI-A), which
// is scale-independent.
func TestGoldenReportArea(t *testing.T) {
	checkGolden(t, "area_smoke.golden", goldenReport(t, "area"))
}

// TestGoldenCoversEveryStandaloneExperiment: the all_smoke golden must
// contain every standalone experiment's section header, so a spec
// silently dropped from the registry cannot keep the golden green.
func TestGoldenCoversEveryStandaloneExperiment(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "all_smoke.golden"))
	if err != nil {
		t.Skipf("golden not generated yet: %v", err)
	}
	for _, name := range StandaloneExperiments() {
		if !bytes.Contains(b, []byte(fmt.Sprintf("==== %s ====", name))) {
			t.Fatalf("all_smoke.golden missing section for %s", name)
		}
	}
}

// goldenExemptions lists registry experiments deliberately shipped
// without a per-experiment golden, each with the reason. Empty today:
// every spec renders standalone. An entry here is reviewed like code —
// TestGoldenPerExperimentCoverage refuses both silent gaps and stale
// exemptions.
var goldenExemptions = map[string]string{}

// TestGoldenReportEachExperiment pins every registry experiment's
// standalone smoke report under testdata/<name>_smoke.golden. The
// all_smoke golden pins the suite as one document; these pin each
// report in isolation, so a regression localized to one experiment
// names itself in the failure.
func TestGoldenReportEachExperiment(t *testing.T) {
	for _, name := range StandaloneExperiments() {
		if reason, ok := goldenExemptions[name]; ok {
			t.Logf("%s exempt from per-experiment golden: %s", name, reason)
			continue
		}
		t.Run(name, func(t *testing.T) {
			checkGolden(t, name+"_smoke.golden", goldenReport(t, name))
		})
	}
}

// TestGoldenPerExperimentCoverage: every registry experiment has
// either a committed per-experiment golden or an explicit exemption —
// and never both, so an exemption cannot linger after the golden
// lands. A new spec added to the registry fails here until its golden
// is generated (go test -run TestGolden -update) or its absence is
// justified in goldenExemptions.
func TestGoldenPerExperimentCoverage(t *testing.T) {
	for _, name := range StandaloneExperiments() {
		path := filepath.Join("testdata", name+"_smoke.golden")
		_, err := os.Stat(path)
		_, exempt := goldenExemptions[name]
		switch {
		case err == nil && exempt:
			t.Errorf("%s has both a golden and an exemption — drop the goldenExemptions entry", name)
		case os.IsNotExist(err) && !exempt:
			t.Errorf("%s has neither %s nor a goldenExemptions entry (generate with `go test -run TestGolden -update`)", name, path)
		case err != nil && !os.IsNotExist(err):
			t.Fatal(err)
		}
	}
}
