package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"bulkpim"
)

// jobLine matches one executed-job progress line of a -v run.
var jobLine = regexp.MustCompile(`(?m)^\[\d+/\d+\] `)

// runCounted runs pimbench with -v and returns its stderr, the number
// of jobs it executed and the workloads it generated.
func runCounted(t *testing.T, args ...string) (stderr string, jobs int, gens int64) {
	t.Helper()
	var out, errb bytes.Buffer
	before := bulkpim.WorkloadGenerations()
	if code := run(append(args, "-v"), nil, &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d, stderr:\n%s", args, code, errb.String())
	}
	return errb.String(), len(jobLine.FindAllString(errb.String(), -1)),
		bulkpim.WorkloadGenerations() - before
}

// readCSVDir returns every file in dir by name.
func readCSVDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

func sortedNames(files map[string]string) []string {
	var names []string
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestRunCSVDirRunsEachJobOnce: -csvdir writes from the report stream,
// so a run with it executes and generates exactly what the same run
// without it does, and one artifact with several report items writes
// one file per item.
func TestRunCSVDirRunsEachJobOnce(t *testing.T) {
	dir := t.TempDir()
	_, plainJobs, plainGens := runCounted(t, "run", "-exp", "fig3", "-scale", "smoke")
	_, csvJobs, csvGens := runCounted(t, "run", "-exp", "fig3", "-scale", "smoke", "-csvdir", filepath.Join(dir, "fig3"))
	if plainJobs == 0 || csvJobs != plainJobs || csvGens != plainGens {
		t.Fatalf("-csvdir run executed %d jobs and generated %d workloads, the plain run %d and %d",
			csvJobs, csvGens, plainJobs, plainGens)
	}
	if got := sortedNames(readCSVDir(t, filepath.Join(dir, "fig3"))); !reflect.DeepEqual(got, []string{"fig3.csv"}) {
		t.Fatalf("fig3 wrote %v", got)
	}

	runCounted(t, "run", "-exp", "fig7", "-scale", "smoke", "-csvdir", filepath.Join(dir, "fig7"))
	want := []string{"fig10a.csv", "fig10b.csv", "fig10c.csv", "fig10d.csv", "fig7a.csv", "fig7b.csv"}
	if got := sortedNames(readCSVDir(t, filepath.Join(dir, "fig7"))); !reflect.DeepEqual(got, want) {
		t.Fatalf("fig7 wrote %v, want %v", got, want)
	}
}

// TestRunCSVDirDeterministic: the whole suite's CSVs are byte-identical
// at every parallelism level, and a warm run served from the result
// cache writes the same CSVs as the cold run that filled it.
func TestRunCSVDirDeterministic(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	runCSV := func(name string, extra ...string) (map[string]string, string) {
		csvDir := filepath.Join(dir, name)
		stderr, _, _ := runCounted(t, append([]string{"run", "-exp", "all", "-scale", "smoke", "-csvdir", csvDir}, extra...)...)
		return readCSVDir(t, csvDir), stderr
	}
	seq, _ := runCSV("p1", "-parallel", "1")
	cold, _ := runCSV("p4", "-parallel", "4", "-cache-dir", cache)
	warm, warmErr := runCSV("warm", "-parallel", "4", "-cache-dir", cache)

	for _, n := range []string{"fig1.csv", "fig3.csv", "fig7a.csv", "fig10d.csv", "fig9b.csv", "table2.csv", "multimod.csv"} {
		if seq[n] == "" {
			t.Fatalf("-exp all wrote no %s (have %v)", n, sortedNames(seq))
		}
	}
	if !reflect.DeepEqual(seq, cold) {
		t.Fatalf("CSVs differ between -parallel 1 and -parallel 4:\n%v\n%v", sortedNames(seq), sortedNames(cold))
	}
	if !strings.Contains(warmErr, " 0 misses") {
		t.Fatalf("warm run was not fully cache-served:\n%s", warmErr)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm CSVs differ from cold:\n%v\n%v", sortedNames(cold), sortedNames(warm))
	}
}
