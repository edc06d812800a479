package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMain doubles as the worker re-exec hook: `pimbench coord` spawns
// workers by re-executing the current binary, which under `go test` is
// the test binary — so with PIMBENCH_EXEC set, the spawn routes into
// run() instead of the test suite. Coordinator e2e tests set the
// variable via t.Setenv and inherit it into their worker subprocesses.
// PIMBENCH_EXEC=skew stands in for a worker binary that plans
// differently: it plans every smoke-scale job frame at bench scale.
func TestMain(m *testing.M) {
	switch os.Getenv("PIMBENCH_EXEC") {
	case "1":
		os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
	case "skew":
		pr, pw := io.Pipe()
		go func() {
			sc := bufio.NewScanner(os.Stdin)
			for sc.Scan() {
				io.WriteString(pw, strings.ReplaceAll(sc.Text(), `"scale":"smoke"`, `"scale":"bench"`)+"\n")
			}
			pw.Close()
		}()
		os.Exit(run(os.Args[1:], pr, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestRunSmoke drives the binary end-to-end at ScaleBench: a small
// experiment must run through the executor and emit a non-empty
// report on stdout.
func TestRunSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "fig3", "-scale", "bench", "-parallel", "2"}, nil, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "Fig3") {
		t.Fatalf("report missing Fig3 header:\n%s", out)
	}
	for _, model := range []string{"naive", "uncacheable", "swflush"} {
		if !strings.Contains(out, model) {
			t.Fatalf("report missing %s series:\n%s", model, out)
		}
	}
	if !strings.Contains(stderr.String(), "fig3 at scale bench") {
		t.Fatalf("missing wall-time report on stderr:\n%s", stderr.String())
	}
}

// TestRunList checks the -list path.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	for _, e := range []string{"fig1", "fig7", "table2", "all"} {
		if !strings.Contains(stdout.String(), e) {
			t.Fatalf("list missing %s:\n%s", e, stdout.String())
		}
	}
}

// TestRunUnknownExperiment must fail with a non-zero exit code.
func TestRunUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "nope"}, nil, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "unknown experiment") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}

// TestRunCacheWarm runs the same experiment twice against one cache
// dir: the second run must serve every point from the cache and print
// byte-identical reports on stdout.
func TestRunCacheWarm(t *testing.T) {
	dir := t.TempDir()
	runOnce := func() (string, string) {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-exp", "fig3", "-scale", "smoke", "-cache-dir", dir}, nil, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
		}
		return stdout.String(), stderr.String()
	}
	coldOut, coldErr := runOnce()
	warmOut, warmErr := runOnce()
	if coldOut != warmOut {
		t.Fatalf("warm-cache report differs from cold:\ncold:\n%s\nwarm:\n%s", coldOut, warmOut)
	}
	if !strings.Contains(coldErr, "pimbench: cache:") || !strings.Contains(warmErr, "pimbench: cache:") {
		t.Fatalf("missing cache stats line:\ncold:\n%s\nwarm:\n%s", coldErr, warmErr)
	}
	// The leading space matters: "10 misses" must not satisfy the gate.
	if !strings.Contains(warmErr, " 0 misses") {
		t.Fatalf("warm run recomputed points:\n%s", warmErr)
	}
}

// syncBuffer serializes writes: with -v the coordinator forwards every
// worker subprocess's stderr into the same writer from concurrent copy
// goroutines (a real terminal's file descriptor handles that in the
// kernel; an in-process bytes.Buffer must lock).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunResume: -resume without -cache-dir uses the default cache
// location; -no-cache wins over both.
func TestRunResume(t *testing.T) {
	dir := t.TempDir() + "/resume-cache"
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig3", "-scale", "smoke", "-cache-dir", dir, "-resume"},
		nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "resuming from") {
		t.Fatalf("missing resume line:\n%s", stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-exp", "fig3", "-scale", "smoke", "-cache-dir", dir, "-no-cache"},
		nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	if strings.Contains(stderr.String(), "pimbench: cache:") {
		t.Fatalf("-no-cache still used the cache:\n%s", stderr.String())
	}
}

// TestRunUnknownScale must be rejected up front instead of silently
// falling back to quick.
func TestRunUnknownScale(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig3", "-scale", "nope"}, nil, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown scale") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}

// TestCoordCrashInjection is the coordinator's acceptance contract end
// to end, through real worker subprocesses and pipes. A one-worker
// coordinated smoke run whose only worker crashes mid-run (the
// -fail-after hook kills worker 0 when its 3rd job arrives, losing that
// job in flight) must complete: a replacement joins, the lost job is
// retried on it, and the report is byte-identical to a single-process
// cold run. A lone worker is handed every job, so the crash fires
// however the scheduler would split the work across a larger fleet.
// A separate 3-worker pass must print the same report, and the crashed
// run's cache must serve a warm report pass that is 100%-hit and
// byte-identical too, with identical -csvdir files.
func TestCoordCrashInjection(t *testing.T) {
	t.Setenv("PIMBENCH_EXEC", "1")
	mustRun := func(args ...string) (string, string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, nil, &stdout, &stderr); code != 0 {
			t.Fatalf("pimbench %v: exit %d, stderr:\n%s", args, code, stderr.String())
		}
		return stdout.String(), stderr.String()
	}

	csvSingle, csvCoord := t.TempDir(), t.TempDir()
	single, _ := mustRun("-exp", "all", "-scale", "smoke", "-parallel", "4", "-csvdir", csvSingle)

	dir := t.TempDir()
	coordOut, coordErr := mustRun("coord", "-workers", "1", "-exp", "all", "-scale", "smoke",
		"-cache-dir", dir, "-fail-worker", "0", "-fail-after", "2")
	if coordOut != single {
		t.Fatalf("coordinated report differs from single-process run:\nsingle %d bytes, coord %d bytes",
			len(single), len(coordOut))
	}
	if !strings.Contains(coordErr, "1 retried, 1 workers lost") {
		t.Fatalf("crashed worker's job not retried exactly once:\n%s", coordErr)
	}
	if !strings.Contains(coordErr, "0 failed") {
		t.Fatalf("coordinated run failed jobs:\n%s", coordErr)
	}
	if !strings.Contains(coordErr, "ETA") {
		t.Fatalf("missing live progress footer:\n%s", coordErr)
	}

	fleetOut, fleetErr := mustRun("coord", "-workers", "3", "-exp", "all", "-scale", "smoke",
		"-cache-dir", t.TempDir())
	if fleetOut != single {
		t.Fatalf("3-worker coordinated report differs from single-process run:\nsingle %d bytes, coord %d bytes",
			len(single), len(fleetOut))
	}
	if !strings.Contains(fleetErr, "0 failed") {
		t.Fatalf("3-worker coordinated run failed jobs:\n%s", fleetErr)
	}

	warm, warmErr := mustRun("-exp", "all", "-scale", "smoke", "-cache-dir", dir, "-csvdir", csvCoord)
	if warm != single {
		t.Fatalf("coordinated warm report differs from single-process run:\nsingle %d bytes, warm %d bytes",
			len(single), len(warm))
	}
	// The leading space matters: "10 misses" must not satisfy the gate.
	if !strings.Contains(warmErr, " 0 misses") {
		t.Fatalf("warm report pass recomputed points:\n%s", warmErr)
	}
	want, got := readCSVDir(t, csvSingle), readCSVDir(t, csvCoord)
	if len(want) == 0 || !reflect.DeepEqual(want, got) {
		t.Fatalf("coordinated warm CSVs differ from single-process ones:\nsingle %v\nwarm   %v",
			sortedNames(want), sortedNames(got))
	}
}

// TestCoordWorkerCmdTemplate: -worker-cmd launches workers through the
// template instead of bare self-exec ({args} expands to the work
// subcommand's arguments).
func TestCoordWorkerCmdTemplate(t *testing.T) {
	t.Setenv("PIMBENCH_EXEC", "1")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	if strings.ContainsAny(exe, " \t") {
		t.Skipf("test binary path %q contains whitespace; template splits on fields", exe)
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"coord", "-workers", "2", "-exp", "fig3", "-scale", "smoke",
		"-cache-dir", dir, "-worker-cmd", exe + " {args}"}, nil, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "0 failed, 0 retried, 0 workers lost") {
		t.Fatalf("templated fleet run not clean:\n%s", stderr.String())
	}
}

// TestCoordRequiresCache: a coordinated run without -cache-dir would
// compute results and drop them; it must be rejected up front.
func TestCoordRequiresCache(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"coord", "-exp", "fig3", "-scale", "smoke"}, nil, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "coord needs -cache-dir") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}

// runWithin is run with a deadline: a coordinated run that stops
// settling jobs fails the test instead of hanging the suite.
func runWithin(t *testing.T, d time.Duration, args []string, stdout, stderr io.Writer) int {
	t.Helper()
	code := make(chan int, 1)
	go func() { code <- run(args, nil, stdout, stderr) }()
	select {
	case c := <-code:
		return c
	case <-time.After(d):
		t.Fatalf("pimbench %v did not finish within %v", args, d)
		return -1
	}
}

// TestCoordEveryLaunchFails: when no worker can launch, every job
// settles failed promptly — the run neither hangs on the pool's queue
// nor hides the loss — and the footer still ends with its final
// accounting line.
func TestCoordEveryLaunchFails(t *testing.T) {
	falseBin, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false(1) to launch")
	}
	var stdout, stderr bytes.Buffer
	code := runWithin(t, 10*time.Second, []string{"coord", "-workers", "2", "-exp", "fig3", "-scale", "smoke",
		"-cache-dir", t.TempDir(), "-worker-cmd", falseBin + " {args}"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	se := stderr.String()
	if !strings.Contains(se, "0/3 distinct jobs done (3 planned, 3 failed, 0 retried, 2 workers lost)") {
		t.Fatalf("jobs not failed against the lost fleet:\n%s", se)
	}
	if !strings.Contains(se, "\rcoord: 0/3 jobs done (3 failed, 0 retried, 2 workers lost) in ") {
		t.Fatalf("footer missing its final accounting line:\n%q", se)
	}
	if !strings.Contains(se, "worker 0: launch: no hello (EOF)") || strings.Contains(se, "launch: worker") {
		t.Fatalf("launch error must name the worker exactly once:\n%s", se)
	}
}

// TestCoordPlanSkewFailsFast: a fleet whose worker binary plans
// differently from the coordinator's fails the run on the first job it
// reports as plan skew, instead of failing job by job through every
// retry and backoff.
func TestCoordPlanSkewFailsFast(t *testing.T) {
	t.Setenv("PIMBENCH_EXEC", "skew")
	var stdout, stderr bytes.Buffer
	code := runWithin(t, 10*time.Second, []string{"coord", "-workers", "2", "-exp", "fig3", "-scale", "smoke",
		"-cache-dir", t.TempDir()}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	se := stderr.String()
	if !strings.Contains(se, "0/3 distinct jobs done (3 planned, 3 failed, 0 retried") ||
		!strings.Contains(se, "plan skew between coordinator and worker") {
		t.Fatalf("plan skew did not fail the run:\n%s", se)
	}
}

// TestCoordNoJobs: a plan with no simulations launches no worker (the
// template would fail if it did) and succeeds.
func TestCoordNoJobs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"coord", "-exp", "table1", "-scale", "smoke",
		"-cache-dir", t.TempDir(), "-worker-cmd", "/nonexistent/pimbench {args}"}, nil, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "0/0 distinct jobs done") {
		t.Fatalf("stderr:\n%s", stderr.String())
	}
}

// TestCoordExpAllUppercase: the experiment name is case-insensitive
// on the coordinator, so the spec workers plan from must be too.
func TestCoordExpAllUppercase(t *testing.T) {
	t.Setenv("PIMBENCH_EXEC", "1")
	var stdout, stderr bytes.Buffer
	code := runWithin(t, 2*time.Minute, []string{"coord", "-workers", "2", "-exp", "ALL", "-scale", "smoke",
		"-cache-dir", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), " 0 failed, 0 retried, 0 workers lost") {
		t.Fatalf("fleet run not clean:\n%s", stderr.String())
	}
}

// TestWorkProtocolEndpoint drives the hidden worker endpoint directly:
// a bare hello on stdout, then each job planned from the spec in its
// frame — a planned fingerprint runs, an unplanned one is a job-level
// error flagged as plan skew — and EOF on stdin is a clean exit.
func TestWorkProtocolEndpoint(t *testing.T) {
	var plan, planErr bytes.Buffer
	if code := run([]string{"plan", "-exp", "fig3", "-scale", "smoke"}, nil, &plan, &planErr); code != 0 {
		t.Fatalf("plan exit %d, stderr:\n%s", code, planErr.String())
	}
	fields := strings.Fields(strings.SplitN(plan.String(), "\n", 2)[0]) // experiment key fingerprint
	if len(fields) != 3 {
		t.Fatalf("unexpected manifest line in %q", plan.String())
	}
	key, fp := fields[1], fields[2]
	spec := `"spec":{"exp":"fig3","scale":"smoke"}`
	in := `{"type":"job","key":"` + key + `","fp":"` + fp + `",` + spec + "}\n" +
		`{"type":"job","key":"` + key + `","fp":"nope",` + spec + "}\n"

	var stdout, stderr bytes.Buffer
	if code := run([]string{"work"}, strings.NewReader(in), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var hello map[string]any
	if err := dec.Decode(&hello); err != nil || len(hello) != 1 || hello["type"] != "hello" {
		t.Fatalf("worker hello = %v, %v", hello, err)
	}
	var ok, bad struct {
		Type        string `json:"type"`
		Fingerprint string `json:"fp"`
		Result      struct {
			Cycles uint64 `json:"cycles"`
		} `json:"result"`
		Error string `json:"error"`
		Skew  bool   `json:"skew"`
	}
	if err := dec.Decode(&ok); err != nil || ok.Type != "result" || ok.Fingerprint != fp ||
		ok.Error != "" || ok.Result.Cycles == 0 {
		t.Fatalf("planned job result = %+v, %v", ok, err)
	}
	if err := dec.Decode(&bad); err != nil || !strings.Contains(bad.Error, "unknown fingerprint") || !bad.Skew {
		t.Fatalf("unplanned job result = %+v, %v", bad, err)
	}
}

// TestPlanText: the manifest is experiment/key/fingerprint lines.
func TestPlanText(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"plan", "-exp", "all", "-scale", "smoke"}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("plan: exit %d, stderr:\n%s", code, stderr.String())
	}
	manifest := strings.TrimSuffix(stdout.String(), "\n")
	if manifest == "" {
		t.Fatal("empty manifest")
	}
	for _, l := range strings.Split(manifest, "\n") {
		if parts := strings.Split(l, "\t"); len(parts) != 3 ||
			parts[0] == "" || parts[1] == "" || parts[2] == "" {
			t.Fatalf("bad manifest line %q", l)
		}
	}
}

// TestPlanJSON: -json emits the schema-versioned manifest envelope —
// version stamps first (so an old-build manifest fails a later diff
// loudly), then the machine-readable job list.
func TestPlanJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"plan", "-exp", "fig3", "-scale", "smoke", "-json"},
		nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var env struct {
		Version    string `json:"manifest_version"`
		Schema     string `json:"schema_version"`
		Build      string `json:"build"`
		Experiment string `json:"experiment"`
		Scale      string `json:"scale"`
		Jobs       []struct {
			Experiment  string `json:"experiment"`
			Key         string `json:"key"`
			Fingerprint string `json:"fingerprint"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &env); err != nil {
		t.Fatalf("manifest is not JSON: %v\n%s", err, stdout.String())
	}
	if env.Version != "bulkpim-manifest-v1" {
		t.Fatalf("manifest_version %q", env.Version)
	}
	if env.Schema == "" || env.Build == "" {
		t.Fatalf("missing version stamps: schema %q build %q", env.Schema, env.Build)
	}
	if env.Experiment != "fig3" || env.Scale != "smoke" {
		t.Fatalf("envelope identity %s/%s", env.Experiment, env.Scale)
	}
	if len(env.Jobs) == 0 {
		t.Fatal("empty manifest")
	}
	for _, j := range env.Jobs {
		if j.Experiment != "fig3" || !strings.HasPrefix(j.Key, "ycsb/") || len(j.Fingerprint) != 32 {
			t.Fatalf("bad manifest entry %+v", j)
		}
	}
	// The envelope round-trips through the diff loader: a self-diff is
	// empty.
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/m.json", stdout.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var dout, derr bytes.Buffer
	if code := run([]string{"plan", "-exp", "fig3", "-scale", "smoke", "-json", "-diff", dir + "/m.json"},
		nil, &dout, &derr); code != 0 {
		t.Fatalf("diff exit %d, stderr:\n%s", code, derr.String())
	}
	var denv struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if err := json.Unmarshal(dout.Bytes(), &denv); err != nil {
		t.Fatalf("diff manifest is not JSON: %v\n%s", err, dout.String())
	}
	if len(denv.Jobs) != 0 {
		t.Fatalf("self-diff planned %d jobs, want 0\n%s", len(denv.Jobs), derr.String())
	}
	if !strings.Contains(derr.String(), "0 invalidated") {
		t.Fatalf("diff summary missing:\n%s", derr.String())
	}
}

// TestPlanDiff drives the incremental re-plan end to end: a seed
// change invalidates every fingerprint (and reports the prior ones as
// removed), while a legacy bare-array manifest is rejected loudly
// instead of diffing as "nothing to do".
func TestPlanDiff(t *testing.T) {
	dir := t.TempDir()
	var m1 bytes.Buffer
	var stderr bytes.Buffer
	if code := run([]string{"plan", "-exp", "fig13", "-scale", "smoke", "-json"},
		nil, &m1, &stderr); code != 0 {
		t.Fatalf("plan exit %d, stderr:\n%s", code, stderr.String())
	}
	old := dir + "/old.json"
	if err := os.WriteFile(old, m1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Different seed: every fingerprint changes, so the diff re-plans
	// the full experiment and reports every prior job as removed.
	var dout, derr bytes.Buffer
	if code := run([]string{"plan", "-exp", "fig13", "-scale", "smoke", "-seed", "7", "-diff", old},
		nil, &dout, &derr); code != 0 {
		t.Fatalf("diff exit %d, stderr:\n%s", code, derr.String())
	}
	var full bytes.Buffer
	if code := run([]string{"plan", "-exp", "fig13", "-scale", "smoke", "-seed", "7"},
		nil, &full, io.Discard); code != 0 {
		t.Fatal("full plan failed")
	}
	if dout.String() != full.String() {
		t.Fatalf("seed-change diff should re-plan everything:\n%s\nvs\n%s", dout.String(), full.String())
	}
	se := derr.String()
	if !strings.Contains(se, "seed=0") || !strings.Contains(se, "seed=7") {
		t.Fatalf("missing identity-mismatch warning:\n%s", se)
	}
	if got := strings.Count(se, "pimbench: removed: fig13\t"); got != strings.Count(full.String(), "\n") {
		t.Fatalf("%d removed lines, want %d:\n%s", got, strings.Count(full.String(), "\n"), se)
	}

	// A legacy bare-array manifest (pre-envelope build) fails loudly.
	if err := os.WriteFile(dir+"/legacy.json", []byte("[]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var lout, lerr bytes.Buffer
	if code := run([]string{"plan", "-exp", "fig13", "-scale", "smoke", "-diff", dir + "/legacy.json"},
		nil, &lout, &lerr); code != 1 {
		t.Fatalf("legacy diff exit %d, want 1\n%s", code, lerr.String())
	}
	if !strings.Contains(lerr.String(), "older pimbench build") {
		t.Fatalf("legacy manifest error not loud:\n%s", lerr.String())
	}
}

// TestUnknownSubcommand must fail with a usage error.
func TestUnknownSubcommand(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"frobnicate"}, nil, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown subcommand") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}

// TestRunAllTimingFooter: the "all" path must print the unconditional
// per-experiment timing footer on stderr.
func TestRunAllTimingFooter(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "all", "-scale", "smoke"}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	se := stderr.String()
	if !strings.Contains(se, "pimbench: timing (overlapping):") || !strings.Contains(se, "total=") {
		t.Fatalf("missing timing footer:\n%s", se)
	}
	for _, name := range []string{"fig1=", "fig8=", "multimod="} {
		if !strings.Contains(se, name) {
			t.Fatalf("timing footer missing %s:\n%s", name, se)
		}
	}
}

// TestRunProfiles drives `run -cpuprofile/-memprofile` end-to-end: both
// files must come back as valid (gzip-framed protobuf) pprof profiles.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := dir+"/cpu.prof", dir+"/heap.prof"
	var stdout, stderr bytes.Buffer
	code := run([]string{"run", "-exp", "fig3", "-scale", "bench",
		"-cpuprofile", cpu, "-memprofile", heap}, nil, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	for _, path := range []string{cpu, heap} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Fatalf("%s: not a gzip-framed pprof profile (%d bytes, magic %x)",
				path, len(data), data[:min(len(data), 2)])
		}
	}
}

// TestRunProfileBadPath: an uncreatable profile path must fail loudly,
// not silently drop the profile.
func TestRunProfileBadPath(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"run", "-exp", "fig3", "-scale", "bench",
		"-cpuprofile", t.TempDir() + "/no/such/dir/cpu.prof"}, nil, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "profile") {
		t.Fatalf("stderr missing profile error:\n%s", stderr.String())
	}
}

// TestVersion checks the build-identity report: module path and Go
// toolchain must appear so BENCH_* artifacts are attributable.
func TestVersion(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"version"}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "bulkpim") || !strings.Contains(out, "go1.") {
		t.Fatalf("version output missing module path or Go version:\n%s", out)
	}
	stdout.Reset()
	if code := run([]string{"version", "-bogus"}, nil, &stdout, &stderr); code != 2 {
		t.Fatalf("version -bogus: exit code %d, want 2", code)
	}
}

// TestRunStream is the streaming acceptance gate from the binary's
// side: `run -v` must write stdout byte-identical to a plain run while
// logging each artifact's settle order on stderr — one line per
// declared artifact, suite-wide.
func TestRunStream(t *testing.T) {
	var batch, batchErr bytes.Buffer
	if code := run([]string{"-exp", "all", "-scale", "smoke"}, nil, &batch, &batchErr); code != 0 {
		t.Fatalf("batch exit %d, stderr:\n%s", code, batchErr.String())
	}
	if strings.Contains(batchErr.String(), "pimbench: artifact ") {
		t.Fatalf("settle order logged without -v:\n%s", batchErr.String())
	}
	var stream, streamErr bytes.Buffer
	if code := run([]string{"-exp", "all", "-scale", "smoke", "-v"}, nil, &stream, &streamErr); code != 0 {
		t.Fatalf("verbose exit %d, stderr:\n%s", code, streamErr.String())
	}
	if batch.String() != stream.String() {
		t.Fatalf("verbose stdout diverges from a plain run:\n--- plain ---\n%s\n--- verbose ---\n%s",
			batch.String(), stream.String())
	}
	se := streamErr.String()
	if got := strings.Count(se, "pimbench: artifact "); got != 18 {
		t.Fatalf("%d artifact settle lines, want 18 (one per declared artifact):\n%s", got, se)
	}
	for _, a := range []string{"fig7/fig10", "fig8/fig9", "table2/table2"} {
		if !strings.Contains(se, "pimbench: artifact "+a+" ready") {
			t.Fatalf("missing settle line for %s:\n%s", a, se)
		}
	}
	if !strings.Contains(se, "timing (overlapping):") {
		t.Fatalf("verbose run lost the timing footer:\n%s", se)
	}
}

// TestCoordStream: a plain coordinated fleet run renders the figures
// coordinator-side as worker results settle, and its stdout is
// byte-identical to a plain single-process run.
func TestCoordStream(t *testing.T) {
	t.Setenv("PIMBENCH_EXEC", "1")
	var plain, plainErr bytes.Buffer
	if code := run([]string{"-exp", "fig8", "-scale", "smoke"}, nil, &plain, &plainErr); code != 0 {
		t.Fatalf("plain exit %d, stderr:\n%s", code, plainErr.String())
	}
	var stdout bytes.Buffer
	var stderr syncBuffer
	code := run([]string{"coord", "-workers", "2", "-exp", "fig8", "-scale", "smoke",
		"-cache-dir", t.TempDir()}, nil, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("coord exit %d, stderr:\n%s", code, stderr.String())
	}
	if stdout.Len() == 0 || stdout.String() != plain.String() {
		t.Fatalf("coord stdout diverges from a plain run:\n--- plain ---\n%s\n--- coord ---\n%s",
			plain.String(), stdout.String())
	}
}
