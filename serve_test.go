package bulkpim

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"bulkpim/internal/coord"
	"bulkpim/internal/serve"
)

// jobSpec builds a job spec the way the daemon does from an
// API request.
func jobSpec(exp, scale string, seed uint64, overrides string) coord.JobSpec {
	return coord.JobSpec{Exp: exp, Scale: scale, Seed: seed, Overrides: overrides}
}

func TestParseConfigOverride(t *testing.T) {
	mut, err := ParseConfigOverride([]byte(`{"Cores":3,"MCQueue":16}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	mut(&cfg)
	if cfg.Cores != 3 || cfg.MCQueue != 16 {
		t.Fatalf("override not applied: Cores=%d MCQueue=%d", cfg.Cores, cfg.MCQueue)
	}
	// Untouched fields keep their prior values.
	if cfg.Banks != DefaultConfig().Banks {
		t.Fatalf("override clobbered Banks: %d", cfg.Banks)
	}

	// An unbounded PIM buffer is Fig. 11a's configuration.
	if _, err := ParseConfigOverride([]byte(`{"PIMBufferSize":0}`)); err != nil {
		t.Fatalf("unbounded PIM buffer rejected: %v", err)
	}

	for _, empty := range []string{"", "   ", "null"} {
		mut, err := ParseConfigOverride([]byte(empty))
		if err != nil || mut != nil {
			t.Fatalf("ParseConfigOverride(%q) = %p, %v; want nil, nil", empty, mut, err)
		}
	}

	for _, bad := range []string{
		`{"NoSuchKnob":1}`,    // unknown field
		`{"Cores":"three"}`,   // type mismatch
		`[1,2,3]`,             // not an object
		`{"Cores":2} {"x":1}`, // trailing data
		`{"Cores":`,           // truncated
		`true`,
		`{"Cores":65}`,  // more cores than the sharer mask tracks
		`{"Cores":0}`,   // no cores
		`{"LLCSets":3}`, // not a power of two
		`{"L1Ways":0}`,  // no ways
		`{"Banks":0}`,   // divides by zero
		`{"Banks":-1}`,  // silently misruns
		`{"ScopeSize":0}`,
		`{"L1ScopeBufWays":0}`,
		`{"MCQueue":0}`, // deadlocks
		`{"MCQueue":-1}`,
		`{"MLP":0}`,
		`{"PIMCredits":0}`,
		`{"PIMModules":0}`, // silently clamped
		`{"PIMModules":-1}`,
		`{"ClockGHz":0}`, // infinite Seconds
	} {
		if _, err := ParseConfigOverride([]byte(bad)); err == nil {
			t.Errorf("ParseConfigOverride(%q) accepted", bad)
		}
	}
}

// Override-carrying requests must shift every fingerprint: the plan
// digests the final mutated Config (overrides win over the grid's own
// Mutate), so an overridden grid can never collide with — or poison —
// the base grid's cache entries.
func TestConfigOverrideShiftsFingerprints(t *testing.T) {
	pc := newPlanCache(Options{})
	base, err := pc.resolve(jobSpec("fig3", "smoke", 0, ""))
	if err != nil {
		t.Fatal(err)
	}
	over, err := pc.resolve(jobSpec("fig3", "smoke", 0, `{"MCQueue":64}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.points) == 0 || len(base.points) != len(over.points) {
		t.Fatalf("point counts: base %d, override %d", len(base.points), len(over.points))
	}
	baseFPs := map[string]bool{}
	for _, p := range base.points {
		baseFPs[p.Fingerprint] = true
	}
	for _, p := range over.points {
		if baseFPs[p.Fingerprint] {
			t.Fatalf("override did not shift fingerprint of %s", p.Key)
		}
	}
	// Same spec resolves to the same memoized plan.
	again, err := pc.resolve(jobSpec("fig3", "smoke", 0, `{"MCQueue":64}`))
	if err != nil || again != over {
		t.Fatalf("memo miss on identical spec: %p vs %p, %v", again, over, err)
	}

	// Bad specs are rejected at resolve time, before any worker sees them.
	for _, bad := range []coord.JobSpec{
		jobSpec("fig3", "galactic", 0, ""),
		jobSpec("fig99", "smoke", 0, ""),
		jobSpec("fig3", "smoke", 0, `{"NoSuchKnob":1}`),
	} {
		if _, err := pc.resolve(bad); err == nil {
			t.Errorf("resolve(%+v) accepted", bad)
		}
	}
}

func FuzzConfigOverride(f *testing.F) {
	f.Add([]byte(`{"Cores":4,"MCQueue":16}`))
	f.Add([]byte(`{"PIMZeroLatency":true,"Seed":18446744073709551615}`))
	f.Add([]byte(`{"ClockGHz":1e999}`))
	f.Add([]byte(`{"Cores":2} garbage`))
	f.Add([]byte(`{"Core`))
	f.Add([]byte(`null`))
	f.Add([]byte("\xff\xfe{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		mut, err := ParseConfigOverride(data)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("empty error for rejected override")
			}
			return
		}
		if mut == nil {
			return // empty/null override
		}
		cfg := DefaultConfig()
		mut(&cfg) // an accepted override must apply without panicking
	})
}

// startLocalServer boots a daemon on an ephemeral port with in-process
// workers and a fresh cache, returning its base URL.
func startLocalServer(t *testing.T, opts Options, sopts ServerOptions) (*Server, string) {
	t.Helper()
	sopts.Local = true
	if sopts.Addr == "" {
		sopts.Addr = "127.0.0.1:0"
	}
	srv, err := NewServer(opts, sopts)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, "http://" + srv.Addr()
}

// submitJob POSTs one request and returns the response job status.
func submitJob(t *testing.T, url, body string) serve.JobStatus {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/jobs %s: status %d, decode err %v", body, resp.StatusCode, err)
	}
	return st
}

// awaitJob polls a job until it settles.
func awaitJob(t *testing.T, url, id string) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st serve.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: status %d, decode err %v", id, resp.StatusCode, err)
		}
		if st.Status != "pending" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still pending after 2m: %+v", id, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeHTTPDedupExactlyOnce is the cross-request in-flight dedup
// property on the HTTP path: N concurrent clients submit overlapping
// grids against a cold cache, and each distinct fingerprint in the
// union of their plans executes exactly once — the serving analogue of
// TestCoordinateDeliversEachFingerprintOnce. Executions are counted by
// the registry's global Execute counter, so equality with the distinct
// union is exactly-once (every miss must execute at least once to
// settle done).
func TestServeHTTPDedupExactlyOnce(t *testing.T) {
	cache, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	opts := Options{Cache: cache}
	_, url := startLocalServer(t, opts, ServerOptions{Workers: 4})

	// The expected distinct-fingerprint union of everything the clients
	// will request, planned independently of the daemon.
	shapes := []string{"fig3", "fig1"}
	want := map[string]bool{}
	for _, exp := range shapes {
		o := opts
		o.Scale = ScaleSmoke
		planned, err := planFor(exp, o)
		if err != nil {
			t.Fatal(err)
		}
		groups, _ := dedupPlan(planned)
		for _, g := range groups {
			want[g.fp] = true
		}
	}

	base := execCount.Load()
	const clients = 8
	ids := make([]string, clients)
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		exp := shapes[i%len(shapes)]
		wg.Add(1)
		go func(i int, exp string) {
			defer wg.Done()
			body := fmt.Sprintf(`{"experiment":%q,"scale":"smoke"}`, exp)
			resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				errc <- err
				return
			}
			defer resp.Body.Close()
			var st serve.JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("client %d: status %d, err %v", i, resp.StatusCode, err)
				return
			}
			ids[i] = st.ID
		}(i, exp)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for i, id := range ids {
		st := awaitJob(t, url, id)
		if st.Status != "done" {
			t.Fatalf("client %d job %s settled %q: errors %v", i, id, st.Status, st.Errors)
		}
		if len(st.Results) != st.Points {
			t.Errorf("client %d: %d results for %d points", i, len(st.Results), st.Points)
		}
	}

	if got := execCount.Load() - base; got != int64(len(want)) {
		t.Fatalf("executed %d simulations for %d distinct fingerprints — dedup across requests failed", got, len(want))
	}

	// Warm repeat: pure cache hits, settled in the submit response,
	// zero further executions.
	st := submitJob(t, url, `{"experiment":"fig3","scale":"smoke"}`)
	if st.Status != "done" || st.Cached != st.Points || st.Points == 0 {
		t.Fatalf("warm submit not served from cache: %+v", st)
	}
	if got := execCount.Load() - base; got != int64(len(want)) {
		t.Fatalf("warm submit executed work: %d executions for %d fingerprints", got, len(want))
	}
}

// TestServeExperimentCatalog: GET /v1/experiments advertises every
// registry spec with its bundled aliases and per-spec artifact list —
// the discovery surface clients use before submitting jobs or polling
// artifacts.
func TestServeExperimentCatalog(t *testing.T) {
	cache, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	_, url := startLocalServer(t, Options{Cache: cache}, ServerOptions{Workers: 1})

	resp, err := http.Get(url + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		Experiments []serve.ExperimentInfo `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/experiments: status %d, err %v", resp.StatusCode, err)
	}
	if len(payload.Experiments) != len(StandaloneExperiments()) {
		t.Fatalf("%d catalog entries, want %d", len(payload.Experiments), len(StandaloneExperiments()))
	}
	byName := map[string]serve.ExperimentInfo{}
	total := 0
	for _, e := range payload.Experiments {
		byName[e.Name] = e
		total += len(e.Artifacts)
	}
	if total != 18 {
		t.Fatalf("catalog lists %d artifacts suite-wide, want 18", total)
	}
	fig7 := byName["fig7"]
	if strings.Join(fig7.Artifacts, ",") != "fig7,fig10" || strings.Join(fig7.Bundles, ",") != "fig10" {
		t.Fatalf("fig7 catalog entry: %+v", fig7)
	}
	if tb := byName["table2"]; len(tb.Artifacts) != 1 || tb.Artifacts[0] != "table2" {
		t.Fatalf("table2 catalog entry: %+v", tb)
	}
}

// TestServeArtifactEndpoint drives GET /v1/artifacts/{name} cold to
// warm: pending with missing keys against an empty cache, then — after
// the owning experiment's job settles — ready with output identical to
// an in-process run's report. Job documents expose the same
// per-artifact countdown.
func TestServeArtifactEndpoint(t *testing.T) {
	cache, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	_, url := startLocalServer(t, Options{Cache: cache}, ServerOptions{Workers: 2})

	getArtifact := func(name, query string) (serve.ArtifactStatus, int) {
		t.Helper()
		resp, err := http.Get(url + "/v1/artifacts/" + name + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st serve.ArtifactStatus
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatalf("GET /v1/artifacts/%s: %v", name, err)
			}
		}
		return st, resp.StatusCode
	}

	// Unknown artifact: 404. Missing scale: 400.
	if _, code := getArtifact("fig99", "?scale=smoke"); code != http.StatusNotFound {
		t.Fatalf("unknown artifact: status %d, want 404", code)
	}
	if _, code := getArtifact("fig1", ""); code != http.StatusBadRequest {
		t.Fatalf("missing scale: status %d, want 400", code)
	}

	// Cold: every key missing, no output.
	st, code := getArtifact("fig1", "?scale=smoke")
	if code != http.StatusOK {
		t.Fatalf("cold artifact status %d", code)
	}
	if st.Ready || st.Settled != 0 || st.Keys == 0 || len(st.Missing) == 0 || st.Output != "" {
		t.Fatalf("cold artifact not pending: %+v", st)
	}
	if st.Experiment != "fig1" || st.Scale != "smoke" {
		t.Fatalf("artifact identity: %+v", st)
	}

	// Run the experiment through the job API; the job document carries
	// the artifact countdown and settles it to ready.
	job := submitJob(t, url, `{"experiment":"fig1","scale":"smoke"}`)
	done := awaitJob(t, url, job.ID)
	if done.Status != "done" {
		t.Fatalf("job settled %q: %v", done.Status, done.Errors)
	}
	if len(done.Artifacts) != 1 || done.Artifacts[0].Name != "fig1" ||
		!done.Artifacts[0].Ready || done.Artifacts[0].Settled != done.Artifacts[0].Keys {
		t.Fatalf("job artifact countdown: %+v", done.Artifacts)
	}

	// Warm: ready, with output byte-identical to an in-process run.
	st, code = getArtifact("fig1", "?scale=smoke")
	if code != http.StatusOK || !st.Ready || st.Settled != st.Keys || len(st.Missing) != 0 {
		t.Fatalf("warm artifact not ready: status %d, %+v", code, st)
	}
	want, err := RunExperiment("fig1", Options{Scale: ScaleSmoke, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if st.Output != want {
		t.Fatalf("artifact output diverges from the in-process report:\n--- serve ---\n%s\n--- run ---\n%s",
			st.Output, want)
	}

	// A bundled artifact resolves through its owner: fig10's status
	// reports fig7 as the owning experiment.
	st, code = getArtifact("fig10", "?scale=smoke")
	if code != http.StatusOK || st.Experiment != "fig7" || st.Artifact != "fig10" {
		t.Fatalf("bundled artifact resolution: status %d, %+v", code, st)
	}

	// Static tables are renderable with zero keys: always ready.
	st, code = getArtifact("table2", "?scale=smoke")
	if code != http.StatusOK || !st.Ready || st.Keys != 0 || st.Output == "" {
		t.Fatalf("static table artifact: status %d, %+v", code, st)
	}
}
