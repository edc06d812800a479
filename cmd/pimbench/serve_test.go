package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"bulkpim"
)

// jobView decodes the API's job status with the results subobject kept
// as raw bytes, so warm responses can be compared for byte identity
// (job ids differ between submissions; the results must not).
type jobView struct {
	ID      string            `json:"id"`
	Status  string            `json:"status"`
	Points  int               `json:"points"`
	Done    int               `json:"done"`
	Cached  int               `json:"cached"`
	Failed  int               `json:"failed"`
	Results json.RawMessage   `json:"results"`
	Errors  map[string]string `json:"errors"`
}

func postJobView(t *testing.T, url, body string) jobView {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/jobs %s: status %d, err %v", body, resp.StatusCode, err)
	}
	return v
}

func awaitJobView(t *testing.T, url, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: status %d, err %v", id, resp.StatusCode, err)
		}
		if v.Status != "pending" {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still pending after 3m", id)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestServeDaemonE2E is the serving acceptance contract end to end,
// through real `work` subprocess workers: a daemon over a
// pre-warmed cache answers cached requests in the submit response —
// 100% hit rate, byte-identical results across submissions — and a
// cold request with its worker crash-injected mid-run (the -fail-after
// hook) settles done on the auto-joined replacement, with the loss
// visible in the fleet stats and the recomputed points written back to
// the shared cache. The fleet is one worker, so it is handed every job
// and the crash fires however the pool would split the work across a
// larger fleet.
func TestServeDaemonE2E(t *testing.T) {
	t.Setenv("PIMBENCH_EXEC", "1")

	// Pre-warm the cache with fig3 at smoke scale.
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig3", "-scale", "smoke", "-cache-dir", dir},
		nil, &stdout, &stderr); code != 0 {
		t.Fatalf("pre-warm exit %d, stderr:\n%s", code, stderr.String())
	}

	cache, err := bulkpim.OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	srv, err := bulkpim.NewServer(bulkpim.Options{Cache: cache}, bulkpim.ServerOptions{
		Workers:    1,
		FailWorker: 0,
		FailAfter:  1, // initial worker 0 dies when its second job arrives
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	url := "http://" + srv.Addr()

	// Warm phase: both submissions settle in the submit response at a
	// 100% hit rate with byte-identical results.
	warm1 := postJobView(t, url, `{"experiment":"fig3","scale":"smoke"}`)
	warm2 := postJobView(t, url, `{"experiment":"fig3","scale":"smoke"}`)
	for i, w := range []jobView{warm1, warm2} {
		if w.Status != "done" || w.Points == 0 || w.Cached != w.Points {
			t.Fatalf("warm submit %d not fully cached: %+v", i+1, w)
		}
	}
	if !bytes.Equal(warm1.Results, warm2.Results) {
		t.Fatalf("cached results differ between submissions:\n%s\nvs\n%s", warm1.Results, warm2.Results)
	}

	// A cached point is also directly addressable by fingerprint; the
	// deterministic plan manifest knows the fingerprints.
	manifest, err := bulkpim.Manifest("fig3", bulkpim.Options{Scale: bulkpim.ScaleSmoke})
	if err != nil || len(manifest) == 0 {
		t.Fatalf("manifest: %v (%d jobs)", err, len(manifest))
	}
	resp, err := http.Get(url + "/v1/results/" + manifest[0].Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/results/%s: status %d", manifest[0].Fingerprint, resp.StatusCode)
	}

	// Crash phase: the whole suite at smoke is mostly cold; its jobs
	// flow through worker 0 until its injected crash, and the run must
	// settle done on the auto-joined replacement.
	miss := postJobView(t, url, `{"experiment":"all","scale":"smoke"}`)
	if miss.Cached >= miss.Points {
		t.Fatalf("crash-phase request was fully cached (%d/%d) — no miss to crash on", miss.Cached, miss.Points)
	}
	settled := awaitJobView(t, url, miss.ID)
	if settled.Status != "done" || settled.Failed != 0 {
		t.Fatalf("crash-injected run settled %q (%d failed): errors %v",
			settled.Status, settled.Failed, settled.Errors)
	}

	// The injected crash must be visible in the fleet stats.
	var stats struct {
		Fleet struct {
			Lost    int `json:"lost"`
			Retried int `json:"retried"`
			Workers []struct {
				ID int `json:"id"`
			} `json:"workers"`
		} `json:"fleet"`
	}
	resp, err = http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fleet.Lost < 1 {
		t.Fatalf("no worker loss recorded after crash injection: %+v", stats.Fleet)
	}
	if len(stats.Fleet.Workers) < 1 {
		t.Fatalf("lost worker not replaced: fleet %+v", stats.Fleet.Workers)
	}
	for _, w := range stats.Fleet.Workers {
		if w.ID == 0 {
			t.Fatalf("crashed worker 0 still listed: %+v", stats.Fleet.Workers)
		}
	}

	// The recomputed points were written back: an immediate re-submit is
	// a pure cache hit, settled synchronously.
	again := postJobView(t, url, `{"experiment":"all","scale":"smoke"}`)
	if again.Status != "done" || again.Cached != again.Points {
		t.Fatalf("post-crash warm submit not fully cached: %+v", again)
	}
}

// TestServeRequiresCache: a daemon without -cache-dir has nothing to
// serve from; it must be rejected up front.
func TestServeRequiresCache(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"serve", "-addr", "127.0.0.1:0"}, nil, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "serve needs -cache-dir") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}

// TestServeCmdLocalSmoke drives the serve subcommand itself (flag
// parsing, daemon boot, address announcement, graceful shutdown via
// /v1/shutdown) with in-process workers.
func TestServeCmdLocalSmoke(t *testing.T) {
	dir := t.TempDir()
	var preOut, preErr bytes.Buffer
	if code := run([]string{"-exp", "fig3", "-scale", "smoke", "-cache-dir", dir},
		nil, &preOut, &preErr); code != 0 {
		t.Fatalf("pre-warm exit %d, stderr:\n%s", code, preErr.String())
	}

	var stderr, discard lockedBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"serve", "-addr", "127.0.0.1:0", "-cache-dir", dir, "-local"},
			nil, &discard, &stderr)
	}()

	// The daemon prints its bound address on stderr once listening.
	var url string
	deadline := time.Now().Add(30 * time.Second)
	for url == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address:\n%s", stderr.String())
		}
		for _, line := range strings.Split(stderr.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "pimbench: serving on "); ok {
				url = "http://" + strings.Fields(rest)[0]
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	st := postJobView(t, url, `{"experiment":"fig3","scale":"smoke"}`)
	if st.Status != "done" || st.Cached != st.Points || st.Points == 0 {
		t.Fatalf("warm submit against serve subcommand: %+v", st)
	}

	resp, err := http.Post(url+"/v1/shutdown", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serve exited %d after graceful shutdown:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("serve did not exit after /v1/shutdown:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "pimbench: cache:") {
		t.Fatalf("missing cache accounting footer:\n%s", stderr.String())
	}
}

// lockedBuffer makes the daemon goroutine's stderr readable from the
// test goroutine without a race.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
