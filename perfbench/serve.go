package main

// The serve-warm workload: an in-process daemon (bulkpim.NewServer, one
// local worker) over a result cache warmed at bench scale during set-up,
// driven by a closed loop of two clients. Each client walks the request
// catalog — for every experiment a job submission (fully cached, so it
// settles in the submit response), a read of each of its artifacts and
// a direct result read by fingerprint — and sends its next request only
// when the previous reply has been read. No simulation runs while
// measuring.
//
// A child process first simulates the suite into a fresh cache, so that
// the measuring process's resident set is the daemon's. Set-up then
// opens the warm cache, renders every artifact in-process from it and
// starts the daemon. The load runs in slices between runs of the reference
// loop, and every latency is scaled by its slice's reference speed.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"bulkpim"
)

const serveClients = 2

// serveEnv is one set-up daemon with what its replies are checked
// against.
type serveEnv struct {
	opts     bulkpim.Options // bench scale and seed, over the warm cache
	cache    *bulkpim.ResultCache
	srv      *bulkpim.Server
	served   chan error
	manifest []bulkpim.PlannedJob
	// artifacts maps each artifact to its in-process render; results
	// maps each planned fingerprint to its cached result.
	artifacts map[string]string
	results   map[string]bulkpim.Result
}

// warmCache is the child-process side of set-up: it simulates the whole
// suite at bench scale into the result cache at dir.
func warmCache(dir string, seed uint64) error {
	cache, err := bulkpim.OpenResultCache(dir)
	if err != nil {
		return err
	}
	var emitErr error
	_, err = bulkpim.StreamReport("all", serveOptions(seed, cache), func(se bulkpim.StreamEmit) {
		if se.Err != nil && emitErr == nil {
			emitErr = fmt.Errorf("artifact %s: %w", se.Artifact, se.Err)
		}
	}, io.Discard)
	return errors.Join(err, emitErr, cache.Close())
}

func serveOptions(seed uint64, cache *bulkpim.ResultCache) bulkpim.Options {
	return bulkpim.Options{Scale: bulkpim.ScaleBench, Seed: seed, Parallelism: serveClients, Cache: cache}
}

// setupServe opens the warm result cache at dir, renders every artifact
// from it in-process, and starts a daemon over it. It returns how long
// the manifest call took.
func setupServe(rc *runConfig, dir string) (*serveEnv, time.Duration, error) {
	cache, err := bulkpim.OpenResultCache(dir)
	if err != nil {
		return nil, 0, err
	}
	e := &serveEnv{cache: cache, artifacts: map[string]string{},
		results: map[string]bulkpim.Result{}, opts: serveOptions(rc.seed, cache)}
	var emitErr error
	_, err = bulkpim.StreamReport("all", e.opts, func(se bulkpim.StreamEmit) {
		if se.Err != nil && emitErr == nil {
			emitErr = fmt.Errorf("artifact %s: %w", se.Artifact, se.Err)
		}
		e.artifacts[se.Artifact] = se.Output
	}, io.Discard)
	if err == nil {
		err = emitErr
	}
	if st := cache.Stats(); err == nil && (st.Misses != 0 || st.Stores != 0) {
		err = fmt.Errorf("%d misses and %d stores on the warm cache", st.Misses, st.Stores)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("render from the warm cache: %w", err)
	}
	t := time.Now()
	e.manifest, err = bulkpim.Manifest("all", e.opts)
	manifestTime := time.Since(t)
	if err != nil {
		return nil, 0, fmt.Errorf("manifest: %w", err)
	}
	for _, j := range e.manifest {
		r, ok := cache.LookupFingerprint(j.Fingerprint)
		if !ok {
			return nil, 0, fmt.Errorf("warm cache misses %s", j.Key)
		}
		e.results[j.Fingerprint] = r
	}
	e.srv, err = bulkpim.NewServer(bulkpim.Options{Cache: cache}, bulkpim.ServerOptions{Local: true, Workers: 1})
	if err != nil {
		return nil, 0, err
	}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve() }()
	return e, manifestTime, nil
}

// close stops the daemon, waits for it, and closes the cache.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	err = errors.Join(err, <-e.served, e.cache.Close())
	return err
}

// request is one catalog entry.
type request struct {
	kind   string // "submit", "artifact" or "result"
	method string
	path   string   // submit and artifact
	body   []byte   // submit
	name   string   // experiment (submit) or artifact name
	fps    []string // result: one is read per walk, in turn
}

// catalog lists one walk's requests: for every experiment a submission,
// its artifact reads and a result read.
func (e *serveEnv) catalog() ([]*request, error) {
	byExp := map[string][]string{}
	seen := map[string]bool{}
	for _, j := range e.manifest {
		if !seen[j.Experiment+j.Fingerprint] {
			seen[j.Experiment+j.Fingerprint] = true
			byExp[j.Experiment] = append(byExp[j.Experiment], j.Fingerprint)
		}
	}
	var reqs []*request
	q := fmt.Sprintf("?scale=%s&seed=%d", e.opts.Scale, e.opts.Seed)
	for _, name := range bulkpim.StandaloneExperiments() {
		body, err := json.Marshal(map[string]any{"experiment": name, "scale": e.opts.Scale, "seed": e.opts.Seed})
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, &request{kind: "submit", method: http.MethodPost, path: "/v1/jobs", body: body, name: name})
		spec, ok := bulkpim.LookupExperiment(name)
		if !ok {
			return nil, fmt.Errorf("no experiment %q", name)
		}
		for _, a := range spec.ArtifactNames() {
			if _, ok := e.artifacts[a]; !ok {
				return nil, fmt.Errorf("artifact %s was not rendered in-process", a)
			}
			reqs = append(reqs, &request{kind: "artifact", method: http.MethodGet, path: "/v1/artifacts/" + a + q, name: a})
		}
		if fps := byExp[name]; len(fps) > 0 {
			reqs = append(reqs, &request{kind: "result", method: http.MethodGet, fps: fps, name: name})
		}
	}
	return reqs, nil
}

// check validates one reply against the in-process results.
func (e *serveEnv) check(r *request, fp string, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	switch r.kind {
	case "submit":
		var st struct {
			Status                 string
			Points, Cached, Failed int
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		if st.Status != "done" || st.Cached != st.Points || st.Failed != 0 {
			return fmt.Errorf("job %s, %d of %d points cached, %d failed", st.Status, st.Cached, st.Points, st.Failed)
		}
	case "artifact":
		var st struct {
			Ready  bool
			Output string
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		if !st.Ready || st.Output != e.artifacts[r.name] {
			return fmt.Errorf("artifact body differs from the in-process report (ready=%v)", st.Ready)
		}
	case "result":
		var got bulkpim.Result
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if !reflect.DeepEqual(got, e.results[fp]) {
			return fmt.Errorf("result %s differs from the cached one", fp)
		}
	}
	return nil
}

// reply is one answered request: its catalog entry and its latency in
// seconds at reference speed.
type reply struct {
	entry int
	lat   float64
}

// serveClient is one closed-loop client: where it is in the catalog, the
// bodies it has checked, and its record.
type serveClient struct {
	next      int
	checked   map[string][]byte // by path
	replies   []reply
	attempted int
	fails     []string
}

// drive runs the closed loop until deadline, or until the client has
// sent limit requests when limit > 0, and returns the replies it got,
// with raw latencies. Artifact and result replies are byte-stable, so a
// body equal to one already checked passes without decoding it again.
func (c *serveClient) drive(e *serveEnv, hc *http.Client, reqs []*request, deadline time.Time, limit int) []reply {
	var out []reply
	base := "http://" + e.srv.Addr()
	for ; time.Now().Before(deadline) && (limit == 0 || c.attempted < limit); c.next++ {
		idx := c.next % len(reqs)
		r := reqs[idx]
		path, fp := r.path, ""
		if r.kind == "result" {
			fp = r.fps[(c.next/len(reqs))%len(r.fps)]
			path = "/v1/results/" + fp
		}
		c.attempted++
		t := time.Now()
		status, body, err := roundTrip(hc, r.method, base+path, r.body)
		lat := time.Since(t).Seconds()
		if err == nil && (r.kind == "submit" || status != http.StatusOK || !bytes.Equal(body, c.checked[path])) {
			if err = e.check(r, fp, status, body); err == nil && r.kind != "submit" {
				c.checked[path] = body
			}
		}
		if err != nil {
			c.fails = append(c.fails, fmt.Sprintf("%s %s: %v", r.kind, r.name, err))
			continue
		}
		out = append(out, reply{entry: idx, lat: lat})
	}
	return out
}

func roundTrip(hc *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// sliceLen is how long the clients run between two reference runs.
const sliceLen = 250 * time.Millisecond

// loadRecord is a load phase's record: every reply, the phase's length
// at reference speed, and its op accounting.
type loadRecord struct {
	replies   []reply
	span      float64
	attempted int
	fails     []string
}

// serveLoad is a load phase's clients.
type serveLoad []*serveClient

func newServeLoad(reqs []*request) serveLoad {
	clients := make(serveLoad, serveClients)
	for i := range clients {
		clients[i] = &serveClient{next: i * len(reqs) / serveClients, checked: map[string][]byte{}}
	}
	return clients
}

// run drives every client at once until deadline or limit (see drive).
func (l serveLoad) run(e *serveEnv, hc *http.Client, reqs []*request, deadline time.Time, limit int) [][]reply {
	got := make([][]reply, len(l))
	var wg sync.WaitGroup
	for i, c := range l {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.drive(e, hc, reqs, deadline, limit)
		}()
	}
	wg.Wait()
	return got
}

// record folds the clients' op accounting into rec.
func (l serveLoad) record(rec *loadRecord) *loadRecord {
	for _, c := range l {
		rec.attempted += c.attempted
		rec.fails = append(rec.fails, c.fails...)
	}
	return rec
}

// memoryRequests is how many requests the memory phase sends.
const memoryRequests = 10_000

// memoryPhase sends memoryRequests requests through the closed loop and
// returns the peak resident set meanwhile, in MB. The daemon keeps every
// job it has accepted, so its resident set grows with the requests it
// has served; a fixed count of them keeps the figure independent of how
// fast the host is.
func (e *serveEnv) memoryPhase(hc *http.Client, reqs []*request) (float64, *loadRecord) {
	rss := startRSSMeter()
	defer rss.close()
	l := newServeLoad(reqs)
	l.run(e, hc, reqs, time.Now().Add(time.Minute), memoryRequests/serveClients)
	return rss.span(), l.record(&loadRecord{})
}

// load runs serveClients closed-loop clients for d, in slices between
// runs of the reference loop, and scales each reply's latency by its
// slice's reference speed.
func (e *serveEnv) load(hc *http.Client, reqs []*request, ref *hostRef, d time.Duration) *loadRecord {
	l := newServeLoad(reqs)
	rec := &loadRecord{}
	for end := time.Now().Add(d); time.Now().Before(end); {
		deadline := time.Now().Add(sliceLen)
		if deadline.After(end) {
			deadline = end
		}
		var got [][]reply
		scaled, raw := ref.measure(func() { got = l.run(e, hc, reqs, deadline, 0) })
		rec.span += scaled
		for _, rs := range got {
			for _, r := range rs {
				r.lat *= scaled / raw
				rec.replies = append(rec.replies, r)
			}
		}
	}
	return l.record(rec)
}

// latencies returns the latencies of the replies to the requests kind
// selects.
func (rec *loadRecord) latencies(reqs []*request, kind func(*request) bool) []float64 {
	var out []float64
	for _, r := range rec.replies {
		if kind(reqs[r.entry]) {
			out = append(out, r.lat)
		}
	}
	return out
}

// walk is one pass over the catalog: the sum over its entries of each
// entry's median latency (+Inf when an entry was never answered).
func (rec *loadRecord) walk(entries int) float64 {
	byEntry := make([][]float64, entries)
	for _, r := range rec.replies {
		byEntry[r.entry] = append(byEntry[r.entry], r.lat)
	}
	w := 0.0
	for _, lat := range byEntry {
		if len(lat) == 0 {
			return math.Inf(1)
		}
		w += median(lat)
	}
	return w
}

// runServeWarm warms a result cache in a child process, then sets the
// daemon up over it several times (keeping the last) and measures. A
// traced run measures untraced for the first half of its time, as the
// reference for the tracing overhead, and profiles the second half.
func runServeWarm(rc *runConfig) (*outcome, error) {
	o := newOutcome(rc)
	ref := &hostRef{par: serveClients}
	dir, err := os.MkdirTemp(rc.workDir, "serve-")
	if err != nil {
		return nil, err
	}
	if err := runChild(rc, "serve-warm", "warm", "--cache-dir", dir); err != nil {
		return nil, err
	}
	var (
		env              *serveEnv
		setups, manifest []float64
	)
	for t := time.Now(); len(setups) < minSetups || time.Since(t) < setupTime && len(setups) < maxSetups; {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		var mt time.Duration
		s, _ := ref.measure(func() { env, mt, err = setupServe(rc, dir) })
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		manifest = append(manifest, 1e3*mt.Seconds())
	}
	defer func() {
		if err := env.close(); err != nil {
			fmt.Fprintf(rc.stderr, "perfbench: stop the daemon: %v\n", err)
		}
	}()
	reqs, err := env.catalog()
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}

	before := env.cache.Stats()
	peakRSS, mem := env.memoryPhase(hc, reqs)
	env.settle(o, mem, before)
	runtime.GC()
	before = env.cache.Stats()
	v := o.values
	v["setup_s"] = median(setups)
	fmt.Fprintf(rc.stderr, "perfbench: %d set-ups, %.4g to %.4g s\n", len(setups), slices.Min(setups), slices.Max(setups))
	if !rc.traced {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		rec := env.load(hc, reqs, ref, rc.seconds)
		runtime.ReadMemStats(&ms1)
		env.settle(o, rec, before)
		v["wall_s"] = rec.walk(len(reqs))
		v["req_per_s"] = float64(len(rec.replies)) / rec.span
		v["alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (float64(rec.attempted) / float64(len(reqs))) / 1e6
		v["peak_rss_mb"] = peakRSS
		fmt.Fprintf(rc.stderr, "perfbench: %d requests; host ran the reference loop at %.2fx its nominal time\n",
			rec.attempted, ref.slowdown())
		return o, nil
	}

	half := rc.seconds / 2
	base := env.load(hc, reqs, ref, half)
	env.settle(o, base, before)
	mid := env.cache.Stats()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	rec := env.load(hc, reqs, ref, half)
	prof.pause()
	env.settle(o, rec, mid)
	after := env.cache.Stats()
	if err := prof.shares(v); err != nil {
		return nil, err
	}
	all := func(*request) bool { return true }
	kind := func(k string) func(*request) bool { return func(r *request) bool { return r.kind == k } }
	p50, p50base := percentile(rec.latencies(reqs, all), 50), percentile(base.latencies(reqs, all), 50)
	v["bench.trace_overhead_pct"] = 100 * (p50 - p50base) / p50base
	v["bench.host_slowdown"] = ref.slowdown()
	v["serve.p50_ms"] = 1e3 * p50
	v["serve.p99_ms"] = 1e3 * percentile(rec.latencies(reqs, all), 99)
	v["serve.submit_p50_ms"] = 1e3 * percentile(rec.latencies(reqs, kind("submit")), 50)
	v["serve.artifact_p50_ms"] = 1e3 * percentile(rec.latencies(reqs, kind("artifact")), 50)
	v["serve.result_p50_ms"] = 1e3 * percentile(rec.latencies(reqs, kind("result")), 50)
	v["resultcache.hit_rate"] = hitRate(after.Hits-mid.Hits, after.Misses-mid.Misses)
	v["bulkpim.manifest_ms"] = median(manifest)
	env.inProcess(o)
	for _, k := range []string{"ycsb.zipf_init_s", "ycsb.gen_s", "system.build_s", "system.run_s",
		"resultcache.store_us", "sim.events", "sim.cycles", "sim.ns_per_event",
		"sim.events_per_s", "cpu.instrs", "cpu.stalls", "cache.llc_hits", "cache.llc_misses",
		"cache.scans", "cache.sb_hit_rate", "cache.sbv_skip_ratio", "memctrl.loads", "memctrl.writes",
		"memctrl.pim_forwarded", "memctrl.queue_len_mean", "pim.ops_executed", "core.violations",
		"system.allocs_per_event"} {
		v[k] = 0
	}
	return o, nil
}

// settle folds a load phase's record into o: every failed reply, and
// every result-cache miss or executed point since before, counts as a
// failed op.
func (e *serveEnv) settle(o *outcome, rec *loadRecord, before bulkpim.CacheStats) {
	o.attempted += rec.attempted
	for _, f := range rec.fails {
		o.fail("%s", f)
	}
	after := e.cache.Stats()
	for i := 0; i < after.Misses-before.Misses; i++ {
		o.fail("result-cache miss under warm load")
	}
	if n := after.Stores - before.Stores; n > 0 {
		o.fail("%d points were executed under warm load", n)
	}
}

// inProcess times the library calls behind the daemon's replies: cache
// lookups of every planned point and each experiment's report render on
// the warm cache, which must equal its artifacts' bodies.
func (e *serveEnv) inProcess(o *outcome) {
	var lookups, renders []float64
	for _, j := range e.manifest {
		t := time.Now()
		_, ok := e.cache.Lookup(j.Key, j.Fingerprint)
		lookups = append(lookups, time.Since(t).Seconds())
		if !ok {
			o.fail("cache misses planned point %s", j.Key)
		}
	}
	for _, name := range bulkpim.StandaloneExperiments() {
		t := time.Now()
		rep, err := bulkpim.RunExperiment(name, e.opts)
		renders = append(renders, time.Since(t).Seconds())
		spec, _ := bulkpim.LookupExperiment(name)
		var want strings.Builder
		for _, a := range spec.ArtifactNames() {
			want.WriteString(e.artifacts[a])
		}
		if err != nil || rep != want.String() {
			o.fail("%s: in-process report differs from its artifacts (%v)", name, err)
		}
	}
	o.values["resultcache.lookup_us"] = 1e6 * median(lookups)
	o.values["report.render_ms"] = 1e3 * median(renders)
}
