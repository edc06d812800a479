package bulkpim

// The always-on serving daemon behind `pimbench serve`: internal/serve
// supplies the HTTP/JSON API, internal/coord the persistent elastic
// worker pool, and this file the bulkpim-specific glue — resolving a
// request (experiment × scale × seed × config overrides) to its
// deduplicated plan, strict config-override validation, the shared
// result cache, and the two execution backends (in-process local
// workers, or the `pimbench work` subprocess fleet Coordinate uses).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"bulkpim/internal/coord"
	"bulkpim/internal/serve"
)

// ParseConfigOverride validates a client's raw config-override JSON —
// an object of Config field overrides such as {"Cores":2,"MCQueue":16}
// — and returns a pure mutator applying it, or nil for an empty/null
// override. Decoding is strict (unknown fields, type mismatches and
// trailing data are errors) and validated once against the default
// Config, so a bad override is rejected at request time, never inside
// a worker.
func ParseConfigOverride(raw []byte) (func(*Config), error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 || bytes.Equal(trimmed, []byte("null")) {
		return nil, nil
	}
	apply := func(cfg *Config) error {
		dec := json.NewDecoder(bytes.NewReader(trimmed))
		dec.DisallowUnknownFields()
		if err := dec.Decode(cfg); err != nil {
			return err
		}
		if dec.More() {
			return errors.New("trailing data after override object")
		}
		return nil
	}
	probe := DefaultConfig()
	if err := apply(&probe); err != nil {
		return nil, fmt.Errorf("config override: %w", err)
	}
	// The mutator re-applies the already-validated document; decoding
	// cannot fail differently on another Config value of the same type.
	return func(cfg *Config) { _ = apply(cfg) }, nil
}

// resolvedPlan is one request shape's deduplicated plan: the API's
// point list, the fingerprint-to-job index executors run from, and the
// key-to-fingerprint index the artifact-status path consults the cache
// with (every planned key, canonical and alias alike).
type resolvedPlan struct {
	points  []serve.Point
	byFP    map[string]SimJob
	fpByKey map[string]string
}

// planCache memoizes resolved plans by full spec identity
// (experiment × scale × seed × overrides). Planning is deterministic,
// so the daemon, the coordinator and every worker derive identical
// fingerprints from the same spec.
type planCache struct {
	opts  Options
	mu    sync.Mutex
	plans map[string]*resolvedPlan
}

func newPlanCache(opts Options) *planCache {
	return &planCache{opts: opts, plans: map[string]*resolvedPlan{}}
}

func specKey(spec coord.JobSpec) string {
	return spec.Exp + "\x00" + spec.Scale + "\x00" + strconv.FormatUint(spec.Seed, 10) + "\x00" + spec.Overrides
}

func (pc *planCache) resolve(spec coord.JobSpec) (*resolvedPlan, error) {
	key := specKey(spec)
	pc.mu.Lock()
	if rp, ok := pc.plans[key]; ok {
		pc.mu.Unlock()
		return rp, nil
	}
	pc.mu.Unlock()

	// Plan outside the lock (workload identity derivation is cheap but
	// not free); concurrent duplicate resolves converge on one entry.
	if !ValidScale(Scale(spec.Scale)) {
		return nil, fmt.Errorf("unknown scale %q (valid: %v)", spec.Scale, Scales())
	}
	if spec.Exp != "all" {
		if _, ok := LookupExperiment(spec.Exp); !ok {
			return nil, fmt.Errorf("unknown experiment %q (valid: all, %s)",
				spec.Exp, strings.Join(Experiments(), ", "))
		}
	}
	mut, err := ParseConfigOverride([]byte(spec.Overrides))
	if err != nil {
		return nil, err
	}
	opts := pc.opts
	opts.Scale = Scale(spec.Scale)
	opts.Seed = spec.Seed
	planned, err := planFor(spec.Exp, opts)
	if err != nil {
		return nil, err
	}
	if mut != nil {
		// Overrides win: applied after each job's own Mutate, so the
		// fingerprints (digests of the final Config) shift with the
		// override and never collide with the base grid's.
		for pi := range planned {
			for ji := range planned[pi].jobs {
				inner := planned[pi].jobs[ji].Mutate
				planned[pi].jobs[ji].Mutate = func(c *Config) {
					if inner != nil {
						inner(c)
					}
					mut(c)
				}
			}
		}
	}
	groups, _ := dedupPlan(planned)
	rp := &resolvedPlan{byFP: make(map[string]SimJob, len(groups)),
		fpByKey: map[string]string{}}
	for _, g := range groups {
		rp.points = append(rp.points, serve.Point{
			Key: g.keys[0], Fingerprint: g.fp, Aliases: g.keys[1:]})
		rp.byFP[g.fp] = g.job
		for _, k := range g.keys {
			rp.fpByKey[k] = g.fp
		}
	}

	pc.mu.Lock()
	defer pc.mu.Unlock()
	if prior, ok := pc.plans[key]; ok {
		return prior, nil
	}
	pc.plans[key] = rp
	return rp, nil
}

// execute resolves a job's spec and runs the fingerprint's simulation.
// A panicking point becomes a job-level error, mirroring the in-process
// runner's panic capture: the worker survives to serve its siblings.
func (pc *planCache) execute(spec coord.JobSpec, key, fingerprint string) (r Result, err error) {
	rp, err := pc.resolve(spec)
	if err != nil {
		return r, err
	}
	j, ok := rp.byFP[fingerprint]
	if !ok {
		return r, fmt.Errorf("unknown fingerprint %s for %s: %w", fingerprint, key, coord.ErrPlanSkew)
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return j.Run()
}

// ServeWorker is the worker half of a fleet — the hidden `pimbench
// work` endpoint `pimbench coord` and `pimbench serve` spawn: it plans
// nothing at startup, derives each job's plan from the spec riding in
// its frame, and memoizes resolved plans across jobs. failAfter > 0 is
// the crash-injection test hook (serve that many jobs, then exit 3 on
// the next).
func ServeWorker(opts Options, in io.Reader, out io.Writer, failAfter int) error {
	pc := newPlanCache(opts)
	return coord.Serve(in, out, coord.ServeOptions{
		ExecuteSpec: pc.execute,
		FailAfter:   failAfter,
		Log:         opts.Log,
	})
}

// ServerOptions configures the daemon around Options (which carries
// the cache, snapshots, log and scale-independent knobs).
type ServerOptions struct {
	// Addr is the listen address; empty means 127.0.0.1:0 (ephemeral).
	Addr string
	// Workers is the initial fleet size (<= 0 means 2) and the
	// auto-replace target: a worker lost mid-run is replaced as long as
	// the live fleet is below it. Workers added over HTTP can exceed it.
	Workers int
	// WorkerCmd is the worker launch template (see CoordOptions).
	WorkerCmd string
	// Local runs executions on in-process workers instead of
	// subprocesses — no re-exec requirement, used by tests and
	// single-machine serving. Crash injection is subprocess-only.
	Local bool
	// WorkerStderr receives the workers' stderr; nil discards it.
	WorkerStderr io.Writer
	// FailWorker/FailAfter crash-inject the initial worker with id
	// FailWorker after FailAfter jobs (FailAfter > 0 enables it).
	// Replacement workers get fresh ids and are never injected.
	FailWorker int
	FailAfter  int
	// MaxAttempts, BaseBackoff and MaxBackoff tune the pool's retry
	// budget and per-worker backoff; zero values use the pool defaults.
	MaxAttempts int
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// Server is a running pimbench serve daemon: an HTTP listener in front
// of the result cache and an elastic worker pool.
type Server struct {
	opts  Options
	pc    *planCache
	fleet *fleet
	pool  *coord.Pool
	hs    *http.Server
	ln    net.Listener
	logf  func(format string, args ...any)
}

// NewServer wires the daemon and starts its initial worker fleet, but
// does not serve yet — call Serve (blocking) after reading Addr.
func NewServer(opts Options, sopts ServerOptions) (*Server, error) {
	if opts.Cache == nil {
		return nil, errors.New("pimbench serve needs Options.Cache: the daemon is a results CDN over the shared result cache")
	}
	// The pool (and the HTTP handlers) log from many goroutines.
	opts.Log = opts.lockedLog()
	s := &Server{opts: opts, pc: newPlanCache(opts), logf: opts.log}

	target := sopts.Workers
	if target <= 0 {
		target = 2
	}
	launch := func(int) (coord.Worker, error) { return &localServeWorker{pc: s.pc}, nil }
	if !sopts.Local {
		launch = procLauncher(opts, sopts.WorkerCmd, sopts.WorkerStderr, sopts.FailWorker, sopts.FailAfter)
	}
	f := newFleet(coord.PoolOptions{
		Launch:      launch,
		MaxAttempts: sopts.MaxAttempts,
		BaseBackoff: sopts.BaseBackoff,
		MaxBackoff:  sopts.MaxBackoff,
		Log:         s.logf,
	}, target, nil)
	s.fleet, s.pool = f, f.pool
	launchErrs := f.grow(target)
	if len(s.pool.Stats().Workers) == 0 {
		s.pool.Close()
		return nil, fmt.Errorf("no worker launched: %w", errors.Join(launchErrs...))
	}
	for _, err := range launchErrs {
		s.logf("serve: %v (continuing on the rest of the fleet)", err)
	}

	api := serve.NewServer(serve.Backend{
		Resolve:  s.resolveRequest,
		Lookup:   opts.Cache.Lookup,
		LookupFP: opts.Cache.LookupFingerprint,
		Store: func(key, fingerprint string, r Result) {
			if err := opts.Cache.Store(key, fingerprint, r); err != nil {
				s.logf("cache store %s: %v", key, err)
			}
		},
		Exec:           s.exec,
		Experiments:    experimentCatalog,
		Artifacts:      s.resolveArtifacts,
		ArtifactStatus: s.artifactStatus,
		Fleet:          s.pool.Stats,
		AddWorker:      s.pool.AddWorker,
		RemoveWorker:   s.pool.RemoveWorker,
		Shutdown: func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				s.logf("serve: shutdown: %v", err)
			}
		},
	})

	addr := sopts.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.pool.Close()
		return nil, fmt.Errorf("pimbench serve: %w", err)
	}
	s.ln = ln
	s.hs = &http.Server{Handler: api}
	return s, nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve blocks serving the API until Shutdown; a graceful shutdown
// returns nil.
func (s *Server) Serve() error {
	err := s.hs.Serve(s.ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown gracefully stops the listener and dismisses the fleet; a
// worker lost meanwhile is not replaced. Queued tasks settle as failed;
// in-flight ones finish first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.fleet.stop()
	err := s.hs.Shutdown(ctx)
	s.pool.Close()
	return err
}

// resolveRequest is the API's planning hook.
func (s *Server) resolveRequest(req serve.JobRequest) ([]serve.Point, error) {
	rp, err := s.pc.resolve(specOf(req))
	if err != nil {
		return nil, err
	}
	return rp.points, nil
}

// experimentCatalog renders the registry for GET /v1/experiments:
// every spec with its bundled aliases and artifact list, in canonical
// suite order.
func experimentCatalog() []serve.ExperimentInfo {
	var out []serve.ExperimentInfo
	for _, name := range StandaloneExperiments() {
		spec, _ := LookupExperiment(name)
		out = append(out, serve.ExperimentInfo{
			Name: spec.Name, Bundles: spec.Bundles, Artifacts: spec.ArtifactNames()})
	}
	return out
}

// resolveArtifacts is the API's per-request artifact hook: the
// renderable artifacts of the request's experiment ("all" for the full
// suite) with their exact key sets at the request's scale and seed.
func (s *Server) resolveArtifacts(req serve.JobRequest) ([]serve.ArtifactSpec, error) {
	specs, err := streamSpecs(strings.ToLower(req.Experiment))
	if err != nil {
		return nil, err
	}
	opts := s.opts
	opts.Scale = Scale(req.Scale)
	opts.Seed = req.Seed
	var out []serve.ArtifactSpec
	for _, spec := range specs {
		for _, a := range spec.Artifacts(opts) {
			out = append(out, serve.ArtifactSpec{
				Experiment: spec.Name, Name: a.Name, Keys: a.Keys})
		}
	}
	return out, nil
}

// artifactStatus answers GET /v1/artifacts/{name}: the artifact's
// key-set readiness against the result cache, with its rendered output
// — produced by the owning spec's Render, from cached results alone —
// once every key has settled.
func (s *Server) artifactStatus(name string, req serve.JobRequest) (serve.ArtifactStatus, error) {
	n := strings.ToLower(name)
	spec, ok := LookupArtifact(n)
	if !ok {
		return serve.ArtifactStatus{}, fmt.Errorf("%w %q", serve.ErrUnknownArtifact, name)
	}
	jreq := req
	jreq.Experiment = spec.Name
	rp, err := s.pc.resolve(specOf(jreq))
	if err != nil {
		return serve.ArtifactStatus{}, err
	}
	opts := s.opts
	opts.Scale = Scale(req.Scale)
	opts.Seed = req.Seed
	var art *Artifact
	for _, a := range spec.Artifacts(opts) {
		if a.Name == n {
			a := a
			art = &a
			break
		}
	}
	if art == nil {
		return serve.ArtifactStatus{}, fmt.Errorf("%w %q", serve.ErrUnknownArtifact, name)
	}

	st := serve.ArtifactStatus{Artifact: n, Experiment: spec.Name,
		Scale: req.Scale, Seed: req.Seed, Keys: len(art.Keys)}
	rs := &ResultSet{byKey: map[string]Result{}}
	const missingCap = 8
	for _, k := range art.Keys {
		if v, ok := s.opts.Cache.Lookup(k, rp.fpByKey[k]); ok {
			st.Settled++
			rs.byKey[k] = v
			continue
		}
		if len(st.Missing) < missingCap {
			st.Missing = append(st.Missing, k)
		}
	}
	st.Ready = st.Settled == st.Keys
	if st.Ready {
		items, err := spec.Render(opts, n, rs)
		if err != nil {
			return serve.ArtifactStatus{}, fmt.Errorf("render %s: %w", n, err)
		}
		st.Output = render(items...)
	}
	return st, nil
}

func specOf(req serve.JobRequest) coord.JobSpec {
	return coord.JobSpec{Exp: strings.ToLower(req.Experiment), Scale: req.Scale,
		Seed: req.Seed, Overrides: string(req.Overrides)}
}

// exec dispatches one missing point onto the pool.
func (s *Server) exec(req serve.JobRequest, p serve.Point, done func(Result, error)) {
	task := coord.Task{Key: p.Key, Fingerprint: p.Fingerprint, Spec: specOf(req)}
	if err := s.pool.Submit(task, func(o coord.Outcome) { done(o.Value, o.Err) }); err != nil {
		done(Result{}, err)
	}
}

// localServeWorker executes tasks in-process. Execution errors
// are job-level (*coord.JobError): an in-process worker does not die
// with its job.
type localServeWorker struct{ pc *planCache }

func (w *localServeWorker) Run(t coord.Task) (Result, error) {
	v, err := w.pc.execute(t.Spec, t.Key, t.Fingerprint)
	if err != nil {
		return Result{}, &coord.JobError{Msg: err.Error()}
	}
	return v, nil
}

func (w *localServeWorker) Close() error { return nil }
