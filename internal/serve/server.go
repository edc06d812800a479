// Package serve is the HTTP/JSON face of an always-on pimbench
// daemon: clients POST experiment × scale × config-override requests,
// poll them by job id, and read settled results directly by
// fingerprint. The daemon in front of the content-addressed result
// cache is a results CDN — most traffic is repeated queries over the
// paper's finite fingerprint space, and those return instantly from
// the cache.
//
// Request lifecycle: a job request resolves (via the planning hooks
// the owner wires in) to its deduplicated grid points. Points already
// in the result cache settle immediately; the rest join the in-flight
// table, which extends the plan's static fingerprint dedup across every
// concurrent request fleet-wide — one execution per distinct
// fingerprint no matter how many clients ask — and are dispatched to
// the worker pool. A settling execution writes back under its
// canonical key and every alias attached while it flew, then wakes all
// waiting jobs.
//
// Like internal/coord, this package is bulkpim-agnostic: planning,
// cache and execution arrive as Backend hooks, so tests drive the full
// HTTP surface with fakes.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"bulkpim/internal/coord"
	"bulkpim/internal/system"
)

// MaxRequestBody bounds a job-request document; config overrides are
// small JSON objects, so anything larger is garbage.
const MaxRequestBody = 1 << 20

// JobRequest is the POST /v1/jobs submission: which experiment, at
// what scale and seed, under what config overrides. Overrides is the
// raw JSON override object (strictly validated downstream against the
// machine Config) and rides to workers verbatim so fingerprints agree
// fleet-wide.
type JobRequest struct {
	Experiment string          `json:"experiment"`
	Scale      string          `json:"scale"`
	Seed       uint64          `json:"seed,omitempty"`
	Overrides  json.RawMessage `json:"overrides,omitempty"`
}

// ParseJobRequest strictly decodes a job request: unknown fields,
// trailing data, type mismatches and missing required fields are
// errors — malformed input must never reach the planner.
func ParseJobRequest(r io.Reader) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(io.LimitReader(r, MaxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return JobRequest{}, fmt.Errorf("job request: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return JobRequest{}, errors.New("job request: trailing data after JSON object")
	}
	if req.Experiment == "" {
		return JobRequest{}, errors.New("job request: experiment is required")
	}
	if req.Scale == "" {
		return JobRequest{}, errors.New("job request: scale is required")
	}
	return req, nil
}

// Point is one deduplicated grid point of a resolved request: the
// canonical key, the content-addressing fingerprint, and any alias
// keys (overlapping grids) the same execution also answers.
type Point struct {
	Key         string
	Fingerprint string
	Aliases     []string
}

// ExperimentInfo is one registry entry in the GET /v1/experiments
// catalog: the experiment's canonical name, the bundled aliases that
// resolve to it, and the artifacts it renders.
type ExperimentInfo struct {
	Name      string   `json:"name"`
	Bundles   []string `json:"bundles,omitempty"`
	Artifacts []string `json:"artifacts"`
}

// ArtifactSpec is one renderable artifact of a resolved request: its
// owning experiment, its name, and the exact job-key set it needs —
// the per-artifact contract the streaming report path counts down.
type ArtifactSpec struct {
	Experiment string
	Name       string
	Keys       []string
}

// JobArtifact is a job's per-artifact settlement progress on the wire:
// how many of the artifact's keys the job has settled successfully,
// and whether every key is in — at which point the artifact is
// renderable from results alone.
type JobArtifact struct {
	Experiment string `json:"experiment"`
	Name       string `json:"name"`
	Keys       int    `json:"keys"`
	Settled    int    `json:"settled"`
	Ready      bool   `json:"ready"`
}

// ArtifactStatus is the GET /v1/artifacts/{name} payload: one
// artifact's readiness against the result cache, with its rendered
// output once every key it needs has settled.
type ArtifactStatus struct {
	Artifact   string   `json:"artifact"`
	Experiment string   `json:"experiment"`
	Scale      string   `json:"scale"`
	Seed       uint64   `json:"seed,omitempty"`
	Keys       int      `json:"keys"`
	Settled    int      `json:"settled"`
	Ready      bool     `json:"ready"`
	Output     string   `json:"output,omitempty"`
	Missing    []string `json:"missing,omitempty"`
}

// ErrUnknownArtifact marks an artifact-status request for a name no
// registry spec declares; the handler maps it to 404.
var ErrUnknownArtifact = errors.New("unknown artifact")

// Backend is everything the HTTP surface delegates: planning, the
// result cache, execution, and fleet management. Hooks run outside the
// server's lock except Lookup — a cheap in-memory cache read invoked
// while a submission settles its points — which therefore must not
// call back into the server.
type Backend struct {
	// Resolve plans a request into its deduplicated points; an error is
	// a client error (unknown experiment, bad scale, invalid override).
	Resolve func(req JobRequest) ([]Point, error)
	// Lookup and LookupFP consult the result cache; Store writes a
	// settled execution back under one key.
	Lookup   func(key, fingerprint string) (system.Result, bool)
	LookupFP func(fingerprint string) (system.Result, bool)
	Store    func(key, fingerprint string, r system.Result)
	// Exec runs one missing point asynchronously and calls done exactly
	// once with its outcome. The server guarantees at most one live
	// Exec per fingerprint fleet-wide.
	Exec func(req JobRequest, p Point, done func(system.Result, error))
	// Experiments lists the registry catalog for GET /v1/experiments;
	// nil answers 501.
	Experiments func() []ExperimentInfo
	// Artifacts resolves a request's renderable artifacts and their key
	// sets; job documents then report per-artifact settlement progress.
	// Optional: a nil hook (or an error) just omits artifact progress.
	Artifacts func(req JobRequest) ([]ArtifactSpec, error)
	// ArtifactStatus answers GET /v1/artifacts/{name} against the
	// result cache: readiness, missing keys, and the rendered output
	// once complete. Wrap ErrUnknownArtifact for unknown names; nil
	// answers 501.
	ArtifactStatus func(name string, req JobRequest) (ArtifactStatus, error)
	// Fleet snapshots the worker pool for /v1/healthz and /v1/stats.
	Fleet func() coord.PoolStats
	// AddWorker and RemoveWorker serve POST /v1/workers elasticity.
	AddWorker    func() (int, error)
	RemoveWorker func(id int) error
	// Shutdown, when non-nil, is triggered (once, asynchronously) by
	// POST /v1/shutdown after the response is written.
	Shutdown func()
}

// pointState is one point's settlement within a job.
type pointState struct {
	p      Point
	done   bool
	cached bool
	result system.Result
	err    string
}

// job is one submitted request and its settlement progress.
type job struct {
	id        string
	req       JobRequest
	points    []*pointState
	pending   int
	artifacts []ArtifactSpec
}

// flight is one in-flight execution: the keys to write back when it
// lands (canonical + every alias attached while it flew, across all
// requests) and the job points waiting on it.
type flight struct {
	keys    map[string]bool
	waiters []*waiter
}

type waiter struct {
	j  *job
	ps *pointState
}

// Counters is the serving-layer accounting exposed by /v1/stats.
type Counters struct {
	// Requests counts accepted job submissions; BadRequests rejected
	// ones. Points splits into CacheHits (settled from the result cache
	// at submit), Coalesced (attached to an execution another request
	// already had in flight) and Executed (new executions dispatched).
	// ExecFailed counts executions that settled with an error;
	// ResultReads counts GET /v1/results hits+misses.
	Requests    int `json:"requests"`
	BadRequests int `json:"bad_requests"`
	Points      int `json:"points"`
	CacheHits   int `json:"cache_hits"`
	Coalesced   int `json:"coalesced"`
	Executed    int `json:"executed"`
	ExecFailed  int `json:"exec_failed"`
	ResultReads int `json:"result_reads"`
}

// Server is the HTTP handler. Construct with NewServer and mount it on
// any http.Server.
type Server struct {
	b   Backend
	mux *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*job
	nextJob  int
	inflight map[string]*flight
	counters Counters
	start    time.Time
	shutdown sync.Once
}

// NewServer wires the API routes around a backend.
func NewServer(b Backend) *Server {
	s := &Server{b: b, jobs: map[string]*job{}, inflight: map[string]*flight{}, start: time.Now()}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/results/{fp}", s.handleResult)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/artifacts/{name}", s.handleArtifact)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/workers", s.handleWorkers)
	s.mux.HandleFunc("POST /v1/shutdown", s.handleShutdown)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// JobStatus is a job's wire representation. Results maps every settled
// key (canonical and alias) to its result; Errors maps failed points'
// canonical keys to their error text.
type JobStatus struct {
	ID         string                   `json:"id"`
	Experiment string                   `json:"experiment"`
	Scale      string                   `json:"scale"`
	Seed       uint64                   `json:"seed,omitempty"`
	Status     string                   `json:"status"` // "pending", "done", "failed"
	Points     int                      `json:"points"`
	Done       int                      `json:"done"`
	Cached     int                      `json:"cached"`
	Failed     int                      `json:"failed"`
	Results    map[string]system.Result `json:"results,omitempty"`
	Errors     map[string]string        `json:"errors,omitempty"`
	Artifacts  []JobArtifact            `json:"artifacts,omitempty"`
}

// statusLocked renders j; callers hold s.mu.
func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{ID: j.id, Experiment: j.req.Experiment, Scale: j.req.Scale,
		Seed: j.req.Seed, Points: len(j.points)}
	for _, ps := range j.points {
		if !ps.done {
			continue
		}
		if ps.cached {
			st.Cached++
		}
		if ps.err != "" {
			st.Failed++
			if st.Errors == nil {
				st.Errors = map[string]string{}
			}
			st.Errors[ps.p.Key] = ps.err
			continue
		}
		st.Done++
		if st.Results == nil {
			st.Results = map[string]system.Result{}
		}
		st.Results[ps.p.Key] = ps.result
		for _, alias := range ps.p.Aliases {
			st.Results[alias] = ps.result
		}
	}
	switch {
	case j.pending > 0:
		st.Status = "pending"
	case st.Failed > 0:
		st.Status = "failed"
	default:
		st.Status = "done"
	}
	if len(j.artifacts) > 0 {
		// Per-artifact countdown over the job's successfully settled keys
		// (canonical and alias alike — an artifact listens on whatever
		// grid names its keys carry).
		settled := map[string]bool{}
		for _, ps := range j.points {
			if !ps.done || ps.err != "" {
				continue
			}
			settled[ps.p.Key] = true
			for _, alias := range ps.p.Aliases {
				settled[alias] = true
			}
		}
		for _, a := range j.artifacts {
			ja := JobArtifact{Experiment: a.Experiment, Name: a.Name, Keys: len(a.Keys)}
			for _, k := range a.Keys {
				if settled[k] {
					ja.Settled++
				}
			}
			ja.Ready = ja.Settled == ja.Keys
			st.Artifacts = append(st.Artifacts, ja)
		}
	}
	return st
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// launch is one Exec dispatch deferred until the server lock is
// released.
type launch struct {
	req JobRequest
	p   Point
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := ParseJobRequest(r.Body)
	if err != nil {
		s.mu.Lock()
		s.counters.BadRequests++
		s.mu.Unlock()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	points, err := s.b.Resolve(req)
	if err != nil {
		s.mu.Lock()
		s.counters.BadRequests++
		s.mu.Unlock()
		writeError(w, http.StatusBadRequest, err)
		return
	}

	var artifacts []ArtifactSpec
	if s.b.Artifacts != nil {
		// Artifact progress is advisory; a resolution error degrades the
		// job document to point counts only rather than failing the job.
		artifacts, _ = s.b.Artifacts(req)
	}

	s.mu.Lock()
	s.counters.Requests++
	s.counters.Points += len(points)
	s.nextJob++
	j := &job{id: fmt.Sprintf("j%d", s.nextJob), req: req, artifacts: artifacts}
	s.jobs[j.id] = j
	var launches []launch
	for _, p := range points {
		ps := &pointState{p: p}
		j.points = append(j.points, ps)
		if v, ok := s.b.Lookup(p.Key, p.Fingerprint); ok {
			ps.done, ps.cached, ps.result = true, true, v
			s.counters.CacheHits++
			continue
		}
		j.pending++
		if fl, ok := s.inflight[p.Fingerprint]; ok {
			// Coalesce: attach this request's keys and wait for the
			// execution already in flight.
			fl.keys[p.Key] = true
			for _, alias := range p.Aliases {
				fl.keys[alias] = true
			}
			fl.waiters = append(fl.waiters, &waiter{j: j, ps: ps})
			s.counters.Coalesced++
			continue
		}
		fl := &flight{keys: map[string]bool{p.Key: true}, waiters: []*waiter{{j: j, ps: ps}}}
		for _, alias := range p.Aliases {
			fl.keys[alias] = true
		}
		s.inflight[p.Fingerprint] = fl
		s.counters.Executed++
		launches = append(launches, launch{req: req, p: p})
	}
	st := s.statusLocked(j)
	s.mu.Unlock()

	for _, l := range launches {
		fp := l.p.Fingerprint
		s.b.Exec(l.req, l.p, func(v system.Result, err error) { s.settle(fp, v, err) })
	}
	writeJSON(w, http.StatusOK, st)
}

// settle lands one execution: write-back under every attached key,
// then wake all waiting jobs.
func (s *Server) settle(fp string, v system.Result, err error) {
	s.mu.Lock()
	fl, ok := s.inflight[fp]
	if !ok {
		s.mu.Unlock()
		return
	}
	delete(s.inflight, fp)
	if err != nil {
		s.counters.ExecFailed++
	}
	var keys []string
	if err == nil {
		for k := range fl.keys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
	}
	for _, wt := range fl.waiters {
		wt.ps.done = true
		wt.j.pending--
		if err != nil {
			wt.ps.err = err.Error()
		} else {
			wt.ps.result = v
		}
	}
	s.mu.Unlock()
	// Write-back outside the lock: the store may do disk I/O.
	if s.b.Store != nil {
		for _, k := range keys {
			s.b.Store(k, fp, v)
		}
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var st JobStatus
	if ok {
		st = s.statusLocked(j)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	s.mu.Lock()
	s.counters.ResultReads++
	s.mu.Unlock()
	v, ok := s.b.LookupFP(fp)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no result for fingerprint %q", fp))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if s.b.Experiments == nil {
		writeError(w, http.StatusNotImplemented, errors.New("experiment catalog not wired"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": s.b.Experiments()})
}

// handleArtifact answers GET /v1/artifacts/{name}?scale=...&seed=...
// — one artifact's readiness against the result cache, rendered output
// included once every key it needs has settled. The experiment is
// implied by the artifact name; scale is required because key sets are
// scale-dependent.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	if s.b.ArtifactStatus == nil {
		writeError(w, http.StatusNotImplemented, errors.New("artifact status not wired"))
		return
	}
	q := r.URL.Query()
	req := JobRequest{Scale: q.Get("scale")}
	if req.Scale == "" {
		writeError(w, http.StatusBadRequest, errors.New("artifact request: scale query parameter is required"))
		return
	}
	if seed := q.Get("seed"); seed != "" {
		v, err := strconv.ParseUint(seed, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("artifact request: seed: %w", err))
			return
		}
		req.Seed = v
	}
	if ov := q.Get("overrides"); ov != "" {
		req.Overrides = json.RawMessage(ov)
	}
	st, err := s.b.ArtifactStatus(r.PathValue("name"), req)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrUnknownArtifact) {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{"status": "ok"}
	if s.b.Fleet != nil {
		resp["workers"] = len(s.b.Fleet().Workers)
	}
	writeJSON(w, http.StatusOK, resp)
}

// StatsReport is the /v1/stats payload.
type StatsReport struct {
	Counters
	UptimeSeconds float64          `json:"uptime_seconds"`
	Jobs          int              `json:"jobs"`
	Inflight      int              `json:"inflight"`
	Fleet         *coord.PoolStats `json:"fleet,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	rep := StatsReport{Counters: s.counters, Jobs: len(s.jobs), Inflight: len(s.inflight),
		UptimeSeconds: time.Since(s.start).Seconds()}
	s.mu.Unlock()
	if s.b.Fleet != nil {
		fl := s.b.Fleet()
		rep.Fleet = &fl
	}
	writeJSON(w, http.StatusOK, rep)
}

// workersRequest mutates the fleet: {"add":N} joins N workers,
// {"remove":ID} dismisses one.
type workersRequest struct {
	Add    int  `json:"add,omitempty"`
	Remove *int `json:"remove,omitempty"`
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	var req workersRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, MaxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("workers request: %w", err))
		return
	}
	switch {
	case req.Add > 0 && req.Remove == nil && s.b.AddWorker != nil:
		ids := make([]int, 0, req.Add)
		for i := 0; i < req.Add; i++ {
			id, err := s.b.AddWorker()
			if err != nil {
				writeError(w, http.StatusInternalServerError, err)
				return
			}
			ids = append(ids, id)
		}
		writeJSON(w, http.StatusOK, map[string]any{"added": ids})
	case req.Remove != nil && req.Add == 0 && s.b.RemoveWorker != nil:
		if err := s.b.RemoveWorker(*req.Remove); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"removed": *req.Remove})
	default:
		writeError(w, http.StatusBadRequest,
			errors.New(`workers request: exactly one of {"add":N} or {"remove":ID}`))
	}
}

func (s *Server) handleShutdown(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "shutting down"})
	if s.b.Shutdown != nil {
		s.shutdown.Do(func() { go s.b.Shutdown() })
	}
}
