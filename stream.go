package bulkpim

// Streaming reports: instead of one batch report after the last job of
// the last experiment, each declared artifact (registry.go) is
// rendered and emitted the moment its final job settles. The machinery
// is split in two — reportStream is the per-artifact remaining-key
// countdown fed by the executor's settlements (fanOut), and
// streamAssembler reorders the resulting emissions into canonical
// report order. streamRun wires both onto one execute run; it is the
// only way a report is produced, local (StreamReport) or coordinated
// (Coordinate), so every run prints the same bytes.

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// StreamEmit is one streamed artifact emission: the artifact's report
// items and their rendered output (or its render error) the instant
// its last planned job settled. Seq numbers emissions in settle order
// across the whole stream, starting at 0 — the order artifacts became
// ready, which varies run to run, unlike the canonical order an
// assembler writes.
type StreamEmit struct {
	Experiment string
	Artifact   string
	Seq        int
	Items      []ReportItem
	Output     string
	Err        error
}

// streamArtifact is one artifact's countdown state; err joins the
// failures of the jobs among its keys.
type streamArtifact struct {
	spec      ExperimentSpec
	name      string
	remaining map[string]struct{}
	done      bool
	err       error
}

// reportStream tracks per-artifact remaining-key countdowns over
// settling job results and emits each artifact — rendered from results
// alone — the moment its last key settles. Settle is safe for
// concurrent use; emissions are serialized under one mutex. A key is
// honored at most once stream-wide: the suite's key→fingerprint
// mapping is coherent (a key always denotes the same simulation, see
// TestManifestKeyFingerprintCoherent), so the first settlement of a
// shared key — the Naive baselines several experiments plan — answers
// every artifact listening on it.
type reportStream struct {
	opts Options
	emit func(StreamEmit)

	mu      sync.Mutex
	rs      *ResultSet
	settled map[string]bool
	byKey   map[string][]*streamArtifact
	seq     int
	pending int
}

// streamSpecs resolves a stream's spec list: the whole registry for
// "all", the owning spec otherwise (a bundled name like fig10 streams
// its owner's full artifact list, matching RunExperiment).
func streamSpecs(name string) ([]ExperimentSpec, error) {
	if strings.ToLower(name) == "all" {
		return registry, nil
	}
	spec, ok := LookupExperiment(name)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q (have %v)", name, Experiments())
	}
	return []ExperimentSpec{spec}, nil
}

// newReportStream builds the countdown tracker for the named
// experiment ("all" for the suite) and immediately emits every
// jobless artifact — the static tables are renderable before any job
// runs, so they stream out at construction.
func newReportStream(name string, opts Options, emit func(StreamEmit)) (*reportStream, error) {
	specs, err := streamSpecs(name)
	if err != nil {
		return nil, err
	}
	s := &reportStream{
		opts:    opts,
		emit:    emit,
		rs:      &ResultSet{byKey: map[string]Result{}},
		settled: map[string]bool{},
		byKey:   map[string][]*streamArtifact{},
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, spec := range specs {
		for _, a := range spec.Artifacts(opts) {
			sa := &streamArtifact{spec: spec, name: a.Name,
				remaining: make(map[string]struct{}, len(a.Keys))}
			for _, k := range a.Keys {
				sa.remaining[k] = struct{}{}
				s.byKey[k] = append(s.byKey[k], sa)
			}
			s.pending++
			if len(sa.remaining) == 0 {
				s.finish(sa)
			}
		}
	}
	return s, nil
}

// Settle records one settled job under its key: a result (jobErr nil)
// or a failure. Repeat settlements of a key are ignored. Every
// artifact whose last outstanding key this was is rendered and emitted
// before Settle returns. A failed job still counts down, so a stream
// always terminates, and it fails every artifact listening on its key:
// such an artifact emits its failed jobs' errors instead of a render,
// and assemblers skip it.
func (s *reportStream) Settle(key string, r Result, jobErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.settled[key] {
		return
	}
	s.settled[key] = true
	if jobErr == nil {
		s.rs.byKey[key] = r
	}
	for _, sa := range s.byKey[key] {
		if sa.done {
			continue
		}
		if jobErr != nil {
			sa.err = errors.Join(sa.err, fmt.Errorf("%s: %w", key, jobErr))
		}
		delete(sa.remaining, key)
		if len(sa.remaining) == 0 {
			s.finish(sa)
		}
	}
}

// finish renders and emits one completed artifact; callers hold s.mu.
func (s *reportStream) finish(sa *streamArtifact) {
	sa.done = true
	e := StreamEmit{Experiment: sa.spec.Name, Artifact: sa.name, Seq: s.seq, Err: sa.err}
	if e.Err == nil {
		e.Items, e.Err = sa.spec.Render(s.opts, sa.name, s.rs)
		e.Output = render(e.Items...)
	}
	s.emit(e)
	s.seq++
	s.pending--
}

// Pending returns the number of artifacts not yet emitted.
func (s *reportStream) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// streamSlot is one artifact's position in the canonical output order.
type streamSlot struct {
	exp      string
	artifact string
	last     bool // last artifact of its experiment (closes it with a blank line)
	ready    bool
	skip     bool
	out      string
}

// streamAssembler reassembles streamed emissions into canonical report
// order, writing incrementally to w: an artifact's bytes go out as
// soon as it and everything before it in declaration order are ready.
// A fully-successful stream therefore produces output byte-identical
// to the batch report — experiment headers included in "all" mode —
// while still appearing figure by figure. An artifact that settled
// with an error is skipped (the run's returned error reports it); in
// "all" mode an experiment's header and closing blank line are written
// only if at least one of its artifacts is.
type streamAssembler struct {
	w   io.Writer
	all bool

	mu    sync.Mutex
	slots []streamSlot
	index map[string]int // experiment+"\x00"+artifact -> slot
	next  int
	open  string // experiment whose header is written and not yet closed
	err   error
}

// newStreamAssembler derives the canonical slot order for the named
// experiment ("all" for the suite) from the registry.
func newStreamAssembler(name string, w io.Writer) (*streamAssembler, error) {
	specs, err := streamSpecs(name)
	if err != nil {
		return nil, err
	}
	a := &streamAssembler{w: w, all: strings.ToLower(name) == "all", index: map[string]int{}}
	for _, spec := range specs {
		names := spec.ArtifactNames()
		for i, an := range names {
			a.index[spec.Name+"\x00"+an] = len(a.slots)
			a.slots = append(a.slots, streamSlot{exp: spec.Name, artifact: an,
				last: i == len(names)-1})
		}
	}
	return a, nil
}

// Observe feeds one emission into the assembler; safe for concurrent
// use. Unknown or repeated (experiment, artifact) pairs are ignored.
func (a *streamAssembler) Observe(e StreamEmit) {
	a.mu.Lock()
	defer a.mu.Unlock()
	i, ok := a.index[e.Experiment+"\x00"+e.Artifact]
	if !ok || a.slots[i].ready {
		return
	}
	a.slots[i].ready = true
	a.slots[i].out = e.Output
	a.slots[i].skip = e.Err != nil
	for a.next < len(a.slots) && a.slots[a.next].ready {
		s := a.slots[a.next]
		a.next++
		if !s.skip {
			if a.all && a.open != s.exp {
				a.write("==== " + s.exp + " ====\n")
				a.open = s.exp
			}
			a.write(s.out)
		}
		if a.all && s.last && a.open == s.exp {
			a.write("\n")
			a.open = ""
		}
	}
}

// write appends to the output, latching the first writer error.
func (a *streamAssembler) write(s string) {
	if a.err != nil {
		return
	}
	_, a.err = io.WriteString(a.w, s)
}

// Err returns the first error the output writer reported, if any.
func (a *streamAssembler) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// StreamReport runs the named experiment ("all" for the suite) on
// in-process workers and streams its report: each artifact is rendered
// and handed to emit the moment its last job settles (emit may be
// nil), while w receives the artifacts' bytes in canonical report
// order, incrementally. RunExperiment(name) returns exactly these
// bytes. With Options.Cache set, only cache misses execute. The whole
// plan is made before any job runs, so a Plan error fails the run up
// front, naming its experiment. Failed jobs fail the artifacts
// listening on them, which w then omits; the returned error names
// every failed artifact and its failed jobs. Timings are the
// per-experiment walls for "all" runs (see ExperimentTiming), nil
// otherwise.
func StreamReport(name string, opts Options, emit func(StreamEmit), w io.Writer) ([]ExperimentTiming, error) {
	timings, sum, err := streamRun(name, opts, emit, w, inProcess)
	if sum.Planned > 0 {
		opts.log("%s: %s", strings.ToLower(name), sum)
	}
	return timings, err
}

// streamRun plans the named experiment ("all" for the suite), runs it
// through execute on x's workers, and streams its report to w and each
// emission to emit (when non-nil). It returns the per-experiment
// timings of an "all" run, the run's accounting, and an error naming
// every failed worker launch, every failed artifact and any error
// writing w.
func streamRun(name string, opts Options, emit func(StreamEmit), w io.Writer, x executor) ([]ExperimentTiming, CoordSummary, error) {
	start := time.Now()
	asm, err := newStreamAssembler(name, w)
	if err != nil {
		return nil, CoordSummary{}, err
	}
	groups, manifest, err := planGroups(name, opts)
	if err != nil {
		return nil, CoordSummary{}, err
	}
	// Emissions are serialized: they run under the stream's lock.
	last := map[string]time.Duration{}
	var failed []error
	observe := func(e StreamEmit) {
		last[e.Experiment] = time.Since(start)
		if e.Err != nil {
			failed = append(failed, fmt.Errorf("%s/%s: %w", e.Experiment, e.Artifact, e.Err))
		}
		asm.Observe(e)
		if emit != nil {
			emit(e)
		}
	}
	stream, err := newReportStream(name, opts, observe)
	if err != nil {
		return nil, CoordSummary{}, err
	}
	// Every planned key belongs to one of its experiment's artifacts
	// (TestArtifactContract), so each job failure reaches failed, named
	// by the artifacts it failed.
	sum, launchErr := execute(opts, groups, stream.Settle, x)
	sum.Planned = len(manifest)

	var timings []ExperimentTiming
	if strings.ToLower(name) == "all" {
		for _, spec := range registry {
			timings = append(timings, ExperimentTiming{Name: spec.Name, Wall: last[spec.Name]})
		}
	}
	if werr := asm.Err(); werr != nil {
		failed = append(failed, fmt.Errorf("stream write: %w", werr))
	}
	return timings, sum, errors.Join(append([]error{launchErr}, failed...)...)
}
