package bulkpim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"bulkpim/internal/resultcache"
)

// PlannedJob is one manifest entry of a plan pass: the identity an
// external scheduler needs to route the job and the result cache needs
// to recognize its outcome (Key + Fingerprint).
type PlannedJob struct {
	Experiment  string `json:"experiment"`
	Key         string `json:"key"`
	Fingerprint string `json:"fingerprint"`
}

// SimJob is the declarative spec of one planned grid point: a stable
// key, a base machine configuration, an optional Config mutator (model
// selection, ablation switches), and an Execute that builds a fresh
// System for the final config and runs the workload the closure shares
// read-only with its siblings. Extra carries workload identity the
// Config cannot see — operation counts, seeds, query scale — and is
// folded into the cache fingerprint; omitting it for a sweep whose
// workload varies outside the Config would let differently-shaped runs
// alias in the result cache. ExperimentSpec.Plan returns them.
type SimJob struct {
	Key     string
	Base    Config
	Mutate  func(*Config)
	Execute func(Config) (Result, error)
	Extra   string
}

// FingerprintID content-addresses the point: a digest of the final
// (mutated) Config plus the Extra workload identity. Mutate must be a
// pure field-setter — it is applied to a fresh copy of Base here and
// again at run time. TraceWriter is excluded: tracing is observational
// and its sink is not part of the simulated machine.
func (j SimJob) FingerprintID() string {
	cfg := j.finalConfig()
	cfg.TraceWriter = nil
	return resultcache.Fingerprint(cfg, j.Extra)
}

func (j SimJob) finalConfig() Config {
	cfg := j.Base
	if j.Mutate != nil {
		j.Mutate(&cfg)
	}
	return cfg
}

// Run executes the point on a fresh copy of its final config, so
// Mutate never leaks across points.
func (j SimJob) Run() (Result, error) {
	if j.Execute == nil {
		return Result{}, errors.New("nil Execute")
	}
	return j.Execute(j.finalConfig())
}

// plannedExperiment pairs an experiment with its planned jobs.
type plannedExperiment struct {
	name string
	jobs []SimJob
}

// planFor plans the named experiment — or, for "all", every standalone
// experiment in canonical order. Table-only experiments plan zero
// jobs. No simulation work is executed.
func planFor(name string, opts Options) ([]plannedExperiment, error) {
	name = strings.ToLower(name)
	var specs []ExperimentSpec
	if name == "all" {
		specs = registry
	} else {
		spec, ok := LookupExperiment(name)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (have %v)", name, Experiments())
		}
		specs = []ExperimentSpec{spec}
	}
	var out []plannedExperiment
	for _, spec := range specs {
		p := plannedExperiment{name: spec.Name}
		if spec.Plan != nil {
			jobs, err := spec.Plan(opts)
			if err != nil {
				return nil, fmt.Errorf("%s: plan: %w", spec.Name, err)
			}
			p.jobs = jobs
		}
		out = append(out, p)
	}
	return out, nil
}

// Manifest plans the named experiment ("all" for the whole suite) and
// returns one entry per job, in deterministic order: experiments in
// canonical suite order, jobs in plan order. Grid points that several
// experiments share (the Naive baselines) appear once per experiment —
// they carry identical keys and fingerprints, so schedulers recognize
// them as one unit of work. No simulation work is executed.
func Manifest(name string, opts Options) ([]PlannedJob, error) {
	planned, err := planFor(name, opts)
	if err != nil {
		return nil, err
	}
	// Non-nil even for job-less experiments: the -json form must be an
	// empty array, not null.
	out := []PlannedJob{}
	for _, p := range planned {
		for _, j := range p.jobs {
			out = append(out, PlannedJob{
				Experiment:  p.name,
				Key:         j.Key,
				Fingerprint: j.FingerprintID(),
			})
		}
	}
	return out, nil
}

// ManifestVersion identifies the `plan -json` envelope format. Bump it
// whenever the envelope shape changes: ParseManifest rejects foreign
// versions loudly, so a manifest saved by an incompatible build can
// never feed a diff that silently reports nothing to do.
const ManifestVersion = "bulkpim-manifest-v1"

// ManifestEnvelope is the stable schema-versioned wrapper `plan -json`
// emits: the manifest itself plus everything a later diff needs to
// judge compatibility — the envelope version, the result-cache schema
// version the fingerprints were computed under, the tool build stamp,
// and the plan's identity (experiment, scale, seed).
type ManifestEnvelope struct {
	Version    string       `json:"manifest_version"`
	Schema     string       `json:"schema_version"`
	Build      string       `json:"build,omitempty"`
	Experiment string       `json:"experiment"`
	Scale      string       `json:"scale"`
	Seed       uint64       `json:"seed"`
	Jobs       []PlannedJob `json:"jobs"`
}

// NewManifestEnvelope wraps planned jobs in the current envelope.
// build is the emitting tool's build stamp (may be empty).
func NewManifestEnvelope(name string, opts Options, build string, jobs []PlannedJob) ManifestEnvelope {
	if jobs == nil {
		jobs = []PlannedJob{}
	}
	return ManifestEnvelope{
		Version:    ManifestVersion,
		Schema:     resultcache.SchemaVersion,
		Build:      build,
		Experiment: strings.ToLower(name),
		Scale:      string(opts.Scale),
		Seed:       opts.Seed,
		Jobs:       jobs,
	}
}

// ParseManifest decodes a saved `plan -json` envelope. Legacy bare
// JSON arrays (pre-envelope builds) and foreign envelope versions are
// rejected loudly — an incompatible saved manifest must fail the diff,
// never shrink it to an empty one.
func ParseManifest(data []byte) (ManifestEnvelope, error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return ManifestEnvelope{}, errors.New("manifest: empty file")
	}
	if trimmed[0] == '[' {
		return ManifestEnvelope{}, errors.New(
			"manifest: bare JSON array without an envelope — saved by an older pimbench build; re-plan with this build before diffing")
	}
	var env ManifestEnvelope
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return ManifestEnvelope{}, fmt.Errorf("manifest: %w", err)
	}
	if env.Version == "" {
		return ManifestEnvelope{}, errors.New(
			"manifest: missing manifest_version — saved by an older pimbench build; re-plan with this build before diffing")
	}
	if env.Version != ManifestVersion {
		return ManifestEnvelope{}, fmt.Errorf(
			"manifest: version %q, this build reads %q — re-plan with this build before diffing",
			env.Version, ManifestVersion)
	}
	return env, nil
}

// ManifestDiff is a prior manifest diffed against the current plan, at
// fingerprint granularity: the fingerprint content-addresses the
// simulation, so a config or code edit invalidates exactly the
// fingerprints it shifts. The alias keys of one fingerprint group
// travel together — an invalidated group re-plans all of its manifest
// entries, an unchanged group none — mirroring how the executors
// dedup work by fingerprint.
type ManifestDiff struct {
	// Invalidated lists the current manifest entries whose fingerprint
	// the prior manifest does not contain — exactly the subset a re-run
	// has to execute (everything else is a warm cache hit).
	Invalidated []PlannedJob
	// Removed lists the prior entries whose fingerprint the current
	// plan no longer produces (grid points dropped by the edit); they
	// are reported, never silently discarded.
	Removed []PlannedJob
	// Unchanged counts current entries whose fingerprint carries over;
	// InvalidatedGroups/UnchangedGroups count distinct fingerprints.
	Unchanged         int
	InvalidatedGroups int
	UnchangedGroups   int
	// SchemaChanged reports a result-cache schema-version mismatch
	// between the manifests: every cached result is unreadable by this
	// build, so every current fingerprint is invalidated regardless of
	// overlap.
	SchemaChanged bool
}

// DiffManifests diffs a prior envelope against the current one. Both
// sides must already have passed ParseManifest's version gate.
func DiffManifests(old, cur ManifestEnvelope) ManifestDiff {
	d := ManifestDiff{SchemaChanged: old.Schema != cur.Schema}
	oldFPs := map[string]bool{}
	for _, j := range old.Jobs {
		oldFPs[j.Fingerprint] = true
	}
	curFPs := map[string]bool{}
	invalidFPs := map[string]bool{}
	keptFPs := map[string]bool{}
	for _, j := range cur.Jobs {
		curFPs[j.Fingerprint] = true
		if d.SchemaChanged || !oldFPs[j.Fingerprint] {
			d.Invalidated = append(d.Invalidated, j)
			if !invalidFPs[j.Fingerprint] {
				invalidFPs[j.Fingerprint] = true
				d.InvalidatedGroups++
			}
			continue
		}
		d.Unchanged++
		if !keptFPs[j.Fingerprint] {
			keptFPs[j.Fingerprint] = true
			d.UnchangedGroups++
		}
	}
	for _, j := range old.Jobs {
		if !curFPs[j.Fingerprint] {
			d.Removed = append(d.Removed, j)
		}
	}
	return d
}

// Summary renders the one-line accounting `plan -diff` prints.
func (d ManifestDiff) Summary() string {
	s := fmt.Sprintf("%d invalidated (%d fingerprints), %d unchanged (%d fingerprints), %d removed",
		len(d.Invalidated), d.InvalidatedGroups, d.Unchanged, d.UnchangedGroups, len(d.Removed))
	if d.SchemaChanged {
		s += " [schema version changed: every fingerprint invalidated]"
	}
	return s
}

// fpGroup is one distinct simulation of a planned suite: the job to
// execute (the canonical, first-in-plan-order instance), its
// fingerprint, and every distinct key the suite plans it under
// (canonical first — the rest are aliases whose cache entries are
// written from the one result).
type fpGroup struct {
	job  SimJob
	fp   string
	keys []string
}

// dedupPlan groups a planned suite by fingerprint — the content
// address, so equal fingerprints under different keys describe the
// same simulation — and returns the groups in plan order alongside the
// flat manifest. It computes each job's fingerprint exactly once. This
// is the one dedup rule every run shares: local runs, the coordinator
// (both through execute) and the serve daemon all run one simulation
// per group and fan its result out to the group's keys.
func dedupPlan(planned []plannedExperiment) (groups []*fpGroup, manifest []PlannedJob) {
	byFP := map[string]*fpGroup{}
	seen := map[string]bool{}
	for _, p := range planned {
		for _, j := range p.jobs {
			fp := j.FingerprintID()
			manifest = append(manifest, PlannedJob{Experiment: p.name, Key: j.Key, Fingerprint: fp})
			id := j.Key + "\x00" + fp
			if seen[id] {
				continue
			}
			seen[id] = true
			g, ok := byFP[fp]
			if !ok {
				g = &fpGroup{job: j, fp: fp}
				byFP[fp] = g
				groups = append(groups, g)
			}
			g.keys = append(g.keys, j.Key)
		}
	}
	return groups, manifest
}

// planGroups plans the named experiment ("all" for the suite) and
// dedups it. The planned jobs themselves are not kept: each group
// holds only its canonical job, and the executor drops that once the
// group settles.
func planGroups(name string, opts Options) ([]*fpGroup, []PlannedJob, error) {
	planned, err := planFor(name, opts)
	if err != nil {
		return nil, nil, err
	}
	groups, manifest := dedupPlan(planned)
	return groups, manifest, nil
}
