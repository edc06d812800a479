package bulkpim

// Distributed pipeline, built on the registry's plan/report split:
//
//	coordinator:  pimbench plan -exp all -scale full        (manifest)
//	shard i:      pimbench run -exp all -scale full -shard i/n -cache-dir d_i
//	coordinator:  pimbench merge -o merged d_0 ... d_{n-1}
//	coordinator:  pimbench -exp all -scale full -cache-dir merged
//
// Planning is deterministic, so every machine derives the same job
// manifest from the same options; the -shard filter is a stable hash
// of the job key, so the shards partition the suite exactly; merging
// is validated concatenation of the shards' result caches; and the
// final report pass runs entirely from cache hits, byte-identical to
// a single-process run.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"bulkpim/internal/resultcache"
	"bulkpim/internal/runner"
)

// PlannedJob is one manifest entry of a plan pass: the identity an
// external scheduler needs to route the job (shard assignment hashes
// Key) and the result cache needs to recognize its outcome
// (Key + Fingerprint).
type PlannedJob struct {
	Experiment  string `json:"experiment"`
	Key         string `json:"key"`
	Fingerprint string `json:"fingerprint"`
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
// they carry identical keys and fingerprints, so schedulers and shards
// recognize them as one unit of work. No simulation work is executed.
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
// is the one dedup rule every executor shares: the in-process executor
// (execute), the coordinator and the serve daemon all run one
// simulation per group and fan its result out to the group's keys.
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

// ownedFingerprints is the one dedup-then-assign ownership rule of the
// distributed pipeline, shared by FilterManifest and ExecuteShard so
// `plan -shard` can never disagree with what `run -shard` executes:
// manifest entries are grouped by fingerprint (one group = one
// distinct simulation) and the group's first key in plan order — the
// canonical owner, deterministic on every machine — picks the shard.
// The returned map holds every fingerprint, true iff this shard owns
// its group.
func (s Shard) ownedFingerprints(manifest []PlannedJob) map[string]bool {
	owned := map[string]bool{}
	for _, j := range manifest {
		if _, ok := owned[j.Fingerprint]; !ok {
			owned[j.Fingerprint] = s.Owns(j.Key)
		}
	}
	return owned
}

// FilterManifest returns the manifest entries a shard is responsible
// for: every entry of an owned fingerprint group, canonical and
// aliases alike, since the owning shard executes the simulation and
// writes all of the group's cache entries. The filtered manifests of
// all n shards therefore partition the full manifest and agree exactly
// with what `run -shard i/n` executes and produces.
func FilterManifest(manifest []PlannedJob, shard Shard) []PlannedJob {
	if shard.Count <= 1 {
		return manifest
	}
	owned := shard.ownedFingerprints(manifest)
	var out []PlannedJob
	for _, j := range manifest {
		if owned[j.Fingerprint] {
			out = append(out, j)
		}
	}
	return out
}

// Shard selects a 1/n slice of a planned suite by stable hash of the
// job key (runner.ShardOf): at a given Count, every key belongs to
// exactly one Index, independent of plan order, experiment mix, or the
// machine doing the planning — so independently planned shards
// partition the suite exactly. Count <= 1 owns every key.
type Shard struct {
	Index, Count int
}

// ParseShard parses "i/n" (0 <= i < n). Trailing junk is rejected —
// a mistyped spec must fail loudly, not silently run a wrong
// partition.
func ParseShard(s string) (Shard, error) {
	idx, count, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("shard %q: want i/n (e.g. 0/4)", s)
	}
	var sh Shard
	var err1, err2 error
	sh.Index, err1 = strconv.Atoi(idx)
	sh.Count, err2 = strconv.Atoi(count)
	if err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("shard %q: want i/n (e.g. 0/4)", s)
	}
	if sh.Count < 1 || sh.Index < 0 || sh.Index >= sh.Count {
		return Shard{}, fmt.Errorf("shard %q: want 0 <= i < n", s)
	}
	return sh, nil
}

func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// Owns reports whether key belongs to this shard.
func (s Shard) Owns(key string) bool {
	return s.Count <= 1 || runner.ShardOf(key, s.Count) == s.Index
}

// ShardSummary accounts one execute-only shard run.
type ShardSummary struct {
	// Planned counts the suite's manifest entries; Distinct the unique
	// simulations (one per fingerprint) after dedup; Owned the distinct
	// simulations this shard executed; Aliased the additional keys
	// those simulations were planned under, whose cache entries are
	// written from the one result.
	Planned, Distinct, Owned, Aliased int
	// Jobs is the executed batch's runner accounting.
	Jobs JobSummary
}

func (s ShardSummary) String() string {
	return fmt.Sprintf("%d owned of %d distinct jobs (%d planned, %d aliases): %s",
		s.Owned, s.Distinct, s.Planned, s.Aliased, s.Jobs)
}

// ExecuteShard is the worker half of a distributed run: it plans the
// named experiment ("all" for the suite), deduplicates the planned
// jobs down to distinct simulations, filters to the shard's slice, and
// executes exactly those — building no reports. Results land in
// opts.Cache (set one: an execute-only run without a cache computes
// results and drops them), whose file the coordinator later merges and
// reports from. With Shard{0, 1} it executes the whole suite — a cache
// pre-warmer. With opts.Snapshots set, the shard's workloads are
// loaded from (and published to) the content-addressed snapshot store,
// so shards sharing a filesystem generate each database at most once
// between them instead of once per shard process.
//
// Dedup is by fingerprint, not key: the fingerprint content-addresses
// the simulation (final config + workload identity), so equal
// fingerprints under different keys — fig9-ycsb, the ablation
// baseline, the sbsize/multimod default geometries and the largest
// grid point all describe the same run of the suite's most expensive
// simulation — execute once. Ownership follows ownedFingerprints (the
// rule FilterManifest shares); the group's non-canonical keys become
// aliases whose cache entries are written from the one result, so the
// coordinator's report pass still hits on every planned key.
func ExecuteShard(name string, opts Options, shard Shard) (ShardSummary, error) {
	groups, manifest, err := planGroups(name, opts)
	if err != nil {
		return ShardSummary{}, err
	}
	sum := ShardSummary{Planned: len(manifest), Distinct: len(groups)}
	ownedFP := shard.ownedFingerprints(manifest)
	var owned []*fpGroup
	for _, g := range groups {
		if ownedFP[g.fp] {
			owned = append(owned, g)
			sum.Aliased += len(g.keys) - 1
		}
	}
	sum.Owned = len(owned)
	sum.Jobs, err = execute(opts, "shard "+shard.String(), owned, nil)
	return sum, err
}
