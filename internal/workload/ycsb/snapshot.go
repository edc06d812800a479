package ycsb

// Workload snapshot serialization. A generated workload — the op
// sequence plus every scan's Precomputed match cache — is fully
// determined by its Params, but generating it at paper scale costs
// real time per process. Snapshot/FromSnapshot give the content-
// addressed snapshot store (internal/snapshot) a byte form, so fleet
// workers and separate runs sharing a filesystem generate each database at
// most once suite-wide.
//
// The wire form is gob over mirror structs with exported fields
// (Workload's op list and match caches are unexported by design — the
// mirrors are the one sanctioned window into them), prefixed by a wire
// version string so an incompatible change to the structs decodes as
// an explicit error — the caller then regenerates — instead of a
// silently wrong workload.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"

	"bulkpim/internal/mem"
	"bulkpim/internal/pimdb"
)

// wireVersion guards the gob struct shapes below. Bump it whenever
// they (or the semantics of the fields they mirror) change.
const wireVersion = "ycsb-wire-v1"

type wireMatch struct {
	Key uint64
	Pos int
}

type wireOp struct {
	Kind  uint8
	Base  uint64
	Count uint64
	Field int
	Key   uint64
	Thr   int
	// Matches is the scan's Precomputed match cache; nil for inserts.
	Matches map[mem.ScopeID][]wireMatch
}

type wireWorkload struct {
	Version  string
	P        Params
	Layout   pimdb.Layout
	Scopes   int
	PermA    uint64
	PermC    uint64
	Inserted int
	Ops      []wireOp
}

// Snapshot serializes the workload, generated ops and match caches
// included. Call it after Precompute so the snapshot carries the
// frozen, shareable form and loading skips both generation and
// precomputation.
func (w *Workload) Snapshot() ([]byte, error) {
	ww := wireWorkload{
		Version: wireVersion, P: w.P, Layout: w.Layout, Scopes: w.Scopes,
		PermA: w.permA, PermC: w.permC, Inserted: w.inserted,
		Ops: make([]wireOp, len(w.ops)),
	}
	for i, op := range w.ops {
		wo := wireOp{Kind: uint8(op.kind), Base: op.base, Count: op.count,
			Field: op.field, Key: op.key, Thr: op.thr}
		if op.matches != nil {
			wo.Matches = make(map[mem.ScopeID][]wireMatch, len(op.matches))
			for scope, ms := range op.matches {
				wms := make([]wireMatch, len(ms))
				for j, m := range ms {
					wms[j] = wireMatch{Key: m.key, Pos: m.pos}
				}
				wo.Matches[scope] = wms
			}
		}
		ww.Ops[i] = wo
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ww); err != nil {
		return nil, fmt.Errorf("ycsb: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// FromSnapshot reconstructs a workload serialized by Snapshot and
// verifies it was built for p — a snapshot store keyed by a stale or
// colliding identity must never silently substitute another database.
// The returned workload is re-frozen (Precompute) and therefore safe
// to share read-only across parallel model variants, exactly like a
// freshly generated one. Any mismatch — wire version, params — is an
// error; the caller falls back to generation.
func FromSnapshot(data []byte, p Params) (*Workload, error) {
	var ww wireWorkload
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ww); err != nil {
		return nil, fmt.Errorf("ycsb: snapshot decode: %w", err)
	}
	if ww.Version != wireVersion {
		return nil, fmt.Errorf("ycsb: snapshot wire version %q, want %q", ww.Version, wireVersion)
	}
	if !reflect.DeepEqual(ww.P, p) {
		return nil, fmt.Errorf("ycsb: snapshot params %+v do not match requested %+v", ww.P, p)
	}
	w := &Workload{
		P: ww.P, Layout: ww.Layout, Scopes: ww.Scopes,
		permA: ww.PermA, permC: ww.PermC, inserted: ww.Inserted,
		ops: make([]*opSpec, len(ww.Ops)),
	}
	for i, wo := range ww.Ops {
		op := &opSpec{kind: opKind(wo.Kind), base: wo.Base, count: wo.Count,
			field: wo.Field, key: wo.Key, thr: wo.Thr}
		if wo.Matches != nil {
			op.matches = make(map[mem.ScopeID][]match, len(wo.Matches))
			for scope, wms := range wo.Matches {
				ms := make([]match, len(wms))
				for j, wm := range wms {
					ms[j] = match{key: wm.Key, pos: wm.Pos}
				}
				op.matches[scope] = ms
			}
		}
		w.ops[i] = op
	}
	// Gob drops empty maps to nil; re-freeze so every scan's cache is
	// materialized and the workload is read-only under concurrency.
	w.Precompute()
	return w, nil
}
