package ycsb

import (
	"fmt"

	"bulkpim/internal/cpu"
	"bulkpim/internal/mem"
	"bulkpim/internal/pimdb"
	"bulkpim/internal/sim"
	"bulkpim/internal/system"
)

// Params configures the workload (paper Table III).
type Params struct {
	Records    int // database size; scope count derives from it
	Operations int // paper: 1000
	// ScanFraction of operations are scans, the rest inserts (0.95/0.05).
	ScanFraction float64
	// MaxScanRecords: scan lengths are uniform in [1, MaxScanRecords].
	MaxScanRecords int
	// ExtractField: scans read one text field of each found record.
	Fields     int
	FieldBytes int
	ZipfTheta  float64
	Threads    int // paper: 4 (8 for Fig. 13)
	Seed       uint64
	// Verify compares every read against the oracle (functional runs).
	Verify bool
}

// DefaultParams returns Table III with a given record count.
func DefaultParams(records int) Params {
	return Params{
		Records:        records,
		Operations:     1000,
		ScanFraction:   0.95,
		MaxScanRecords: 100,
		Fields:         5,
		FieldBytes:     10,
		ZipfTheta:      0.99,
		Threads:        4,
		Seed:           1,
	}
}

type opKind uint8

const (
	opScan opKind = iota
	opInsert
)

type opSpec struct {
	kind  opKind
	base  uint64 // scan: first key
	count uint64 // scan: number of keys
	field int    // scan: field to extract
	key   uint64 // insert
	thr   int    // insert: executing thread

	// progs is a scan's op sequence, compiled once; every thread issues
	// it to each of its scopes.
	progs []*mem.PIMProgram

	// matches caches scope -> matched (key, localPos) pairs.
	matches map[mem.ScopeID][]match
}

type match struct {
	key uint64
	pos int // position within the scope (array*rows + row)
}

// Workload is one generated YCSB run, shared by all models so every
// configuration measures the identical operation sequence ("For all scope
// counts and all models, the same sequence of scans and insertions was
// measured", §VI-B).
type Workload struct {
	P      Params
	Layout pimdb.Layout
	Scopes int
	ops    []*opSpec

	// Key -> position permutation: records are randomly distributed so
	// scan results spread evenly across scopes (§VI-B).
	permA, permC uint64

	inserted int // next insert slot (appended after initial records)
}

// ScopeCount returns the scope count a workload with these params
// occupies. It depends only on the record count, layout and thread
// count — not the operation sequence — so plan and report passes can
// derive a sweep's x axis without generating any workload.
func ScopeCount(p Params) int {
	rps := pimdb.DefaultLayout().RecordsPerScope()
	scopes := (p.Records + rps - 1) / rps
	if scopes < p.Threads {
		scopes = p.Threads // at least one scope per thread
	}
	return scopes
}

// New generates the operation sequence for p.
func New(p Params) *Workload {
	// Scan bases are drawn below Records-MaxScanRecords, so a scan
	// covers initial keys only; that bound must not wrap below zero.
	if p.Records <= 0 || p.Operations <= 0 || p.Threads <= 0 ||
		p.MaxScanRecords < 1 || p.Records < p.MaxScanRecords {
		panic("ycsb: bad params")
	}
	w := &Workload{P: p, Layout: pimdb.DefaultLayout()}
	w.Scopes = ScopeCount(p)
	// A fixed multiplicative permutation pos = (key*a + c) mod N, bijective
	// because gcd(a, N) = 1. a is pre-reduced mod N so key*a never
	// overflows (records < 2^31, so the product stays below 2^62).
	n := uint64(p.Records)
	w.permA = (0x9E3779B97F4A7C15 % n) | 1
	for gcd(w.permA, n) != 1 {
		w.permA += 2
	}
	w.permC = 0xD1B54A32D192ED03 % n

	rng := sim.NewRand(p.Seed)
	zipf := NewZipf(max(1, n-uint64(p.MaxScanRecords)), p.ZipfTheta)
	nextInsert := n
	for i := 0; i < p.Operations; i++ {
		if rng.Float64() < p.ScanFraction {
			count := uint64(rng.Intn(p.MaxScanRecords)) + 1
			base := zipf.Next(rng)
			op := &opSpec{kind: opScan, base: base, count: count, field: rng.Intn(p.Fields)}
			lo, hi := op.keyRange()
			op.progs = w.Layout.CompileRangeScan(lo, hi)
			w.ops = append(w.ops, op)
		} else {
			w.ops = append(w.ops, &opSpec{
				kind: opInsert, key: nextInsert, thr: i % p.Threads,
			})
			nextInsert++
		}
	}
	return w
}

// keyRange is the stored-key range a scan matches. Keys are stored +1
// so the all-zero image of an empty row can never match a scan (0 is the
// "invalid record" sentinel).
func (op *opSpec) keyRange() (lo, hi uint64) { return op.base + 1, op.base + op.count }

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Position maps a key to its global record position. Initial keys are
// permuted across the database; inserted keys append.
func (w *Workload) Position(key uint64) int {
	n := uint64(w.P.Records)
	if key < n {
		return int((key*w.permA + w.permC) % n)
	}
	return w.P.Records + int(key-n)
}

// FieldByte is the deterministic content generator for record fields: the
// oracle for functional verification.
func FieldByte(key uint64, field, i int) byte {
	x := key*0x9E3779B97F4A7C15 + uint64(field)*0xBF58476D1CE4E5B9 + uint64(i)*0x94D049BB133111EB
	x ^= x >> 31
	return byte(x)
}

// recordFields builds the field payloads of a record.
func (w *Workload) recordFields(key uint64) [][]byte {
	fields := make([][]byte, w.P.Fields)
	for f := range fields {
		fields[f] = make([]byte, w.P.FieldBytes)
		for i := range fields[f] {
			fields[f][i] = FieldByte(key, f, i)
		}
	}
	return fields
}

// InitBacking writes the initial database image (functional runs). Keys
// are stored +1: the all-zero image of an unoccupied row must never match
// a scan.
func (w *Workload) InitBacking(bk *mem.Backing, scopes *mem.ScopeMap) {
	for key := uint64(0); key < uint64(w.P.Records); key++ {
		pos := w.Position(key)
		scope := w.Layout.ScopeOfRecord(pos)
		base := scopes.ScopeBase(scope)
		w.Layout.WriteRecord(bk, base, pos%w.Layout.RecordsPerScope(), key+1, w.recordFields(key))
	}
}

// Run builds a system for cfg, initializes the database when functional,
// and executes the workload through system.RunOnce.
func Run(w *Workload, cfg system.Config) (system.Result, error) {
	return system.RunOnce(w.SystemConfig(cfg), func(s *system.System) []cpu.Thread {
		if s.Cfg.Functional {
			w.InitBacking(s.Backing, s.Scopes)
		}
		return w.Threads(s)
	})
}

// Precompute materializes every scan op's lazily-built match cache.
// The cache is otherwise filled during the first run that touches it,
// which would race when one workload is shared by concurrent runs;
// after Precompute the workload is read-only and safe to share across
// parallel model variants. Idempotent.
func (w *Workload) Precompute() {
	for _, op := range w.ops {
		if op.kind == opScan {
			w.matchesInScope(op, 0)
		}
	}
}

// matchesInScope returns (cached) matches of a scan op inside one scope.
func (w *Workload) matchesInScope(op *opSpec, scope mem.ScopeID) []match {
	if op.matches == nil {
		op.matches = make(map[mem.ScopeID][]match)
		for k := op.base; k < op.base+op.count; k++ {
			pos := w.Position(k)
			s := w.Layout.ScopeOfRecord(pos)
			op.matches[s] = append(op.matches[s], match{key: k, pos: pos % w.Layout.RecordsPerScope()})
		}
	}
	return op.matches[scope]
}

// expectedResultLine builds the oracle bit-vector line for data array a of
// a scope under a scan op.
func (w *Workload) expectedResultLine(op *opSpec, scope mem.ScopeID, array int) []byte {
	line := make([]byte, mem.LineSize)
	for _, m := range w.matchesInScope(op, scope) {
		a, r := w.Layout.Slot(m.pos)
		if a == array {
			pimdb.SetResultBit(line, r, true)
		}
	}
	return line
}

// Validate sanity-checks workload structure (used by tests).
func (w *Workload) Validate() error {
	scans, inserts := 0, 0
	for _, op := range w.ops {
		switch op.kind {
		case opScan:
			scans++
			if op.count == 0 || op.count > uint64(w.P.MaxScanRecords) {
				return fmt.Errorf("scan count %d out of range", op.count)
			}
		case opInsert:
			inserts++
		}
	}
	if scans+inserts != w.P.Operations {
		return fmt.Errorf("op count mismatch")
	}
	return nil
}

// Ops returns (scans, inserts) counts.
func (w *Workload) Ops() (scans, inserts int) {
	for _, op := range w.ops {
		if op.kind == opScan {
			scans++
		} else {
			inserts++
		}
	}
	return
}

// SystemConfig returns the system configuration for this workload under a
// model: Default() with the scope count the database needs.
func (w *Workload) SystemConfig(base system.Config) system.Config {
	base.ScopeCount = w.Scopes
	base.Functional = w.P.Verify
	return base
}
