package pim

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
	"bulkpim/internal/trace"
)

// moduleUnderTest is what the differential test and the paired benchmark
// drive: the per-scope FIFO Module or the retained refModule.
type moduleUnderTest interface {
	TryEnqueue(req *mem.Request) bool
	BufferLen() int
	InFlight() int
	ScopeBusy(s mem.ScopeID) bool
}

// moduleConfig configures either implementation identically.
type moduleConfig struct {
	bufferSize       int
	fixedOpLatency   sim.Tick
	cyclesPerMicroOp sim.Tick
	zeroLatency      bool
	tracer           *trace.Tracer
	onComplete       func(*mem.Request)
	onSpace          func()
}

// moduleStats is every statistic both implementations keep.
type moduleStats struct {
	BufSum, UniqSum, ExecSum float64
	BufN, UniqN, ExecN       uint64
	Executed                 uint64
	Peak                     int
}

// buildModule constructs one implementation on k and returns it with a
// reader for its statistics.
type buildModule func(k *sim.Kernel, c moduleConfig) (moduleUnderTest, func() moduleStats)

func buildLive(k *sim.Kernel, c moduleConfig) (moduleUnderTest, func() moduleStats) {
	m := NewModule(k, mem.NewBacking())
	m.BufferSize, m.ZeroLatency = c.bufferSize, c.zeroLatency
	m.FixedOpLatency, m.CyclesPerMicroOp = c.fixedOpLatency, c.cyclesPerMicroOp
	m.Tracer, m.OnComplete, m.OnSpace = c.tracer, c.onComplete, c.onSpace
	return m, func() moduleStats {
		return moduleStats{
			BufSum: m.BufLenOnArrival.Sum(), BufN: m.BufLenOnArrival.Count(),
			UniqSum: m.UniqueScopesOnArr.Sum(), UniqN: m.UniqueScopesOnArr.Count(),
			ExecSum: m.ExecCycles.Sum(), ExecN: m.ExecCycles.Count(),
			Executed: m.OpsExecuted.Value(), Peak: m.PeakBuffer,
		}
	}
}

func buildRef(k *sim.Kernel, c moduleConfig) (moduleUnderTest, func() moduleStats) {
	m := newRefModule(k)
	m.BufferSize, m.ZeroLatency = c.bufferSize, c.zeroLatency
	m.FixedOpLatency, m.CyclesPerMicroOp = c.fixedOpLatency, c.cyclesPerMicroOp
	m.Tracer, m.OnComplete, m.OnSpace = c.tracer, c.onComplete, c.onSpace
	return m, func() moduleStats {
		return moduleStats{
			BufSum: m.BufLenOnArrival.Sum(), BufN: m.BufLenOnArrival.Count(),
			UniqSum: m.UniqueScopesOnArr.Sum(), UniqN: m.UniqueScopesOnArr.Count(),
			ExecSum: m.ExecCycles.Sum(), ExecN: m.ExecCycles.Count(),
			Executed: m.OpsExecuted.Value(), Peak: m.PeakBuffer,
		}
	}
}

// diffCase is one shape of randomized op stream.
type diffCase struct {
	name        string
	bufferSize  int // <= 0 is unbounded
	zeroLatency bool
	scopes      int // ops draw scopes from [NoScope, scopes)
	ops         int
	// reentrant makes OnComplete enqueue a follow-up op directly, before
	// the completing call's own start pass.
	reentrant bool
}

// diffOp is one arrival of the stream.
type diffOp struct {
	scope mem.ScopeID
	micro int
	gap   sim.Tick // cycles after the previous arrival
}

func diffStream(c diffCase, seed uint64) []diffOp {
	rng := sim.NewRand(seed)
	ops := make([]diffOp, c.ops)
	for i := range ops {
		ops[i] = diffOp{scope: mem.ScopeID(rng.Intn(c.scopes+1) - 1), micro: rng.Intn(8)}
		if rng.Intn(2) == 0 { // half the arrivals come in same-cycle bursts
			ops[i].gap = sim.Tick(rng.Intn(20))
		}
	}
	return ops
}

// diffObs is everything observable about one run.
type diffObs struct {
	Trace       []string // start/complete records: tick, scope, op, buffered
	Completions []string // OnComplete order: tick, scope, request
	Probes      []int    // BufferLen, InFlight and busy scopes at every OnComplete
	Spaces      int
	Stats       moduleStats
	Fired       uint64
}

// runDiff drives one implementation with the stream: arrivals land in a
// pending queue that is pumped into the module on arrival and again from
// OnSpace (which nests, since a pumped op can start and free space), and
// a re-entrant case enqueues follow-ups from OnComplete.
func runDiff(t *testing.T, build buildModule, c diffCase, stream []diffOp) diffObs {
	t.Helper()
	k := sim.NewKernel()
	k.EventLimit = 10_000_000
	tr := trace.New(k.Now, nil, 1<<trace.CatPIM, 4*c.ops+16)
	var (
		obs       diffObs
		m         moduleUnderTest
		pending   []*mem.Request
		ph        int
		nextID    int
		followUps int
	)
	mk := func(s mem.ScopeID, micro int) *mem.Request {
		id := nextID
		nextID++
		return &mem.Request{ID: uint64(id), Kind: mem.ReqPIMOp, Scope: s,
			Prog: &mem.PIMProgram{Name: strconv.Itoa(id), MicroOps: micro}}
	}
	pump := func() {
		for ph < len(pending) {
			r := pending[ph]
			ph++ // consume before enqueueing: OnSpace may pump again
			if !m.TryEnqueue(r) {
				ph-- // a rejection starts nothing, so nothing nested ran
				return
			}
		}
	}
	cfg := moduleConfig{
		bufferSize:       c.bufferSize,
		fixedOpLatency:   5,
		cyclesPerMicroOp: 3,
		zeroLatency:      c.zeroLatency,
		tracer:           tr,
		onSpace: func() {
			obs.Spaces++
			pump()
		},
		onComplete: func(r *mem.Request) {
			obs.Completions = append(obs.Completions, fmt.Sprintf("%d %d %d", k.Now(), r.Scope, r.ID))
			busy := 0
			for s := mem.NoScope; s < mem.ScopeID(c.scopes); s++ {
				if m.ScopeBusy(s) {
					busy++
				}
			}
			obs.Probes = append(obs.Probes, m.BufferLen(), m.InFlight(), busy)
			if !c.reentrant || r.ID%3 != 0 || followUps >= c.ops/2 {
				return
			}
			followUps++
			s := r.Scope // same scope: must queue behind its older ops
			if r.ID%2 == 1 {
				s = mem.ScopeID(int(r.ID/2)%(c.scopes+1) - 1)
			}
			if f := mk(s, int(r.ID%5)); !m.TryEnqueue(f) {
				pending = append(pending, f)
			}
		},
	}
	m, stats := build(k, cfg)
	arrive := func(x any) {
		pending = append(pending, x.(*mem.Request))
		pump()
	}
	var at sim.Tick
	for _, op := range stream {
		at += op.gap
		k.ScheduleAtCtx(at, arrive, mk(op.scope, op.micro))
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ph != len(pending) || m.InFlight() != 0 {
		t.Fatalf("ops left behind: %d pending, %d in flight", len(pending)-ph, m.InFlight())
	}
	for _, rec := range tr.Recent() {
		obs.Trace = append(obs.Trace, rec.String())
	}
	if got := uint64(len(obs.Trace)); got != 2*uint64(nextID) || tr.Count() != got {
		t.Fatalf("trace holds %d records (%d emitted), want %d", got, tr.Count(), 2*nextID)
	}
	obs.Stats = stats()
	obs.Fired = k.Fired()
	return obs
}

// TestModuleDifferential drives the per-scope FIFO Module and the retained
// scan-based refModule with the same randomized streams and requires every
// observable to match: the (tick, scope, request) order of starts and
// completions with each start's buffered count, OnSpace calls, BufferLen /
// InFlight / ScopeBusy at every completion, the arrival statistics,
// PeakBuffer and the kernel's fired-event count.
func TestModuleDifferential(t *testing.T) {
	cases := []diffCase{
		{name: "bounded128x64", bufferSize: 128, scopes: 64, ops: 2000},
		{name: "bounded4-colliding", bufferSize: 4, scopes: 3, ops: 500, reentrant: true},
		{name: "bounded1", bufferSize: 1, scopes: 2, ops: 300, reentrant: true},
		{name: "unbounded", bufferSize: 0, scopes: 6, ops: 500, reentrant: true},
		{name: "zero-latency", bufferSize: 8, zeroLatency: true, scopes: 4, ops: 500, reentrant: true},
		{name: "zero-latency-unbounded", bufferSize: 0, zeroLatency: true, scopes: 2, ops: 300},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				stream := diffStream(c, seed)
				got := runDiff(t, buildLive, c, stream)
				want := runDiff(t, buildRef, c, stream)
				if got.Spaces == 0 || len(got.Completions) < c.ops {
					t.Fatalf("seed %d: degenerate run (%d OnSpace, %d completions)", seed, got.Spaces, len(got.Completions))
				}
				if reflect.DeepEqual(got, want) {
					continue
				}
				for i := range min(len(got.Trace), len(want.Trace)) {
					if got.Trace[i] != want.Trace[i] {
						t.Fatalf("seed %d: trace record %d differs:\n got %s\nwant %s", seed, i, got.Trace[i], want.Trace[i])
					}
				}
				t.Fatalf("seed %d: observables differ:\n got %+v %d %d\nwant %+v %d %d", seed,
					got.Stats, got.Spaces, got.Fired, want.Stats, want.Spaces, want.Fired)
			}
		})
	}
}

// TestModuleSteadyStateAllocFree pins the module's arrival and completion
// path at zero allocations: once the node slab, scope table, ready list
// and kernel buckets are warm, draining a full-buffer stream again must
// not allocate.
func TestModuleSteadyStateAllocFree(t *testing.T) {
	drain := newModuleBenchRig(buildLive)
	for i := 0; i < 8; i++ {
		if err := drain(); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if avg := testing.AllocsPerRun(5, func() { err = drain() }); avg != 0 {
		t.Errorf("steady-state module scheduling allocates %.2f allocs/run, want 0", avg)
	}
	if err != nil {
		t.Fatal(err)
	}
}
