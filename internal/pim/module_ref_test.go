package pim

import (
	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
	"bulkpim/internal/stats"
	"bulkpim/internal/trace"
)

// refModule is the retained reference for Module's scheduling: one
// arrival-ordered buffer rescanned on every arrival and completion, a
// scope→op map of executing ops, and a scratch set rebuilt per arrival to
// count the buffer's distinct scopes. It is the specification the
// per-scope FIFO design must match observable for observable
// (TestModuleDifferential), and BenchmarkModuleRef measures the cost the
// rewrite removes. Functional execution is omitted: it does not affect
// scheduling.
type refModule struct {
	k *sim.Kernel

	BufferSize       int
	CyclesPerMicroOp sim.Tick
	FixedOpLatency   sim.Tick
	ZeroLatency      bool

	OnComplete func(req *mem.Request)
	OnSpace    func()
	Tracer     *trace.Tracer

	buffer     []*mem.Request
	executing  map[mem.ScopeID]*mem.Request
	scopeSeen  map[mem.ScopeID]struct{}
	completeFn func(any)

	BufLenOnArrival   stats.Mean
	UniqueScopesOnArr stats.Mean
	ExecCycles        stats.Mean
	OpsExecuted       stats.Counter
	PeakBuffer        int
}

// newRefModule builds a reference module with NewModule's defaults.
func newRefModule(k *sim.Kernel) *refModule {
	m := &refModule{
		k:                k,
		BufferSize:       128,
		CyclesPerMicroOp: 360,
		FixedOpLatency:   720,
		executing:        make(map[mem.ScopeID]*mem.Request),
		scopeSeen:        make(map[mem.ScopeID]struct{}),
	}
	m.completeFn = func(x any) { m.complete(x.(*mem.Request)) }
	return m
}

func (m *refModule) ScopeBusy(s mem.ScopeID) bool {
	_, busy := m.executing[s]
	return busy
}

func (m *refModule) BufferLen() int { return len(m.buffer) }

func (m *refModule) InFlight() int { return len(m.buffer) + len(m.executing) }

func (m *refModule) uniqueScopes() int {
	clear(m.scopeSeen)
	for _, r := range m.buffer {
		m.scopeSeen[r.Scope] = struct{}{}
	}
	return len(m.scopeSeen)
}

func (m *refModule) TryEnqueue(req *mem.Request) bool {
	if m.BufferSize > 0 && len(m.buffer) >= m.BufferSize {
		return false
	}
	m.BufLenOnArrival.Observe(float64(len(m.buffer)))
	m.UniqueScopesOnArr.Observe(float64(m.uniqueScopes()))
	m.buffer = append(m.buffer, req)
	if len(m.buffer) > m.PeakBuffer {
		m.PeakBuffer = len(m.buffer)
	}
	m.tryStart()
	return true
}

// tryStart launches the oldest buffered op of every idle scope.
func (m *refModule) tryStart() {
	freed := false
	kept := m.buffer[:0]
	for _, req := range m.buffer {
		if _, busy := m.executing[req.Scope]; busy {
			kept = append(kept, req)
			continue
		}
		m.executing[req.Scope] = req
		freed = true
		if m.Tracer.Enabled(trace.CatPIM) {
			name := ""
			if req.Prog != nil {
				name = req.Prog.Name
			}
			m.Tracer.Emit(trace.CatPIM, "pim", "start scope=%d op=%s buffered=%d", req.Scope, name, len(m.buffer))
		}
		m.k.ScheduleCtx(m.execLatency(req), m.completeFn, req)
	}
	m.buffer = kept
	if freed && m.OnSpace != nil {
		m.OnSpace()
	}
}

func (m *refModule) execLatency(req *mem.Request) sim.Tick {
	if m.ZeroLatency {
		return 0
	}
	micro := 0
	if req.Prog != nil {
		micro = req.Prog.MicroOps
	}
	return m.FixedOpLatency + sim.Tick(micro)*m.CyclesPerMicroOp
}

func (m *refModule) complete(req *mem.Request) {
	if m.Tracer.Enabled(trace.CatPIM) {
		m.Tracer.Emit(trace.CatPIM, "pim", "complete scope=%d", req.Scope)
	}
	m.ExecCycles.Observe(float64(m.execLatency(req)))
	m.OpsExecuted.Inc()
	delete(m.executing, req.Scope)
	if m.OnComplete != nil {
		m.OnComplete(req)
	}
	m.tryStart()
}
