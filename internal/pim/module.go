package pim

import (
	"fmt"
	"unsafe"

	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
	"bulkpim/internal/stats"
	"bulkpim/internal/trace"
)

// Module is the timed model of the PIM memory card. PIM ops forwarded by
// the memory controller enter a bounded buffer; the module starts the
// oldest buffered op of every idle scope, so different scopes execute fully
// in parallel while ops to one scope serialize in arrival order. The
// bounded buffer is the source of the back-pressure the paper studies
// (Fig. 10a, Fig. 11a).
//
// The buffer is kept as one FIFO per scope, in a dense table indexed by
// ScopeID, whose nodes come from a module-owned slab with a free list.
// Counters track buffered ops, executing ops and scopes with waiting ops,
// and a short ready list holds the scopes that became startable (idle with
// a waiting op) since the last start pass. An arrival or completion
// therefore costs O(1) and allocates nothing at steady state. A start pass
// launches the ready scopes' oldest ops in arrival order, which is the
// order a scan of one arrival-ordered buffer would start them in.
type Module struct {
	k *sim.Kernel

	// BufferSize bounds the op buffer; <= 0 means unbounded (Fig. 11a).
	BufferSize int
	// CyclesPerMicroOp converts a program's micro-op count to CPU cycles.
	CyclesPerMicroOp sim.Tick
	// FixedOpLatency is a per-op floor (decode, array setup).
	FixedOpLatency sim.Tick
	// ZeroLatency forces zero execution time (Fig. 11b).
	ZeroLatency bool
	// Functional executes programs on Backing; otherwise only timing.
	Functional bool
	Backing    *mem.Backing

	// OnComplete fires when an op finishes executing (the memory
	// controller clears its per-scope dependences with it).
	OnComplete func(req *mem.Request)
	// OnSpace fires when buffer space frees.
	OnSpace func()

	// Tracer, when enabled for CatPIM, logs op start and completion.
	Tracer *trace.Tracer

	// buffered, executing and waiting count buffered ops, executing ops
	// and scopes with at least one buffered op.
	buffered, executing, waiting int
	// free is the head of the node slab's free list (-1 when empty).
	free int32

	moduleReuse

	// Stats (names match the figures they feed).
	BufLenOnArrival   stats.Mean // Fig. 10a
	UniqueScopesOnArr stats.Mean // Fig. 10b
	ExecCycles        stats.Mean
	OpsExecuted       stats.Counter
	PeakBuffer        int
}

// moduleReuse is what a released module hands the next module built on
// its struct (Release, NewModule): the hoisted completion callback, which
// names that struct, and the tables its runs grew, emptied.
type moduleReuse struct {
	// scopes is indexed by slot(scope); nodes is the FIFO node slab.
	scopes []scopeState
	nodes  []opNode
	// ready lists the slots of the scopes that are idle with a waiting
	// op, oldest head op first; tryStart empties it. It is born sorted:
	// complete runs as a kernel event, after every earlier module call
	// emptied the list, so it pushes onto an empty list, and TryEnqueue
	// pushes only a scope whose head is the op that just arrived, newer
	// than every other head.
	ready []int32
	// completeFn is the hoisted completion callback (no per-op closure).
	completeFn func(any)
}

// scopeState is one scope's slot: the FIFO of its buffered ops, as node
// slab indices (-1 when empty), and whether it is executing an op.
type scopeState struct {
	head, tail int32
	busy       bool
}

// opNode is one buffered op in its scope's FIFO (or, when free, a link in
// the slab's free list).
type opNode struct {
	req  *mem.Request
	next int32
}

// moduleFree holds released modules.
var moduleFree = sim.NewFreeList[*Module]()

// NewModule builds a module bound to kernel k, on a released module's
// struct and tables when one is free.
func NewModule(k *sim.Kernel, backing *mem.Backing) *Module {
	m, ok := moduleFree.Get(0)
	if !ok {
		m = new(Module)
		m.completeFn = func(x any) { m.complete(x.(*mem.Request)) }
	}
	*m = Module{
		k:                k,
		Backing:          backing,
		BufferSize:       128,
		CyclesPerMicroOp: 360, // ~100ns per array micro-op at 3.6GHz
		FixedOpLatency:   720,
		free:             -1,
		moduleReuse:      m.moduleReuse,
	}
	return m
}

// Release hands m, with the tables its runs grew, to the next NewModule;
// the caller drops m. m must be idle: nothing buffered or executing.
func (m *Module) Release() {
	if n := m.InFlight(); n != 0 {
		panic(fmt.Sprintf("pim: Release of a module with %d ops in flight", n))
	}
	r := m.moduleReuse
	clear(r.nodes)
	r.scopes, r.nodes, r.ready = r.scopes[:0], r.nodes[:0], r.ready[:0]
	*m = Module{moduleReuse: r}
	moduleFree.Put(0, int(unsafe.Sizeof(Module{})), m)
}

// slot maps a scope to its index in m.scopes. NoScope (-1) gets slot 0,
// so ops outside every scope still serialize with one another.
func slot(s mem.ScopeID) int32 { return int32(s) + 1 }

// scope returns scope s's state, growing the table on first touch.
func (m *Module) scope(s mem.ScopeID) *scopeState {
	i := int(slot(s))
	for len(m.scopes) <= i {
		m.scopes = append(m.scopes, scopeState{head: -1, tail: -1})
	}
	return &m.scopes[i]
}

// ScopeBusy reports whether scope s is executing an op right now (the
// memory array is occupied, §III).
func (m *Module) ScopeBusy(s mem.ScopeID) bool {
	i := int(slot(s))
	return i >= 0 && i < len(m.scopes) && m.scopes[i].busy
}

// BufferLen returns the number of buffered (not yet started) ops.
func (m *Module) BufferLen() int { return m.buffered }

// InFlight returns buffered plus executing ops.
func (m *Module) InFlight() int { return m.buffered + m.executing }

// TryEnqueue accepts a PIM op into the buffer, or reports false when the
// buffer is full. Arrival statistics are sampled before insertion, matching
// the paper's "on PIM op arrival" measurements.
func (m *Module) TryEnqueue(req *mem.Request) bool {
	if m.BufferSize > 0 && m.buffered >= m.BufferSize {
		return false
	}
	m.BufLenOnArrival.Observe(float64(m.buffered))
	m.UniqueScopesOnArr.Observe(float64(m.waiting))

	n := m.free
	if n >= 0 {
		m.free = m.nodes[n].next
	} else {
		n = int32(len(m.nodes))
		m.nodes = append(m.nodes, opNode{})
	}
	m.nodes[n] = opNode{req: req, next: -1}

	st := m.scope(req.Scope)
	if st.tail < 0 {
		st.head = n
		m.waiting++
		if !st.busy {
			m.ready = append(m.ready, slot(req.Scope))
		}
	} else {
		m.nodes[st.tail].next = n
	}
	st.tail = n
	m.buffered++
	if m.buffered > m.PeakBuffer {
		m.PeakBuffer = m.buffered
	}
	m.tryStart()
	return true
}

// tryStart launches the oldest buffered op of every ready scope, oldest
// first.
func (m *Module) tryStart() {
	if len(m.ready) == 0 {
		return
	}
	buffered := m.buffered
	for _, i := range m.ready {
		st := &m.scopes[i]
		n := st.head
		req := m.nodes[n].req
		st.head = m.nodes[n].next
		if st.head < 0 {
			st.tail = -1
			m.waiting--
		}
		m.nodes[n] = opNode{next: m.free}
		m.free = n
		st.busy = true
		m.buffered--
		m.executing++
		if m.Tracer.Enabled(trace.CatPIM) {
			name := ""
			if req.Prog != nil {
				name = req.Prog.Name
			}
			m.Tracer.Emit(trace.CatPIM, "pim", "start scope=%d op=%s buffered=%d", req.Scope, name, buffered)
		}
		m.k.ScheduleCtx(m.execLatency(req), m.completeFn, req)
	}
	m.ready = m.ready[:0]
	if m.OnSpace != nil {
		m.OnSpace()
	}
}

func (m *Module) execLatency(req *mem.Request) sim.Tick {
	if m.ZeroLatency {
		return 0
	}
	micro := 0
	if req.Prog != nil {
		micro = req.Prog.MicroOps
	}
	return m.FixedOpLatency + sim.Tick(micro)*m.CyclesPerMicroOp
}

func (m *Module) complete(req *mem.Request) {
	if m.Functional && req.Prog != nil && req.Prog.Apply != nil {
		req.Prog.Apply(m.Backing, req.Line.Addr(), req.Writer)
	}
	if m.Tracer.Enabled(trace.CatPIM) {
		m.Tracer.Emit(trace.CatPIM, "pim", "complete scope=%d", req.Scope)
	}
	m.ExecCycles.Observe(float64(m.execLatency(req)))
	m.OpsExecuted.Inc()
	st := &m.scopes[slot(req.Scope)]
	st.busy = false
	m.executing--
	if st.head >= 0 {
		m.ready = append(m.ready, slot(req.Scope))
	}
	if m.OnComplete != nil {
		m.OnComplete(req)
	}
	m.tryStart()
}
