// Package memctrl models the host memory controller of §V-A: a bounded
// request queue that may reorder operations for performance "but does not
// violate data dependencies between operations" — same-line accesses
// execute in arrival order, operations to a scope never pass an
// earlier-arrived PIM op to that scope, and a PIM op waits for every
// earlier-arrived same-scope operation. This per-scope ordering is what
// makes a PIM op "safe" once it reaches the controller, and it is where
// the ACK of the atomic/store/scope models is generated (Fig. 6).
//
// Scheduling is index-driven: instead of re-scanning the pending queue for
// conflicts on every pass (O(n²) in queue depth — the profile's top cost
// after the PR 6 kernel work), every entry sits on an intrusive per-line
// chain and per-scope chain in arrival order, so readiness is an O(1)
// head check, and a seq-ordered ready heap is maintained incrementally on
// Enqueue / unlink / pimCompleted. The retained reference scan
// (earlierConflictRef, refsched.go) pins the semantics: the differential
// property tests assert that the indexed scheduler issues exactly what
// the linear scan would, over randomized request streams.
package memctrl

import (
	"fmt"
	"slices"
	"unsafe"

	"bulkpim/internal/mem"
	"bulkpim/internal/pim"
	"bulkpim/internal/sim"
	"bulkpim/internal/stats"
	"bulkpim/internal/trace"
)

// Controller is the memory controller plus its DRAM timing model.
type Controller struct {
	k *sim.Kernel

	// QueueSize bounds the admission queue; Enqueue fails when full.
	QueueSize int
	// DRAMLatency is the access latency of one line (CPU cycles).
	DRAMLatency sim.Tick
	// Banks and BankBusy model bank-level parallelism: a bank serves one
	// access per BankBusy cycles.
	Banks    int
	BankBusy sim.Tick

	// PIMs are the attached PIM memory modules; scopes are distributed
	// round-robin across them ("different PIM modules ... connect to the
	// same host", §II-A). The paper's configuration has one.
	PIMs    []*pim.Module
	Backing *mem.Backing
	// Functional makes loads carry the line's bytes from Backing. A
	// timing-only machine leaves it off: its loads complete with no
	// payload, which every cache level passes on as "no data".
	Functional bool

	// Pool recycles requests and line buffers: the machine's pool, which
	// every component shares. finishDRAM fills a functional machine's
	// load data from it, and the controller — as the completion invoker
	// — releases requests that carry no completion callback (writebacks)
	// once they retire.
	Pool *mem.RequestPool

	// SendACK, when set, is invoked as soon as a PIM op is accepted into
	// the queue — the point at which its order is guaranteed (§V-A) — so
	// the host can release gated operations (Fig. 6a step 3 / 6b step 4).
	SendACK func(req *mem.Request)
	// OnSpace callbacks fire when a queue slot frees (LLC egress retries).
	OnSpace func()

	seq uint64

	// Queued (unfinished) entries as an intrusive doubly-linked list in
	// arrival order. Issued DRAM accesses stay on the list until they
	// finish (they still block younger same-line accesses); PIM ops
	// leave when forwarded to their module.
	qHead, qTail *entry
	queueLen     int

	// scheduling guards against re-entrant scheduler runs (completion
	// callbacks can call back into the controller).
	scheduling bool
	rerun      bool

	// refSched switches the controller to the retained linear-scan
	// reference scheduler (refsched.go); used by the differential tests
	// and BenchmarkScheduleRef.
	refSched bool

	// onPass, when set (tests), runs at the top of every indexed
	// scheduling pass — the point where the ready heap must agree with
	// the reference conflict scan.
	onPass func()

	// pimFree is the head of the pimRefs slab's free list (-1 when
	// empty).
	pimFree int32

	ctrlReuse

	// Tracer, when enabled for CatMC, logs admissions and completions.
	Tracer *trace.Tracer

	// Stats.
	QueueLenOnArrival stats.Mean
	Accepted          stats.Counter
	Rejected          stats.Counter
	LoadsServed       stats.Counter
	WritesServed      stats.Counter
	PIMForwarded      stats.Counter
}

// ctrlReuse is what a released controller hands the next controller
// built on its struct (Release, New): the hoisted callbacks, which name
// that struct, and the indexes, slabs and recycled entries its runs grew,
// emptied.
type ctrlReuse struct {
	// Dependency indexes: the youngest queued entry per line and per
	// scope. Together with the per-entry linePrev/scopePrev links they
	// answer "does an earlier conflicting entry exist" in O(1) — an
	// entry is its line's (or scope's) oldest exactly when its prev
	// pointer is nil.
	lineTail  mem.LineTable[*entry]
	scopeTail map[mem.ScopeID]*entry

	// ready holds conflict-free waiting entries as a min-heap on seq, so
	// a scheduling pass visits only issuable work, in arrival order.
	// held is the pass-local overflow for entries that are conflict-free
	// but resource-blocked (busy bank, full PIM buffer); it is reused
	// across passes.
	ready entryHeap
	held  []*entry

	// bankFree[i] is the time bank i next accepts an access. It holds
	// one slot per bank of Banks, sized at the first access (banks).
	bankFree []sim.Tick

	// The outstanding PIM ops, from acceptance until PIM-module
	// completion: one FIFO per scope, in acceptance order. pimFIFOs is
	// indexed by slot(scope); the nodes come from the pimRefs slab, so
	// admitting and completing ops allocates nothing at steady state.
	pimFIFOs []pimFIFO
	pimRefs  []pimRef

	// entryFree recycles retired entries; finishFn, schedFn, spaceFn and
	// completedFn are the once-built callbacks (finishFn's ctx is an
	// *entry), so steady-state scheduling allocates neither entries nor
	// closures.
	entryFree   []*entry
	finishFn    func(any)
	schedFn     func(any)
	spaceFn     func()
	completedFn func(*mem.Request)
}

// pimRef identifies one outstanding PIM op: its acceptance sequence
// number (what younger same-scope memops wait on) and the request itself
// (what pimCompleted matches completions against). next links the
// scope's next younger op (or, when free, the slab's free list).
type pimRef struct {
	seq  uint64
	req  *mem.Request
	next int32
}

// pimFIFO is one scope's outstanding PIM ops, as pimRefs indices (-1
// when empty).
type pimFIFO struct{ head, tail int32 }

type entryState uint8

const (
	// stWaiting: queued with an unresolved earlier conflict.
	stWaiting entryState = iota
	// stReady: conflict-free, on the ready heap (or held within a pass).
	stReady
	// stIssued: DRAM access in flight; still blocks younger same-line
	// accesses until finishDRAM unlinks it.
	stIssued
)

type entry struct {
	req   *mem.Request
	seq   uint64
	state entryState

	// Intrusive chains, all in arrival (seq) order: the global queue,
	// the same-line chain, and the same-scope chain.
	qPrev, qNext         *entry
	linePrev, lineNext   *entry
	scopePrev, scopeNext *entry
}

// ctrlFree holds released controllers.
var ctrlFree = sim.NewFreeList[*Controller]()

// New builds a controller over the given PIM module and backing memory
// that draws requests and line buffers from pool: a released
// controller's struct and storage when one is free.
func New(k *sim.Kernel, pool *mem.RequestPool, module *pim.Module, backing *mem.Backing) *Controller {
	c, ok := ctrlFree.Get(0)
	if !ok {
		c = new(Controller)
		c.scopeTail = make(map[mem.ScopeID]*entry)
		c.finishFn = func(ctx any) { c.finishDRAM(ctx.(*entry)) }
		c.schedFn = func(any) { c.schedule() }
		c.spaceFn = func() { c.schedule() }
		c.completedFn = c.pimCompleted
	}
	*c = Controller{
		k:           k,
		QueueSize:   32,
		DRAMLatency: 220,
		Banks:       8,
		BankBusy:    40,
		PIMs:        c.PIMs[:0],
		Backing:     backing,
		Pool:        pool,
		pimFree:     -1,
		ctrlReuse:   c.ctrlReuse,
	}
	c.AddPIMModule(module)
	return c
}

// Release hands c, with the storage its runs grew, to the next New; the
// caller drops c. c must be idle: nothing queued and no PIM op
// outstanding.
func (c *Controller) Release() {
	if c.queueLen != 0 || c.pimOutstanding() {
		panic("memctrl: Release of a busy controller")
	}
	r := c.ctrlReuse
	r.lineTail.Reset()
	clear(r.scopeTail)
	clear(r.held[:cap(r.held)])
	clear(r.pimRefs)
	r.ready, r.held = r.ready[:0], r.held[:0]
	r.bankFree, r.pimFIFOs, r.pimRefs = r.bankFree[:0], r.pimFIFOs[:0], r.pimRefs[:0]
	pims := c.PIMs
	clear(pims)
	*c = Controller{PIMs: pims[:0], ctrlReuse: r}
	ctrlFree.Put(0, int(unsafe.Sizeof(Controller{})), c)
}

// pimOutstanding reports whether any scope has a PIM op the module has
// not completed.
func (c *Controller) pimOutstanding() bool {
	for _, f := range c.pimFIFOs {
		if f.head >= 0 {
			return true
		}
	}
	return false
}

// getEntry pops a recycled entry or allocates one.
func (c *Controller) getEntry(req *mem.Request, seq uint64) *entry {
	if n := len(c.entryFree); n > 0 {
		e := c.entryFree[n-1]
		c.entryFree = c.entryFree[:n-1]
		e.req, e.seq, e.state = req, seq, stWaiting
		return e
	}
	return &entry{req: req, seq: seq}
}

// putEntry recycles a retired (unlinked) entry.
func (c *Controller) putEntry(e *entry) {
	e.req = nil
	c.entryFree = append(c.entryFree, e)
}

// AddPIMModule attaches another PIM module; scope s routes to module
// s mod N.
func (c *Controller) AddPIMModule(m *pim.Module) {
	m.OnComplete = c.completedFn
	m.OnSpace = c.spaceFn
	c.PIMs = append(c.PIMs, m)
}

// moduleFor returns the module owning a scope.
func (c *Controller) moduleFor(s mem.ScopeID) *pim.Module {
	return c.PIMs[int(uint64(s)%uint64(len(c.PIMs)))]
}

// QueueLen returns the number of queued (unfinished) entries.
func (c *Controller) QueueLen() int { return c.queueLen }

// Enqueue admits a request, or reports false when the queue is full. The
// caller (LLC egress) must retry after OnSpace.
func (c *Controller) Enqueue(req *mem.Request) bool {
	if c.queueLen >= c.QueueSize {
		c.Rejected.Inc()
		return false
	}
	c.QueueLenOnArrival.Observe(float64(c.queueLen))
	c.Accepted.Inc()
	if c.Tracer.Enabled(trace.CatMC) {
		c.Tracer.Emit(trace.CatMC, "mc", "accept %s qlen=%d", req, c.queueLen)
	}
	c.seq++
	e := c.getEntry(req, c.seq)
	c.link(e)
	if req.Kind == mem.ReqPIMOp {
		c.pushPIM(req, e.seq)
	}
	c.markReady(e)
	if req.Kind == mem.ReqPIMOp && c.SendACK != nil {
		c.SendACK(req)
	}
	c.schedule()
	return true
}

// link appends e to the queue and to its line and scope chains. New
// arrivals are always the youngest, so every insert is a tail append.
func (c *Controller) link(e *entry) {
	if c.qTail != nil {
		c.qTail.qNext = e
		e.qPrev = c.qTail
	} else {
		c.qHead = e
	}
	c.qTail = e
	c.queueLen++

	if t, _ := c.lineTail.Get(e.req.Line); t != nil {
		t.lineNext = e
		e.linePrev = t
	}
	c.lineTail.Put(e.req.Line, e)

	if t := c.scopeTail[e.req.Scope]; t != nil {
		t.scopeNext = e
		e.scopePrev = t
	}
	c.scopeTail[e.req.Scope] = e
}

// unlink removes a finished entry (PIM op forwarded, DRAM access done)
// from the queue and both dependency chains, promoting any chain
// successor that the removal unblocks. O(1).
func (c *Controller) unlink(e *entry) {
	if e.qPrev != nil {
		e.qPrev.qNext = e.qNext
	} else {
		c.qHead = e.qNext
	}
	if e.qNext != nil {
		e.qNext.qPrev = e.qPrev
	} else {
		c.qTail = e.qPrev
	}
	c.queueLen--

	lineSucc, wasLineHead := e.lineNext, e.linePrev == nil
	if e.linePrev != nil {
		e.linePrev.lineNext = e.lineNext
	}
	if e.lineNext != nil {
		e.lineNext.linePrev = e.linePrev
	} else if e.linePrev != nil {
		c.lineTail.Put(e.req.Line, e.linePrev)
	} else {
		c.lineTail.Delete(e.req.Line)
	}

	scopeSucc, wasScopeHead := e.scopeNext, e.scopePrev == nil
	if e.scopePrev != nil {
		e.scopePrev.scopeNext = e.scopeNext
	}
	if e.scopeNext != nil {
		e.scopeNext.scopePrev = e.scopePrev
	} else if e.scopePrev != nil {
		c.scopeTail[e.req.Scope] = e.scopePrev
	} else {
		delete(c.scopeTail, e.req.Scope)
	}

	e.qPrev, e.qNext = nil, nil
	e.linePrev, e.lineNext = nil, nil
	e.scopePrev, e.scopeNext = nil, nil

	// A new line head may be a newly-unblocked memop; a new scope head
	// may be a newly-unblocked PIM op. (Memops do not depend on the
	// scope chain — their PIM dependence goes through pimFIFOs — so a
	// memop scope successor needs no promotion here.)
	if wasLineHead && lineSucc != nil {
		c.markReady(lineSucc)
	}
	if wasScopeHead && scopeSucc != nil && scopeSucc.req.Kind == mem.ReqPIMOp {
		c.markReady(scopeSucc)
	}
}

// conflictFree reports whether e has no earlier queued or outstanding
// operation it must wait for — the O(1) indexed equivalent of
// earlierConflictRef.
func (c *Controller) conflictFree(e *entry) bool {
	if e.req.Kind == mem.ReqPIMOp {
		// A PIM op waits for every earlier same-scope operation, of any
		// kind, still in the queue: it must be its scope chain's oldest.
		return e.scopePrev == nil
	}
	// Loads/stores/writebacks wait for (a) earlier same-line accesses:
	// the entry must be its line chain's oldest; (b) earlier same-scope
	// PIM ops not yet completed by the PIM module: a scope's FIFO is in
	// acceptance order, so the head check covers the whole list.
	if e.linePrev != nil {
		return false
	}
	if e.req.Scope != mem.NoScope {
		if h := c.pimHead(e.req.Scope); h >= 0 && c.pimRefs[h].seq < e.seq {
			return false
		}
	}
	return true
}

// slot maps a scope to its index in pimFIFOs; NoScope (-1) gets slot 0.
func slot(s mem.ScopeID) int { return int(s) + 1 }

// pimHead returns the pimRefs index of scope s's oldest outstanding PIM
// op, or -1.
func (c *Controller) pimHead(s mem.ScopeID) int32 {
	if i := slot(s); i < len(c.pimFIFOs) {
		return c.pimFIFOs[i].head
	}
	return -1
}

// pushPIM appends an accepted PIM op to its scope's FIFO.
func (c *Controller) pushPIM(req *mem.Request, seq uint64) {
	n := c.pimFree
	if n >= 0 {
		c.pimFree = c.pimRefs[n].next
	} else {
		n = int32(len(c.pimRefs))
		c.pimRefs = append(c.pimRefs, pimRef{})
	}
	c.pimRefs[n] = pimRef{seq: seq, req: req, next: -1}
	for len(c.pimFIFOs) <= slot(req.Scope) {
		c.pimFIFOs = append(c.pimFIFOs, pimFIFO{head: -1, tail: -1})
	}
	f := &c.pimFIFOs[slot(req.Scope)]
	if f.tail >= 0 {
		c.pimRefs[f.tail].next = n
	} else {
		f.head = n
	}
	f.tail = n
}

// markReady promotes a waiting, conflict-free entry onto the ready heap.
// Safe to call speculatively: it re-checks state and readiness.
func (c *Controller) markReady(e *entry) {
	if c.refSched || e.state != stWaiting || !c.conflictFree(e) {
		return
	}
	e.state = stReady
	c.ready.push(e)
}

// issue dispatches a conflict-free entry: PIM ops forward to their
// module (and leave the queue), memory ops claim a bank and start their
// DRAM access. Reports false when the entry stays queued on a busy
// resource (full PIM buffer, busy bank).
func (c *Controller) issue(e *entry, now sim.Tick) bool {
	switch e.req.Kind {
	case mem.ReqPIMOp:
		// The owning module serializes per scope internally.
		if !c.moduleFor(e.req.Scope).TryEnqueue(e.req) {
			return false
		}
		c.PIMForwarded.Inc()
		c.unlink(e)
		c.putEntry(e)
		return true
	default:
		bank := int(e.req.Line.Index()) % c.Banks
		if c.banks()[bank] > now {
			return false // bank busy; retry when something completes
		}
		c.bankFree[bank] = now + c.BankBusy
		e.state = stIssued
		c.k.ScheduleCtx(c.DRAMLatency, c.finishFn, e)
		// Re-arm the bank after its busy window.
		c.k.ScheduleCtx(c.BankBusy, c.schedFn, nil)
		return true
	}
}

// banks returns bankFree, first sizing it to Banks, which the machine
// sets after New.
func (c *Controller) banks() []sim.Tick {
	if len(c.bankFree) != c.Banks {
		c.bankFree = slices.Grow(c.bankFree[:0], c.Banks)[:c.Banks]
		clear(c.bankFree)
	}
	return c.bankFree
}

// schedule issues every runnable entry, in arrival order.
func (c *Controller) schedule() {
	if c.scheduling {
		c.rerun = true
		return
	}
	c.scheduling = true
	defer func() {
		c.scheduling = false
		if c.rerun {
			c.rerun = false
			c.schedule()
		}
	}()
	if c.refSched {
		c.refSchedulePass()
		return
	}
	if c.onPass != nil {
		c.onPass()
	}
	now := c.k.Now()
	freed := false
	held := c.held[:0]
	// Drain the ready heap in seq order. Issuing an entry can unblock
	// chain successors — always younger, so they surface later in this
	// same pass, exactly where the reference scan would reach them.
	for len(c.ready) > 0 {
		e := c.ready.pop()
		isPIM := e.req.Kind == mem.ReqPIMOp // e is recycled on PIM issue
		if c.issue(e, now) {
			if isPIM {
				freed = true
			}
		} else {
			held = append(held, e) // conflict-free but resource-blocked
		}
	}
	for _, e := range held {
		c.ready.push(e)
	}
	c.held = held[:0]
	if freed && c.OnSpace != nil {
		c.OnSpace()
	}
}

func (c *Controller) finishDRAM(e *entry) {
	req := e.req
	switch req.Kind {
	case mem.ReqLoad:
		c.LoadsServed.Inc()
		if c.Functional {
			if req.Data == nil {
				req.Data = c.Pool.GetLine()
				req.DataPooled = true
			}
			c.Backing.ReadLine(req.Line, req.Data)
		}
		req.Writer = c.Backing.WriterOf(req.Line)
	case mem.ReqStore, mem.ReqWriteback:
		c.WritesServed.Inc()
		if req.Data != nil {
			off, size := req.Off, req.Size
			if size == 0 {
				off, size = 0, mem.LineSize
			}
			c.Backing.Write(req.Line.Addr()+mem.Addr(off), req.Data[:size])
		}
		// A timing-only write carries no bytes but still orders reads
		// from it (TrackHB).
		c.Backing.SetWriter(req.Line, req.Writer)
	default:
		// Flushes and fences do not reach DRAM.
	}
	c.unlink(e)
	c.putEntry(e)
	if req.OnDone == nil {
		// Nobody is waiting on this request (writebacks): the controller
		// invoked the (empty) completion, so it releases the request.
		c.Pool.Put(req)
	} else {
		req.Complete()
	}
	c.schedule()
	if c.OnSpace != nil {
		c.OnSpace()
	}
}

// pimCompleted clears the per-scope dependence when the PIM module finishes
// executing an op. The completion must name an outstanding op of its
// scope: a completion the controller never forwarded is a protocol
// violation and panics. Modules serialize per scope, so completions
// normally arrive in acceptance order; an out-of-order completion (e.g.
// from a foreign module implementation) clears exactly the op that
// finished, leaving younger memops gated on the ops still outstanding.
func (c *Controller) pimCompleted(req *mem.Request) {
	prev, n, outstanding := int32(-1), c.pimHead(req.Scope), 0
	for ; n >= 0 && c.pimRefs[n].req != req; n = c.pimRefs[n].next {
		prev = n
		outstanding++
	}
	if n < 0 {
		panic(fmt.Sprintf("memctrl: PIM completion for unknown request %v (scope %d has %d outstanding)",
			req, req.Scope, outstanding))
	}
	f := &c.pimFIFOs[slot(req.Scope)]
	next := c.pimRefs[n].next
	if prev >= 0 {
		c.pimRefs[prev].next = next
	} else {
		f.head = next
	}
	if f.tail == n {
		f.tail = prev
	}
	c.pimRefs[n] = pimRef{next: c.pimFree}
	c.pimFree = n
	if prev < 0 && !c.refSched {
		// The oldest outstanding PIM seq moved up: memops accepted
		// before the new head are no longer PIM-gated. They live on the
		// scope chain in seq order, so walk it up to the new head.
		var stop uint64
		if f.head >= 0 {
			stop = c.pimRefs[f.head].seq
		}
		for en := c.scopeHead(req.Scope); en != nil && (stop == 0 || en.seq < stop); en = en.scopeNext {
			c.markReady(en)
		}
	}
	req.Complete()
	c.schedule()
}

// scopeHead returns the oldest queued entry of a scope, or nil.
func (c *Controller) scopeHead(s mem.ScopeID) *entry {
	t := c.scopeTail[s]
	if t == nil {
		return nil
	}
	for t.scopePrev != nil {
		t = t.scopePrev
	}
	return t
}

// entryHeap is a binary min-heap of entries keyed by seq (arrival
// order). Sequence numbers are unique, so the pop order is total.
type entryHeap []*entry

func (h *entryHeap) push(e *entry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].seq <= s[i].seq {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *entryHeap) pop() *entry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = nil
	s = s[:last]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && s[l].seq < s[m].seq {
			m = l
		}
		if r < len(s) && s[r].seq < s[m].seq {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}
