package cpu

import (
	"fmt"
	"unsafe"

	"bulkpim/internal/cache"
	"bulkpim/internal/core"
	"bulkpim/internal/mem"
	"bulkpim/internal/noc"
	"bulkpim/internal/sim"
	"bulkpim/internal/stats"
	"bulkpim/internal/trace"
)

// Core executes one thread's instruction stream under a consistency model.
// Loads and stores follow x86-TSO (store buffer with forwarding, loads may
// bypass pending stores to other lines); PIM ops follow the model's issuing
// process of §V.
//
// Execution states: a running core issues one instruction per step. An
// instruction that cannot proceed yet either parks as a *retry* (the gate
// is re-evaluated on the next wake: gated loads, full store buffer, PIM
// credit exhaustion) or leaves the core *waiting* for a specific completion
// callback (load fills, ACK of an atomic PIM op, barriers). Spurious wakes
// never advance the stream: they only re-evaluate parked instructions.
//
// The steady-state memory path is allocation-free: requests, PIM ops'
// included, come from Pool, completions are package-level functions
// carried on the request (OnDone/Ctx/Arg), per-burst trackers and store
// data buffers are recycled, and every recurring event callback is
// hoisted and scheduled via the kernel's (fn, ctx) form.
type Core struct {
	k  *sim.Kernel
	ID int

	Model  core.Model
	L1     *cache.L1
	LLC    *cache.LLC
	Direct *noc.Link // core -> LLC path for PIM ops, flushes, uncacheable
	// Reply is the LLC -> core response link (the same link the LLC uses
	// for fills); requests that complete at the memory controller hop back
	// over it before their core-side completion runs.
	Reply  *noc.Link
	Scopes *mem.ScopeMap

	// Pool supplies requests and store-data buffers: the machine's pool,
	// which every component shares.
	Pool *mem.RequestPool
	// Functional makes stores carry their bytes through the store buffer
	// into the caches. A timing-only core buffers only each store's
	// position and size.
	Functional bool

	// HB, when non-nil and enabled, records the happens-before relation.
	HB *core.Recorder
	// Tracer, when enabled for CatCPU, logs instruction issue and ACKs.
	Tracer *trace.Tracer

	// Timing knobs.
	IssueCost      sim.Tick // per-instruction issue cost
	L1HitLatency   sim.Tick
	WordExtra      sim.Tick // per extra word touched within a hit line
	MLP            int      // outstanding burst misses
	StoreBufferCap int
	// PIMCredits bounds un-ACKed PIM ops in the memory subsystem (NoC
	// flow control; ordering models impose stricter gates on top).
	PIMCredits int

	thread Thread
	done   bool
	OnDone func(coreID int)

	state      runState
	pending    Instr
	wakeQueued bool
	// awaitSeq matches completion callbacks to the await they belong to;
	// a stale callback (e.g. a scheduled burst poll firing after the burst
	// finished) must never resume a later wait.
	awaitSeq uint64

	// Scalar-load completion state. The core awaits each load, so at most
	// one scalar load is outstanding and its continuation state lives here
	// instead of in a per-request closure.
	ldIn   Instr
	ldEv   core.EventID
	ldLine mem.LineAddr
	ldTok  uint64

	// Flush completion state (one flush instruction outstanding at most).
	flushRemaining int
	flushTok       uint64

	draining bool // a store-buffer drain step is scheduled

	// Tracking.
	outLoads     int
	pimQueued    int // scope-model ops across pimQueues
	pimCreditUse int // flow-control credits in use
	pimFenceWait bool
	ackToken     uint64

	reqID uint64
	// opSeq stamps buffered stores and PIM ops in program order, so the
	// scope model's gates can tell older same-scope operations from
	// younger ones.
	opSeq uint64

	lastInstr InstrKind

	coreReuse

	// Stats.
	Instrs      stats.Counter
	LoadsIssued stats.Counter
	PIMIssued   stats.Counter
	Stalls      stats.Counter

	FinishedAt sim.Tick
}

// coreReuse is what a released core hands the next core built on its
// struct (Release, NewCore): the hoisted callbacks, which name that
// struct, and the storage its runs grew, emptied.
type coreReuse struct {
	// Store buffer (TSO FIFO; PIM ops ride it under the store model).
	sb []sbEntry

	// burstFree recycles burst trackers.
	burstFree []*burstState

	// pimQueues are the scope model's per-scope PIM queues (non-FIFO
	// entry point, §V-D), indexed by scope and grown on first use.
	// NoScope has none.
	pimQueues [][]pimEntry

	pimUnacked   map[mem.ScopeID]int // sent, ACK pending (atomic/scope)
	fencePending map[mem.ScopeID]int // outstanding scope fences

	// Hoisted event callbacks and completion functions, built once per
	// struct.
	stepFn       func(any)
	wakeFn       func(any)
	drainFn      func(any)
	fwdPIMFn     func(any)
	directFn     func(any)
	uncLoadDone  func(*mem.Request, any) // stage 1: hop back over Reply
	uncLoadFin   func(any)               // stage 2: core-side completion
	uncBurstDone func(*mem.Request, any)
	uncBurstFin  func(any)
	uncStoreDone func(*mem.Request, any)
	uncStoreFin  func(any)
	flushDoneFn  func(*mem.Request, any)
	fenceDoneFn  func(*mem.Request, any)
}

type runState uint8

const (
	stRunning runState = iota
	stRetry            // pending instruction re-evaluated on wake
	stWaiting          // a completion callback will resume the core
)

type sbEntry struct {
	seq  uint64 // program-order stamp (opSeq)
	line mem.LineAddr
	off  int
	size int
	// data is a pool-owned buffer of size bytes (released when the entry
	// retires), or nil on a timing-only core.
	data   []byte
	scope  mem.ScopeID
	writer core.EventID
	// pim, when its req is set, is a PIM op travelling through the FIFO
	// entry point (store model).
	pim      pimEntry
	issued   bool // pim/uncached store sent, waiting completion
	uncached bool
}

// isPIM reports whether the entry is a PIM op rather than a store.
func (e *sbEntry) isPIM() bool { return e.pim.req != nil }

type pimEntry struct {
	seq uint64 // program-order stamp (opSeq)
	req *mem.Request
	ev  core.EventID
}

// coreFree holds released cores.
var coreFree = sim.NewFreeList[*Core]()

// NewCore builds a core that draws requests from pool, on a released
// core's struct when one is free; wire the caches/links before Start.
func NewCore(k *sim.Kernel, pool *mem.RequestPool, id int, model core.Model) *Core {
	c, ok := coreFree.Get(0)
	if !ok {
		c = new(Core)
		c.hoist()
	}
	*c = Core{
		k:              k,
		ID:             id,
		Model:          model,
		IssueCost:      1,
		L1HitLatency:   3,
		WordExtra:      1,
		MLP:            8,
		StoreBufferCap: 32,
		PIMCredits:     48,
		Pool:           pool,
		coreReuse:      c.coreReuse,
	}
	return c
}

// Release hands c, with the storage its runs grew, to the next NewCore;
// the caller drops c. The machine must be drained.
func (c *Core) Release() {
	r := c.coreReuse
	r.sb = r.sb[:0]
	for i, q := range r.pimQueues {
		r.pimQueues[i] = q[:0]
	}
	clear(r.pimUnacked)
	clear(r.fencePending)
	*c = Core{coreReuse: r}
	coreFree.Put(0, int(unsafe.Sizeof(Core{})), c)
}

// hoist builds c's callbacks and scope tables, once per struct.
func (c *Core) hoist() {
	c.pimUnacked = make(map[mem.ScopeID]int)
	c.fencePending = make(map[mem.ScopeID]int)
	c.stepFn = func(any) { c.step() }
	c.wakeFn = func(any) {
		c.wakeQueued = false
		if c.state != stRetry {
			return
		}
		c.state = stRunning
		in := c.pending
		c.exec(in)
	}
	c.drainFn = func(any) {
		c.draining = false
		c.drainStep()
	}
	c.fwdPIMFn = func(x any) { c.L1.ForwardPIM(x.(*mem.Request)) }
	c.directFn = func(x any) { c.LLC.Receive(x.(*mem.Request)) }
	c.uncLoadFin = func(x any) {
		r := x.(*mem.Request)
		c.outLoads--
		if c.hbOn() {
			c.HB.RecordRead(c.ldEv, c.ldLine, r.Writer)
		}
		c.deliverLoad(c.ldIn, c.ldLine, r.Data)
		c.Pool.Put(r)
		c.resume(c.ldTok, 0)
	}
	c.uncLoadDone = func(r *mem.Request, _ any) { c.Reply.SendCtx(c.uncLoadFin, r) }
	c.uncBurstFin = func(x any) {
		r := x.(*mem.Request)
		bs := r.Ctx.(*burstState)
		bs.inflight--
		if r.Arg != 0 { // first word of the line
			c.deliverLoad(bs.in, r.Line, r.Data)
		}
		c.Pool.Put(r)
		c.burstStep(bs)
	}
	c.uncBurstDone = func(r *mem.Request, _ any) { c.Reply.SendCtx(c.uncBurstFin, r) }
	c.uncStoreFin = func(x any) {
		c.Pool.Put(x.(*mem.Request))
		c.popStore()
	}
	c.uncStoreDone = func(r *mem.Request, _ any) { c.Reply.SendCtx(c.uncStoreFin, r) }
	c.flushDoneFn = func(r *mem.Request, _ any) {
		c.Pool.Put(r)
		c.flushRemaining--
		if c.flushRemaining == 0 {
			c.resume(c.flushTok, 0)
		}
	}
	c.fenceDoneFn = func(r *mem.Request, _ any) {
		s := r.Scope
		c.Pool.Put(r)
		c.fencePending[s]--
		if c.fencePending[s] == 0 {
			delete(c.fencePending, s)
		}
		c.wake()
	}
}

// Start begins executing t.
func (c *Core) Start(t Thread) {
	c.thread = t
	c.k.ScheduleCtx(0, c.stepFn, nil)
}

// Done reports thread completion.
func (c *Core) Done() bool { return c.done }

// wake re-evaluates a parked (retry) instruction. Wakes while running or
// waiting are ignored: completions resume explicitly.
func (c *Core) wake() {
	if c.done || c.state != stRetry || c.wakeQueued {
		return
	}
	c.wakeQueued = true
	c.k.ScheduleCtx(0, c.wakeFn, nil)
}

// resume continues the stream after the completion callback matching
// token (issued by await). Stale or duplicate callbacks are ignored.
func (c *Core) resume(token uint64, after sim.Tick) {
	if c.done || c.state != stWaiting || token != c.awaitSeq {
		return
	}
	c.state = stRunning
	c.next(after)
}

// park re-tries in on the next wake.
func (c *Core) park(in Instr) {
	c.Stalls.Inc()
	c.state = stRetry
	c.pending = in
}

// await leaves the core waiting for an explicit resume and returns the
// token the resuming callback must present.
func (c *Core) await() uint64 {
	c.state = stWaiting
	c.awaitSeq++
	return c.awaitSeq
}

// step issues one instruction.
func (c *Core) step() {
	if c.done || c.state != stRunning {
		return
	}
	instr, ok := c.thread.Next()
	if !ok {
		c.retire()
		return
	}
	c.Instrs.Inc()
	c.lastInstr = instr.Kind
	if c.Tracer.Enabled(trace.CatCPU) {
		c.Tracer.Emit(trace.CatCPU, fmt.Sprintf("core%d", c.ID), "issue kind=%d addr=%#x scope=%d %s",
			instr.Kind, uint64(instr.Addr), instr.Scope, instr.Label)
	}
	c.exec(instr)
}

func (c *Core) retire() {
	c.done = true
	c.FinishedAt = c.k.Now()
	if c.OnDone != nil {
		c.OnDone(c.ID)
	}
}

func (c *Core) next(after sim.Tick) {
	c.k.ScheduleCtx(after+c.IssueCost, c.stepFn, nil)
}

func (c *Core) exec(in Instr) {
	switch in.Kind {
	case InstrCompute:
		c.next(in.Cycles)
	case InstrStore:
		c.execStore(in)
	case InstrLoad:
		c.execLoad(in)
	case InstrLoadBurst:
		c.execBurst(in)
	case InstrPIMOp:
		c.execPIM(in)
	case InstrFlush:
		c.execFlush(in)
	case InstrFenceFull:
		c.execFenceFull(in)
	case InstrFencePIM:
		c.execFencePIM(in)
	case InstrScopeFence:
		c.execScopeFence(in)
	case InstrBarrier:
		tok := c.await()
		in.Barrier.Arrive(func() { c.resume(tok, 0) })
	default:
		panic("cpu: unknown instruction")
	}
}

func (c *Core) scopeOf(a mem.Addr) mem.ScopeID { return c.Scopes.ScopeOf(a) }

func (c *Core) newReq(kind mem.ReqKind, line mem.LineAddr, scope mem.ScopeID) *mem.Request {
	c.reqID++
	r := c.Pool.Get()
	r.ID = c.reqID<<8 | uint64(c.ID)
	r.Kind, r.Line, r.Scope = kind, line, scope
	r.Core = c.ID
	return r
}

// ---- stores ----

func (c *Core) execStore(in Instr) {
	if len(c.sb) >= c.StoreBufferCap {
		c.park(in)
		return
	}
	scope := c.scopeOf(in.Addr)
	line := mem.LineOf(in.Addr)
	var ev core.EventID
	if c.hbOn() {
		ev = c.HB.RecordOp(c.ID, core.OpRef{Class: core.OpStore, Scope: scope, Line: line}, in.Label)
	}
	var data []byte
	if c.Functional {
		data = c.Pool.GetLine()[:len(in.Data)]
		copy(data, in.Data)
	}
	c.opSeq++
	c.sb = append(c.sb, sbEntry{
		seq: c.opSeq, line: line, off: int(in.Addr - line.Addr()), size: len(in.Data), data: data,
		scope: scope, writer: ev,
		uncached: c.Model == core.Uncacheable && scope != mem.NoScope,
	})
	c.kickDrain()
	c.next(0)
}

func (c *Core) kickDrain() {
	if c.draining || len(c.sb) == 0 {
		return
	}
	c.draining = true
	c.k.ScheduleCtx(1, c.drainFn, nil)
}

// exclFillDone is the exclusive-fill continuation for the store-buffer
// head: drainStep froze the head (issued=true), so the entry to retire is
// always sb[0].
func exclFillDone(ctx any) {
	c := ctx.(*Core)
	e := &c.sb[0]
	if !c.L1.TryStore(e.line, e.off, e.data, uint64(e.writer)) {
		panic("cpu: store failed after exclusive fill")
	}
	if c.hbOn() {
		c.HB.RecordWrite(e.writer, e.line)
	}
	c.popStore()
}

// drainStep retires the store buffer head (TSO: stores leave in order; a
// held head holds everything behind it).
func (c *Core) drainStep() {
	if len(c.sb) == 0 {
		c.wake()
		return
	}
	e := &c.sb[0]
	if e.issued {
		return // completion resumes the drain
	}
	if e.isPIM() {
		// Store-model PIM op at the entry point head (Fig. 6b): send and
		// hold everything behind it until the ACK.
		e.issued = true
		c.pimCreditUse++
		c.sendDirect(e.pim.req)
		return
	}
	// Scope model: a store behind an earlier in-flight or queued PIM op
	// to its scope is held (same-scope order), holding later stores per
	// TSO. A PIM op younger than the store must not hold it: that op
	// waits for the store (tryLaunchScopePIM).
	if c.Model == core.Scope && e.scope != mem.NoScope && c.scopePIMBefore(e.scope, e.seq) {
		return // ACK or launch resumes via kickDrain
	}
	if e.uncached {
		e.issued = true
		req := c.newReq(mem.ReqStore, e.line, e.scope)
		req.Uncacheable = true
		req.Data = e.data
		req.Off, req.Size = e.off, e.size
		req.Writer = uint64(e.writer)
		req.OnDone = c.uncStoreDone
		c.sendDirect(req)
		return
	}
	if c.L1.TryStore(e.line, e.off, e.data, uint64(e.writer)) {
		if c.hbOn() {
			c.HB.RecordWrite(e.writer, e.line)
		}
		c.popStore()
		return
	}
	// Need write permission.
	e.issued = true
	req := c.newReq(mem.ReqLoad, e.line, e.scope)
	req.Excl = true
	c.L1.RequestLine(req, cache.FillWaiter{}, cache.ExclWaiter{Fn: exclFillDone, Ctx: c})
}

// popStore retires the store-buffer head, releasing its data buffer. The
// buffer is shifted out in place so the backing array never reallocates.
func (c *Core) popStore() {
	head := c.sb[0]
	scope := head.scope
	if head.data != nil {
		c.Pool.PutLine(head.data)
	}
	n := copy(c.sb, c.sb[1:])
	c.sb[n] = sbEntry{}
	c.sb = c.sb[:n]
	c.wake()
	c.tryLaunchScopePIM(scope)
	c.kickDrain()
}

// sbForward searches the store buffer for the newest store covering the
// read (TSO store-to-load forwarding). The bytes are nil on a timing-only
// core.
func (c *Core) sbForward(a mem.Addr, size int) ([]byte, core.EventID, bool) {
	line := mem.LineOf(a)
	off := int(a - line.Addr())
	for i := len(c.sb) - 1; i >= 0; i-- {
		e := &c.sb[i]
		if e.isPIM() || e.line != line {
			continue
		}
		if off >= e.off && off+size <= e.off+e.size {
			if e.data == nil {
				return nil, e.writer, true
			}
			return e.data[off-e.off : off-e.off+size], e.writer, true
		}
	}
	return nil, 0, false
}

// sbHasLine reports a pending store to the line (loads must not pass it
// when forwarding cannot satisfy them).
func (c *Core) sbHasLine(line mem.LineAddr) bool {
	for i := range c.sb {
		if !c.sb[i].isPIM() && c.sb[i].line == line {
			return true
		}
	}
	return false
}

// ---- loads ----

// loadGated reports whether the model holds back a load to scope.
func (c *Core) loadGated(scope mem.ScopeID) bool {
	if scope == mem.NoScope {
		return false
	}
	switch c.Model {
	case core.Store, core.Scope:
		// Loads to the scope of a pending PIM op wait for its ACK (§V-C/D).
		return c.pimPendingTo(scope) > 0
	case core.ScopeRelaxed:
		return c.fencePending[scope] > 0
	default:
		return false
	}
}

// pimPendingTo counts PIM ops to scope that are buffered or un-ACKed.
func (c *Core) pimPendingTo(scope mem.ScopeID) int {
	n := c.pimUnacked[scope]
	for i := range c.sb {
		if c.sb[i].isPIM() && c.sb[i].scope == scope {
			n++
		}
	}
	return n + len(c.scopeQueue(scope))
}

func (c *Core) totalPIMPending() int {
	n := c.pimCreditUse + c.pimQueued
	for i := range c.sb {
		if c.sb[i].isPIM() && !c.sb[i].issued {
			n++
		}
	}
	return n
}

// loadFillDone is the cached-load fill continuation; the core awaits each
// scalar load, so its state (ldIn/ldEv/ldTok) lives on the Core.
func loadFillDone(ctx any, line mem.LineAddr, data []byte, writer uint64) {
	c := ctx.(*Core)
	c.outLoads--
	if c.hbOn() {
		c.HB.RecordRead(c.ldEv, line, writer)
	}
	c.deliverLoad(c.ldIn, line, data)
	c.resume(c.ldTok, 0)
}

func (c *Core) execLoad(in Instr) {
	size := in.Size
	if size <= 0 {
		size = mem.WordSize
	}
	scope := c.scopeOf(in.Addr)
	line := mem.LineOf(in.Addr)
	if c.loadGated(scope) {
		c.park(in)
		return
	}
	var ev core.EventID
	if c.hbOn() {
		ev = c.HB.RecordOp(c.ID, core.OpRef{Class: core.OpLoad, Scope: scope, Line: line}, in.Label)
	}
	c.LoadsIssued.Inc()
	// TSO store-to-load forwarding.
	if data, writer, ok := c.sbForward(in.Addr, size); ok {
		if c.hbOn() {
			c.HB.RecordRead(ev, line, writer)
		}
		c.deliverLoad(in, line, data)
		c.next(1)
		return
	}
	if c.sbHasLine(line) {
		// Partial overlap with a pending store: wait for the drain.
		c.park(in)
		c.kickDrain()
		return
	}
	if c.Model == core.Uncacheable && scope != mem.NoScope {
		req := c.newReq(mem.ReqLoad, line, scope)
		req.Uncacheable = true
		req.Off, req.Size = int(in.Addr-line.Addr()), size
		c.outLoads++
		c.ldIn, c.ldEv, c.ldLine = in, ev, line
		c.ldTok = c.await()
		req.OnDone = c.uncLoadDone
		c.sendDirect(req)
		return
	}
	if data, writer, ok := c.L1.TryLoad(line); ok {
		if c.hbOn() {
			c.HB.RecordRead(ev, line, writer)
		}
		c.deliverLoad(in, line, data)
		c.next(c.L1HitLatency)
		return
	}
	req := c.newReq(mem.ReqLoad, line, scope)
	c.outLoads++
	c.ldIn, c.ldEv, c.ldLine = in, ev, line
	c.ldTok = c.await()
	c.L1.RequestLine(req, cache.FillWaiter{Fn: loadFillDone, Ctx: c}, cache.ExclWaiter{})
}

func (c *Core) deliverLoad(in Instr, line mem.LineAddr, data []byte) {
	if in.OnData != nil {
		in.OnData(line, data)
	}
}

// ---- bursts ----

type burstState struct {
	c        *Core
	in       Instr
	lines    []mem.LineAddr
	words    []int
	idx      int
	inflight int
	// polls counts scheduled retryBurst callbacks still in flight; the
	// tracker is recycled only when none remain, so a stale poll can
	// never poke a reused tracker.
	polls int
	token uint64
	done  bool
}

func (c *Core) getBurst(in Instr) *burstState {
	if n := len(c.burstFree); n > 0 {
		bs := c.burstFree[n-1]
		c.burstFree = c.burstFree[:n-1]
		bs.in = in
		return bs
	}
	return &burstState{c: c, in: in}
}

func (c *Core) maybeFreeBurst(bs *burstState) {
	if bs.done && bs.inflight == 0 && bs.polls == 0 {
		bs.in = Instr{}
		bs.lines = bs.lines[:0]
		bs.words = bs.words[:0]
		bs.idx, bs.token = 0, 0
		bs.done = false
		c.burstFree = append(c.burstFree, bs)
	}
}

// burstPoll is the retryBurst continuation.
func burstPoll(x any) {
	bs := x.(*burstState)
	bs.polls--
	bs.c.burstStep(bs)
}

// burstFillDone is the cached fill continuation of one burst line.
func burstFillDone(ctx any, line mem.LineAddr, data []byte, _ uint64) {
	bs := ctx.(*burstState)
	bs.inflight--
	bs.c.deliverLoad(bs.in, line, data)
	bs.c.burstStep(bs)
}

func (c *Core) execBurst(in Instr) {
	// Bursts read PIM results and records; drain the store buffer first so
	// reads never race the thread's own pending stores.
	if len(c.sb) > 0 {
		c.park(in)
		c.kickDrain()
		return
	}
	bs := c.getBurst(in)
	for _, r := range in.Burst {
		if r.Bytes <= 0 {
			continue
		}
		first := mem.LineOf(r.Start)
		last := mem.LineOf(r.Start + mem.Addr(r.Bytes) - 1)
		for l := first; ; l += mem.LineSize {
			lo := max(uint64(l.Addr()), uint64(r.Start))
			hi := min(uint64(l.Addr())+mem.LineSize, uint64(r.Start)+uint64(r.Bytes))
			words := int(hi-lo+mem.WordSize-1) / mem.WordSize
			bs.lines = append(bs.lines, l)
			bs.words = append(bs.words, words)
			if l == last {
				break
			}
		}
	}
	if len(bs.lines) == 0 {
		bs.done = true
		c.maybeFreeBurst(bs)
		c.next(0)
		return
	}
	bs.token = c.await()
	c.burstStep(bs)
}

func (c *Core) burstStep(bs *burstState) {
	if bs.done {
		c.maybeFreeBurst(bs) // stale poll/completion after the burst ended
		return
	}
	for bs.idx < len(bs.lines) {
		line := bs.lines[bs.idx]
		words := bs.words[bs.idx]
		scope := c.scopeOf(line.Addr())
		if c.loadGated(scope) {
			c.retryBurst(bs, 4) // poll: ACK/fence completion clears the gate
			return
		}
		if bs.inflight >= c.MLP {
			return // a completion continues the burst
		}
		bs.idx++
		c.LoadsIssued.Inc()
		extra := c.WordExtra * sim.Tick(words-1)
		if c.Model == core.Uncacheable && scope != mem.NoScope {
			// Every word is a separate memory transaction.
			for w := 0; w < words; w++ {
				bs.inflight++
				req := c.newReq(mem.ReqLoad, line, scope)
				req.Uncacheable = true
				req.Off, req.Size = w*mem.WordSize, mem.WordSize
				if w == 0 {
					req.Arg = 1 // deliver data once per line
				}
				req.OnDone = c.uncBurstDone
				req.Ctx = bs
				c.sendDirect(req)
			}
			if bs.inflight >= c.MLP {
				return
			}
			continue
		}
		if data, _, ok := c.L1.TryLoad(line); ok {
			c.deliverLoad(bs.in, line, data)
			c.retryBurst(bs, c.L1HitLatency+extra)
			return
		}
		bs.inflight++
		req := c.newReq(mem.ReqLoad, line, scope)
		c.L1.RequestLine(req, cache.FillWaiter{Fn: burstFillDone, Ctx: bs}, cache.ExclWaiter{})
	}
	if bs.inflight == 0 {
		bs.done = true
		tok := bs.token
		c.maybeFreeBurst(bs)
		c.resume(tok, 0) // burst complete
	}
}

func (c *Core) retryBurst(bs *burstState, after sim.Tick) {
	bs.polls++
	c.k.ScheduleCtx(after, burstPoll, bs)
}

// ---- PIM ops ----

// buildPIMReq constructs a PIM-op request from the pool. A PIM request
// has two ends, in either order: its ACK reaching the core (OnPIMAck) and
// the module completing it (the controller's Complete calls pimDone). It
// goes back to the pool at the later one (retirePIM), so the pointer is
// live, and unique among in-flight ops, at both ends: OnPIMAck's
// store-buffer match and the controller's completion match compare it.
func (c *Core) buildPIMReq(in Instr) pimEntry {
	req := c.newReq(mem.ReqPIMOp, mem.LineOf(c.Scopes.ScopeBase(in.Scope)), in.Scope)
	req.Prog = in.Prog
	req.OnDone, req.Ctx = pimDone, c
	var ev core.EventID
	if c.hbOn() {
		ev = c.HB.RecordOp(c.ID, core.OpRef{Class: core.OpPIM, Scope: in.Scope}, in.Label)
	}
	req.Writer = uint64(ev)
	c.opSeq++
	return pimEntry{seq: c.opSeq, req: req, ev: ev}
}

// The two ends of a PIM request, as bits of its Arg.
const (
	pimAcked    uint64 = 1 << iota // OnPIMAck ran
	pimExecuted                    // the module completed the op
)

// pimDone is a PIM request's completion: the module finished the op.
func pimDone(r *mem.Request, ctx any) { ctx.(*Core).retirePIM(r, pimExecuted) }

// retirePIM records one end of a PIM request and releases the request
// once both ends have passed.
func (c *Core) retirePIM(req *mem.Request, end uint64) {
	req.Arg |= end
	if req.Arg == pimAcked|pimExecuted {
		c.Pool.Put(req)
	}
}

func (c *Core) execPIM(in Instr) {
	// Flow control: bound un-ACKed PIM ops in the memory subsystem.
	if c.totalPIMPending() >= c.PIMCredits {
		c.park(in)
		return
	}
	switch c.Model {
	case core.Atomic:
		// Fig. 6a: a fence around the op, then stall until the ACK.
		if len(c.sb) > 0 || c.outLoads > 0 {
			c.park(in)
			c.kickDrain()
			return
		}
		e := c.buildPIMReq(in)
		c.PIMIssued.Inc()
		c.pimUnacked[in.Scope]++
		c.pimCreditUse++
		c.ackToken = c.await() // the ACK resumes the core
		c.sendDirect(e.req)
	case core.Store:
		// Fig. 6b: commit immediately; the op rides the FIFO entry point.
		if len(c.sb) >= c.StoreBufferCap {
			c.park(in)
			return
		}
		e := c.buildPIMReq(in)
		c.PIMIssued.Inc()
		c.sb = append(c.sb, sbEntry{seq: e.seq, scope: in.Scope, pim: e})
		c.kickDrain()
		c.next(1)
	case core.Scope:
		// §V-D: non-FIFO entry point; ops queue per scope.
		e := c.buildPIMReq(in)
		c.PIMIssued.Inc()
		if c.pimUnacked[in.Scope] > 0 || len(c.scopeQueue(in.Scope)) > 0 || c.sbHasScopeStoreBefore(in.Scope, e.seq) {
			c.queueScopePIM(in.Scope, e)
		} else {
			c.pimUnacked[in.Scope]++
			c.pimCreditUse++
			c.sendDirect(e.req)
		}
		c.next(1)
	case core.ScopeRelaxed:
		// Fig. 6c: issue at commit, through all cache levels.
		if c.fencePending[in.Scope] > 0 {
			c.park(in)
			return
		}
		e := c.buildPIMReq(in)
		c.PIMIssued.Inc()
		c.pimCreditUse++
		c.L1.ForwardPIM(e.req)
		c.next(1)
	default:
		// Baselines: fire and forget toward the memory controller.
		e := c.buildPIMReq(in)
		c.PIMIssued.Inc()
		c.pimCreditUse++
		c.sendDirect(e.req)
		c.next(1)
	}
}

// sbHasScopeStoreBefore reports a buffered store to the scope older than
// seq (a scope-model PIM op must not pass it). Younger stores wait for
// the op instead (drainStep), so counting them would deadlock.
func (c *Core) sbHasScopeStoreBefore(scope mem.ScopeID, seq uint64) bool {
	for i := range c.sb {
		if c.sb[i].seq >= seq {
			break // the store buffer is in program order
		}
		if !c.sb[i].isPIM() && c.sb[i].scope == scope {
			return true
		}
	}
	return false
}

// scopePIMBefore reports a scope-model PIM op to scope, older than seq,
// that is un-ACKed or still queued. Every un-ACKed op is older than every
// buffered same-scope store: an op launches only once no older store to
// its scope is buffered.
func (c *Core) scopePIMBefore(scope mem.ScopeID, seq uint64) bool {
	if c.pimUnacked[scope] > 0 {
		return true
	}
	q := c.scopeQueue(scope)
	return len(q) > 0 && q[0].seq < seq
}

// scopeQueue returns scope's queued scope-model PIM ops, oldest first.
func (c *Core) scopeQueue(scope mem.ScopeID) []pimEntry {
	if scope < 0 || int(scope) >= len(c.pimQueues) {
		return nil
	}
	return c.pimQueues[scope]
}

// queueScopePIM appends e to scope's queue.
func (c *Core) queueScopePIM(scope mem.ScopeID, e pimEntry) {
	for int(scope) >= len(c.pimQueues) {
		c.pimQueues = append(c.pimQueues, nil)
	}
	c.pimQueues[scope] = append(c.pimQueues[scope], e)
	c.pimQueued++
}

// tryLaunchScopePIM sends the next queued scope-model PIM op for scope if
// its gates cleared.
func (c *Core) tryLaunchScopePIM(scope mem.ScopeID) {
	if c.Model != core.Scope {
		return
	}
	q := c.scopeQueue(scope)
	if len(q) == 0 || c.pimUnacked[scope] > 0 || c.sbHasScopeStoreBefore(scope, q[0].seq) {
		return
	}
	e := q[0]
	// Shift the queue down in place so its backing array is kept.
	n := copy(q, q[1:])
	q[n] = pimEntry{}
	c.pimQueues[scope] = q[:n]
	c.pimQueued--
	c.pimUnacked[scope]++
	c.pimCreditUse++
	c.sendDirect(e.req)
}

// sendDirect routes a request over the core's direct link to the LLC.
func (c *Core) sendDirect(req *mem.Request) {
	c.Direct.SendCtx(c.directFn, req)
}

// OnPIMAck handles the memory controller's ACK wire (always delivered; the
// ordering models use it as a gate, the rest as flow-control credit).
func (c *Core) OnPIMAck(req *mem.Request) {
	if c.Tracer.Enabled(trace.CatCPU) {
		c.Tracer.Emit(trace.CatCPU, fmt.Sprintf("core%d", c.ID), "pim-ack scope=%d", req.Scope)
	}
	c.pimCreditUse--
	switch c.Model {
	case core.Atomic:
		c.pimUnacked[req.Scope]--
		c.resume(c.ackToken, 0) // the stalled PIM instruction completes
	case core.Store:
		// The FIFO head was this PIM op; retire it and resume the drain.
		if len(c.sb) > 0 && c.sb[0].pim.req == req {
			n := copy(c.sb, c.sb[1:])
			c.sb[n] = sbEntry{}
			c.sb = c.sb[:n]
		}
		c.wake()
		c.kickDrain()
	case core.Scope:
		c.pimUnacked[req.Scope]--
		if c.pimUnacked[req.Scope] == 0 {
			delete(c.pimUnacked, req.Scope)
		}
		c.tryLaunchScopePIM(req.Scope)
		c.kickDrain() // held same-scope stores may proceed
		c.wake()
	default:
		c.wake()
	}
	if c.pimFenceWait && c.totalPIMPending() == 0 {
		c.pimFenceWait = false
		c.wake()
	}
	c.retirePIM(req, pimAcked)
}

// ---- flushes and fences ----

func (c *Core) execFlush(in Instr) {
	if len(in.Lines) == 0 {
		c.next(0)
		return
	}
	c.flushRemaining = len(in.Lines)
	c.flushTok = c.await()
	for _, line := range in.Lines {
		req := c.newReq(mem.ReqFlush, line, c.scopeOf(line.Addr()))
		req.OnDone = c.flushDoneFn
		c.sendDirect(req)
	}
}

func (c *Core) execFenceFull(in Instr) {
	if len(c.sb) > 0 || c.outLoads > 0 || c.ackTracked() > 0 {
		c.park(in)
		c.kickDrain()
		return
	}
	if c.hbOn() {
		c.HB.RecordOp(c.ID, core.OpRef{Class: core.OpFenceFull, Scope: mem.NoScope}, "fence")
	}
	c.next(1)
}

// ackTracked counts un-ACKed PIM ops for models whose fences wait on them.
func (c *Core) ackTracked() int {
	if !c.Model.RequiresACK() {
		return 0
	}
	n := 0
	for _, v := range c.pimUnacked {
		n += v
	}
	return n + c.pimQueued
}

func (c *Core) execFencePIM(in Instr) {
	if c.totalPIMPending() > 0 {
		c.pimFenceWait = true
		c.park(in)
		return
	}
	if c.hbOn() {
		c.HB.RecordOp(c.ID, core.OpRef{Class: core.OpFencePIM, Scope: mem.NoScope}, "pimfence")
	}
	c.next(1)
}

func (c *Core) execScopeFence(in Instr) {
	// Buffered stores precede the fence in program order; drain them so
	// the fence's scan sees (and flushes) their lines.
	if len(c.sb) > 0 {
		c.park(in)
		c.kickDrain()
		return
	}
	if c.hbOn() {
		c.HB.RecordOp(c.ID, core.OpRef{Class: core.OpFenceScope, Scope: in.Scope}, in.Label)
	}
	// §V-E: the fence scans every cache level on its path.
	cost := c.L1.ScanFlushScope(in.Scope)
	c.fencePending[in.Scope]++
	req := c.newReq(mem.ReqScopeFence, mem.LineOf(c.Scopes.ScopeBase(in.Scope)), in.Scope)
	req.OnDone = c.fenceDoneFn
	c.k.ScheduleCtx(cost, c.fwdPIMFn, req)
	// The fence does not block the core; same-scope operations wait for
	// its completion (conservative implementation of the path rule).
	c.next(1)
}

func (c *Core) hbOn() bool { return c.HB != nil }

// DebugState summarizes the core for deadlock diagnostics.
func (c *Core) DebugState() string {
	state := "running"
	switch c.state {
	case stRetry:
		state = fmt.Sprintf("retry(%v)", c.pending.Kind)
	case stWaiting:
		state = "waiting"
	}
	return fmt.Sprintf("core%d done=%v state=%s last=%d sb=%d outLoads=%d credits=%d unacked=%v queued=%d draining=%v l1mshr=%d",
		c.ID, c.done, state, c.lastInstr, len(c.sb), c.outLoads, c.pimCreditUse, c.pimUnacked, c.pimQueued, c.draining, c.L1.MSHRLen())
}
