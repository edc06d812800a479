package cache

import (
	"fmt"
	"unsafe"

	"bulkpim/internal/core"
	"bulkpim/internal/mem"
	"bulkpim/internal/memctrl"
	"bulkpim/internal/noc"
	"bulkpim/internal/sim"
	"bulkpim/internal/stats"
	"bulkpim/internal/trace"
)

// LLC is the shared, inclusive last-level cache with the MESI directory
// and, under every PIM-flushing model, the paper's scope unit: the scope
// buffer and SBV (§IV). PIM ops scan-and-flush their scope here before
// being forwarded to the memory controller, which is what makes the flush
// atomic with the op.
type LLC struct {
	k     *sim.Kernel
	Model core.Model

	arr        setAssoc
	HitLatency sim.Tick
	// Scan prices scans-and-flushes and single-line flushes here.
	Scan   ScanCost
	Scopes *mem.ScopeMap

	// Pool supplies requests and in-flight line buffers: the machine's
	// pool, which every component shares. Cached payloads live in arr's
	// slot arena.
	Pool *mem.RequestPool

	l1s  []*L1
	down []*noc.Link // per-core response links

	mc     *memctrl.Controller
	mcLink *noc.Link // LLC -> MC, FIFO (hardware memory channel)
	mcResp *noc.Link // MC -> LLC fills

	egHead     int
	inflightMC int
	pumping    bool

	qHead         int
	busyUntil     sim.Tick
	wakeScheduled bool

	llcReuse

	// Tracer, when enabled for CatCache, logs request handling and scans.
	Tracer *trace.Tracer

	// Stats feeding Fig. 9 / 10c / 10d.
	ScanLatency  stats.Mean  // per PIM op, scope-buffer hits count as 0
	SBHitRate    stats.Ratio // scope buffer hit rate
	SkipRatio    stats.Mean  // SBV skipped-set ratio per actual scan
	Scans        stats.Counter
	LinesFlushed stats.Counter
	Hits, Misses stats.Counter
	Writebacks   stats.Counter
}

// llcReuse is what a released LLC hands the next LLC built on its struct
// (Release, NewLLC): the hoisted callbacks, which name that struct, and
// the queues, miss table and recycled messages its runs grew, emptied.
type llcReuse struct {
	// egress is the FIFO toward the memory controller, from egHead.
	egress []*mem.Request
	// queue is the pipeline's input queue, from qHead.
	queue []llcWork

	mshr     mem.LineTable[*llcMiss]
	missFree []*llcMiss
	fillFree []*fillMsg

	// Hoisted callbacks so the steady-state request path schedules and
	// sends without allocating closures.
	wakeFn      func(any)
	fetchDoneFn func(*mem.Request, any)
	fillRecvFn  func(any)
	mcDeliverFn func(any)
	pumpFn      func()
}

// llcWork is one queued unit of LLC occupancy: a request to handle or a
// returned memory fetch to install (fill). A struct instead of a closure
// keeps the pipeline queue allocation-free.
type llcWork struct {
	req  *mem.Request
	fill bool
}

type llcMiss struct {
	stale   bool
	issued  bool
	waiters []*mem.Request
}

// fillMsg is a pooled L1-fill message: grant/bypassFill stage one,
// deliverFillMsg unpacks it at the core tile and releases it. data, when
// non-nil, is a pooled line owned by the message.
type fillMsg struct {
	l       *LLC
	addr    mem.LineAddr
	state   MESI
	data    []byte
	writer  uint64
	scope   mem.ScopeID
	noCache bool
	coreID  int
}

// deliverFillMsg runs at the receiving core tile: hand the payload to the
// L1 and recycle the message and its buffer.
func deliverFillMsg(x any) {
	m := x.(*fillMsg)
	m.l.l1s[m.coreID].Fill(m.addr, m.state, m.data, m.writer, m.scope, m.noCache)
	if m.data != nil {
		m.l.Pool.PutLine(m.data)
		m.data = nil
	}
	m.l.putFill(m)
}

// llcFree holds released LLCs.
var llcFree = sim.NewFreeList[*LLC]()

// NewLLC builds the shared cache that draws requests and line buffers
// from pool, on a released LLC's struct when one is free. Wire it with
// Connect before use.
func NewLLC(k *sim.Kernel, pool *mem.RequestPool, model core.Model, sets, ways int, hitLatency sim.Tick, scopes *mem.ScopeMap) *LLC {
	l, ok := llcFree.Get(0)
	if !ok {
		l = new(LLC)
		l.hoist()
	}
	*l = LLC{
		k:          k,
		Model:      model,
		arr:        newSetAssoc(sets, ways),
		HitLatency: hitLatency,
		Scan:       tableIIScan,
		Scopes:     scopes,
		Pool:       pool,
		llcReuse:   l.llcReuse,
	}
	return l
}

// hoist builds l's callbacks, once per struct.
func (l *LLC) hoist() {
	l.wakeFn = func(any) {
		l.wakeScheduled = false
		l.process()
	}
	l.fillRecvFn = func(x any) { l.enqueueFill(x.(*mem.Request)) }
	l.fetchDoneFn = func(r *mem.Request, _ any) { l.mcResp.SendCtx(l.fillRecvFn, r) }
	l.mcDeliverFn = func(x any) {
		l.inflightMC--
		if !l.mc.Enqueue(x.(*mem.Request)) {
			panic("cache: MC rejected a credited request")
		}
	}
	l.pumpFn = l.pump
}

// Release hands the line array, its payload blocks and scope unit to
// the free lists, and l itself, with the storage its runs grew, to the
// next NewLLC. The machine must be drained; the caller drops l.
func (l *LLC) Release() {
	l.arr.recycle()
	r := l.llcReuse
	r.egress, r.queue = r.egress[:0], r.queue[:0]
	r.mshr.Reset()
	*l = LLC{llcReuse: r}
	llcFree.Put(0, int(unsafe.Sizeof(LLC{})), l)
}

// Connect wires the LLC to its L1s, per-core response links, the memory
// controller and the links to/from it.
func (l *LLC) Connect(l1s []*L1, down []*noc.Link, mc *memctrl.Controller, mcLink, mcResp *noc.Link) {
	l.l1s = l1s
	l.down = down
	l.mc = mc
	l.mcLink = mcLink
	l.mcResp = mcResp
	mc.OnSpace = l.pumpFn
}

// EnableScope gives the cache a scope unit: a scope buffer of sbSets x
// sbWays (none when sbSets is 0) and, if sbv, a scope bit-vector. Without
// either, a PIM-flushing model still scans, checking every set.
func (l *LLC) EnableScope(sbSets, sbWays int, sbv bool) { l.arr.enableScope(sbSets, sbWays, sbv) }

func (l *LLC) getMiss() *llcMiss {
	if n := len(l.missFree); n > 0 {
		e := l.missFree[n-1]
		l.missFree = l.missFree[:n-1]
		return e
	}
	return &llcMiss{}
}

func (l *LLC) putMiss(e *llcMiss) {
	for i := range e.waiters {
		e.waiters[i] = nil
	}
	e.waiters = e.waiters[:0]
	e.stale, e.issued = false, false
	l.missFree = append(l.missFree, e)
}

func (l *LLC) getFill() *fillMsg {
	if n := len(l.fillFree); n > 0 {
		m := l.fillFree[n-1]
		l.fillFree = l.fillFree[:n-1]
		return m
	}
	return &fillMsg{l: l}
}

func (l *LLC) putFill(m *fillMsg) {
	*m = fillMsg{l: l}
	l.fillFree = append(l.fillFree, m)
}

// Receive is the entry point for requests arriving over the network.
func (l *LLC) Receive(req *mem.Request) {
	l.enqueue(llcWork{req: req})
}

// enqueueFill queues a returned memory fetch for installation.
func (l *LLC) enqueueFill(fetch *mem.Request) {
	l.enqueue(llcWork{req: fetch, fill: true})
}

func (l *LLC) enqueue(w llcWork) {
	if l.qHead > 0 && len(l.queue) == cap(l.queue) && 2*l.qHead >= len(l.queue) {
		// Full, with at least half the backing array already consumed:
		// under back-pressure the queue may never drain to the rewind in
		// process, so slide the live tail to the front instead of letting
		// append reallocate. Compacting only when half is dead keeps the
		// copy amortized O(1) per request.
		n := copy(l.queue, l.queue[l.qHead:])
		clear(l.queue[n:])
		l.queue = l.queue[:n]
		l.qHead = 0
	}
	l.queue = append(l.queue, w)
	l.process()
}

func (l *LLC) process() {
	now := l.k.Now()
	if now < l.busyUntil {
		l.wake()
		return
	}
	if l.qHead == len(l.queue) {
		return
	}
	w := l.queue[l.qHead]
	l.queue[l.qHead] = llcWork{}
	l.qHead++
	if l.qHead == len(l.queue) {
		// Drained: rewind so the backing array is reused forever.
		l.queue = l.queue[:0]
		l.qHead = 0
	}
	var cost sim.Tick
	if w.fill {
		cost = l.fillArrived(w.req)
		// The fetch request's round trip is over; the LLC issued it, so
		// the LLC releases it (and its pooled data) here.
		l.Pool.Put(w.req)
	} else {
		cost = l.handle(w.req)
	}
	l.busyUntil = l.k.Now() + cost
	if l.qHead < len(l.queue) {
		l.wake()
	}
}

func (l *LLC) wake() {
	if l.wakeScheduled {
		return
	}
	l.wakeScheduled = true
	l.k.ScheduleAtCtx(l.busyUntil, l.wakeFn, nil)
}

// handle services one request and returns the cycles it occupies the LLC.
func (l *LLC) handle(req *mem.Request) sim.Tick {
	if l.Tracer.Enabled(trace.CatCache) {
		l.Tracer.Emit(trace.CatCache, "llc", "%s", req)
	}
	switch {
	case req.Uncacheable:
		return l.handleUncacheable(req)
	case req.Kind == mem.ReqPIMOp:
		return l.handlePIMOp(req)
	case req.Kind == mem.ReqScopeFence:
		// §V-E: a scope-fence scans-and-flushes like a PIM op but
		// terminates here, acknowledging the issuing core.
		cost := l.flushScope(req.Scope)
		l.ackRequester(req)
		return l.HitLatency + cost
	case req.Kind == mem.ReqFlush:
		return l.handleFlush(req)
	case req.Kind == mem.ReqLoad:
		return l.handleMiss(req)
	default:
		// Stores reach the LLC only uncacheable; writebacks arrive via
		// WritebackFromL1. Anything else is a programming error.
		panic("cache: unexpected request at LLC: " + req.Kind.String())
	}
}

// handleUncacheable passes the request straight to the memory controller.
// Completion flows through the request's own OnDone: the issuing core's
// first stage sends the finished request back over its response link, the
// same hop the old closure wrapper made here.
func (l *LLC) handleUncacheable(req *mem.Request) sim.Tick {
	l.egressPush(req)
	return 1 // pass-through occupancy
}

// handleMiss services an L1 GetS/GetM.
func (l *LLC) handleMiss(req *mem.Request) sim.Tick {
	ln := l.arr.Lookup(req.Line)
	if ln.Valid() {
		l.Hits.Inc()
		cost := l.HitLatency
		if owner := ln.Owner(); owner >= 0 && owner != req.Core {
			if l.recall(ln, owner, req.Excl) && !req.Excl {
				ln.Sharers |= 1 << uint(owner)
			}
			ln.setOwner(-1)
			cost += 8 // owner round trip
		}
		l.grant(ln, req)
		l.Pool.Put(req)
		return cost
	}
	l.Misses.Inc()
	e, _ := l.mshr.Get(req.Line)
	if e == nil {
		e = l.getMiss()
		l.mshr.Put(req.Line, e)
	}
	e.waiters = append(e.waiters, req)
	if !e.issued {
		e.issued = true
		l.issueMemoryFetch(req.Line, req.Scope)
	}
	return l.HitLatency
}

func (l *LLC) issueMemoryFetch(line mem.LineAddr, scope mem.ScopeID) {
	fetch := l.Pool.Get()
	fetch.Kind, fetch.Line, fetch.Scope = mem.ReqLoad, line, scope
	fetch.Core = -1
	fetch.OnDone = l.fetchDoneFn
	l.egressPush(fetch)
}

// fillArrived installs a memory fill and serves the waiters. The caller
// releases fetch afterwards.
func (l *LLC) fillArrived(fetch *mem.Request) sim.Tick {
	e, _ := l.mshr.Get(fetch.Line)
	if e == nil {
		return l.HitLatency
	}
	if e.stale {
		// The scope was scanned-and-flushed while this miss was
		// outstanding: installing would resurrect a pre-PIM copy after
		// the flush that must be atomic with the PIM op. Loads get their
		// (legitimately pre-PIM, ordered-before) data without caching;
		// store misses are replayed so they fetch post-PIM data.
		e.stale = false
		keep := e.waiters[:0]
		for _, w := range e.waiters {
			if w.Excl {
				keep = append(keep, w)
			} else {
				l.bypassFill(w, fetch.Data, fetch.Writer)
				l.Pool.Put(w)
			}
		}
		for i := len(keep); i < len(e.waiters); i++ {
			e.waiters[i] = nil
		}
		e.waiters = keep
		if len(e.waiters) > 0 {
			l.issueMemoryFetch(fetch.Line, fetch.Scope)
			return l.HitLatency
		}
		l.mshr.Delete(fetch.Line)
		l.putMiss(e)
		return l.HitLatency
	}
	l.mshr.Delete(fetch.Line)
	v := l.arr.Peek(fetch.Line)
	if v.Valid() {
		// The line reappeared (e.g. installed by a racing writeback path);
		// reuse the slot.
		l.arr.Invalidate(v)
	} else {
		v = l.arr.Victim(fetch.Line)
		if v.Valid() {
			l.evictVictim(v)
		}
	}
	l.arr.Install(v, fetch.Line, Shared, l.Scopes.ScopeOf(fetch.Line.Addr()))
	l.arr.SetData(v, fetch.Data)
	v.Writer = fetch.Writer
	n := len(e.waiters)
	for _, w := range e.waiters {
		l.grant(v, w)
		l.Pool.Put(w)
	}
	l.putMiss(e)
	return l.HitLatency + sim.Tick(n)
}

// grant gives the requesting L1 its copy per MESI and replies with a fill.
// The caller owns (and afterwards releases) req.
func (l *LLC) grant(ln *Line, req *mem.Request) {
	var state MESI
	if req.Excl {
		// Invalidate all other holders.
		for i := range l.l1s {
			if i != req.Core && (ln.Sharers&(1<<uint(i)) != 0 || ln.Owner() == i) {
				l.recall(ln, i, true)
			}
		}
		ln.Sharers = 0
		ln.setOwner(req.Core)
		state = Exclusive
	} else if ln.Sharers == 0 && ln.Owner() < 0 {
		ln.setOwner(req.Core)
		state = Exclusive
	} else {
		ln.Sharers |= 1 << uint(req.Core)
		state = Shared
	}
	m := l.getFill()
	m.addr, m.state = ln.Addr, state
	if data := l.arr.Data(ln); data != nil {
		m.data = l.Pool.CloneLine(data)
	}
	m.writer = ln.Writer
	m.scope = ln.Scope
	m.coreID = req.Core
	l.down[m.coreID].SendCtx(deliverFillMsg, m)
}

// bypassFill hands a stale miss's waiter its data without caching it.
func (l *LLC) bypassFill(req *mem.Request, data []byte, writer uint64) {
	m := l.getFill()
	m.addr, m.state = req.Line, Shared
	if data != nil {
		m.data = l.Pool.CloneLine(data)
	}
	m.writer, m.scope = writer, req.Scope
	m.noCache = true
	m.coreID = req.Core
	l.down[m.coreID].SendCtx(deliverFillMsg, m)
}

// recall takes coreID's copy of ln back from its L1, invalidating it or
// downgrading it to Shared, and merges dirty data into ln. It reports
// whether the L1 held the line.
func (l *LLC) recall(ln *Line, coreID int, invalidate bool) bool {
	data, writer, dirty, present := l.l1s[coreID].RecallLine(ln.Addr, invalidate)
	if dirty {
		l.arr.SetData(ln, data)
		ln.Writer = writer
		ln.Dirty = true
	}
	return present
}

// evictVictim enforces inclusivity: recall every L1 copy, write back dirty
// data, invalidate.
func (l *LLC) evictVictim(v *Line) {
	for i := range l.l1s {
		if v.Sharers&(1<<uint(i)) != 0 || v.Owner() == i {
			l.recall(v, i, true)
		}
	}
	if v.Dirty {
		l.writebackToMemory(v)
	}
	l.arr.Invalidate(v)
}

func (l *LLC) writebackToMemory(v *Line) {
	l.Writebacks.Inc()
	r := l.Pool.Get()
	r.Kind, r.Line, r.Scope = mem.ReqWriteback, v.Addr, v.Scope
	r.Writer, r.Core = v.Writer, -1
	if data := l.arr.Data(v); data != nil {
		r.Data = l.Pool.CloneLine(data)
		r.DataPooled = true
	}
	l.egressPush(r)
}

// WritebackFromL1 merges a dirty L1 eviction. State changes are atomic;
// the link occupancy is charged by the caller's event timing.
func (l *LLC) WritebackFromL1(coreID int, line mem.LineAddr, data []byte, writer uint64) {
	ln := l.arr.Peek(line)
	if !ln.Valid() {
		// Raced with an LLC eviction whose recall already captured the
		// data; nothing to do.
		return
	}
	l.arr.SetData(ln, data)
	ln.Writer = writer
	ln.Dirty = true
	if ln.Owner() == coreID {
		ln.setOwner(-1)
	}
	ln.Sharers &^= 1 << uint(coreID)
}

// handleFlush implements the SW-Flush baseline's cache-line flush.
func (l *LLC) handleFlush(req *mem.Request) sim.Tick {
	cost := l.HitLatency
	ln := l.arr.Peek(req.Line)
	if ln.Valid() {
		l.evictVictim(ln) // recalls L1 copies, writes back if dirty
		cost += l.Scan.PerLine
	}
	l.ackRequester(req)
	return cost
}

// ackRequester completes a request that terminates at the LLC (flush,
// scope-fence) by sending it back over the issuing core's response link;
// the completion callback — and the release — run at the core tile. A
// request nobody waits on is released here.
func (l *LLC) ackRequester(req *mem.Request) {
	if req.OnDone != nil {
		l.down[req.Core].SendCtx(completeReq, req)
	} else {
		l.Pool.Put(req)
	}
}

// handlePIMOp implements Fig. 4: scope buffer lookup, scan-and-flush on a
// miss, then forwarding to the memory controller. Baseline models forward
// without any coherence action.
func (l *LLC) handlePIMOp(req *mem.Request) sim.Tick {
	if !l.Model.FlushesLLCOnPIMOp() {
		l.egressPush(req)
		return 1
	}
	cost := l.flushScope(req.Scope)
	l.ScanLatency.Observe(float64(cost))
	l.egressPush(req)
	return l.HitLatency + cost
}

// flushScope is the LLC's scan-and-flush for a PIM op or scope-fence: it
// marks outstanding misses to the scope stale, then, unless the scope
// buffer hits, flushes every line of the scope (recalling L1 copies
// first). It returns the scan's cost, 0 on a scope-buffer hit.
func (l *LLC) flushScope(scope mem.ScopeID) sim.Tick {
	l.markStaleMisses(scope)
	hit, sets, flushed := l.arr.flushScope(scope, l.evictVictim)
	if hit {
		l.SBHitRate.Hit()
		return 0
	}
	l.SBHitRate.Miss()
	l.Scans.Inc()
	l.LinesFlushed.Add(uint64(flushed))
	l.SkipRatio.Observe(1 - float64(sets)/float64(l.arr.sets))
	if l.Tracer.Enabled(trace.CatCache) {
		l.Tracer.Emit(trace.CatCache, "llc", "scan scope=%d sets=%d flushed=%d", scope, sets, flushed)
	}
	return l.Scan.of(sets, flushed)
}

// markStaleMisses flags outstanding misses of the scope so their fills do
// not resurrect flushed lines (see fillArrived).
func (l *LLC) markStaleMisses(scope mem.ScopeID) {
	l.mshr.Range(func(line mem.LineAddr, e *llcMiss) {
		if l.Scopes.ScopeOf(line.Addr()) == scope {
			e.stale = true
		}
	})
}

// egressPush appends a request to the FIFO toward the memory controller
// and pumps it. Credits against the MC queue guarantee delivery order and
// acceptance (the LLC is the controller's only producer).
func (l *LLC) egressPush(req *mem.Request) {
	l.egress = append(l.egress, req)
	l.pump()
}

func (l *LLC) pump() {
	if l.pumping {
		return
	}
	l.pumping = true
	for l.egHead < len(l.egress) && l.mc.QueueLen()+l.inflightMC < l.mc.QueueSize {
		req := l.egress[l.egHead]
		l.egress[l.egHead] = nil
		l.egHead++
		l.inflightMC++
		l.mcLink.SendOrderedCtx(l.mcDeliverFn, req)
	}
	if l.egHead == len(l.egress) {
		l.egress = l.egress[:0]
		l.egHead = 0
	}
	l.pumping = false
}

// EgressBacklog reports requests waiting for MC space (congestion signal).
func (l *LLC) EgressBacklog() int { return len(l.egress) - l.egHead }

// HasLine reports LLC presence of a line (tests).
func (l *LLC) HasLine(line mem.LineAddr) bool { return l.arr.Peek(line).Valid() }

// LineCount reports valid lines (tests).
func (l *LLC) LineCount() int { return l.arr.CountValid() }

// PayloadBlocks reports how many payload slot blocks the cache's arena
// holds (tests: a timing-only machine grows none).
func (l *LLC) PayloadBlocks() int { return len(l.arr.slots.blocks) }

// L1s exposes the connected L1 caches (system wiring, tests).
func (l *LLC) L1s() []*L1 { return l.l1s }

// CheckInclusive verifies every valid L1 line is present in the LLC
// (property tests). It returns the first violating line address.
func (l *LLC) CheckInclusive() (mem.LineAddr, bool) {
	for _, l1 := range l.l1s {
		for i := range l1.arr.lines {
			ln := &l1.arr.lines[i]
			if ln.valid && !l.arr.Peek(ln.Addr).Valid() {
				return ln.Addr, true
			}
		}
	}
	return 0, false
}

// CheckSBV verifies, for the LLC and every L1 with a scope bit-vector,
// that each set's bit equals "the set holds a valid line of a PIM scope"
// (property tests).
func (l *LLC) CheckSBV() error {
	if err := l.arr.checkSBV(); err != nil {
		return fmt.Errorf("llc: %w", err)
	}
	for _, l1 := range l.l1s {
		if err := l1.arr.checkSBV(); err != nil {
			return fmt.Errorf("l1 %d: %w", l1.CoreID, err)
		}
	}
	return nil
}

// CheckSWMR verifies the single-writer/multiple-reader invariant across
// L1s: a line modified in one L1 appears in no other L1.
func (l *LLC) CheckSWMR() (mem.LineAddr, bool) {
	type holder struct{ m, any int }
	var seen mem.LineTable[*holder]
	for _, l1 := range l.l1s {
		for i := range l1.arr.lines {
			ln := &l1.arr.lines[i]
			if !ln.valid {
				continue
			}
			h, _ := seen.Get(ln.Addr)
			if h == nil {
				h = &holder{}
				seen.Put(ln.Addr, h)
			}
			h.any++
			if ln.State == Modified || ln.State == Exclusive {
				h.m++
			}
		}
	}
	var bad mem.LineAddr
	found := false
	seen.Range(func(addr mem.LineAddr, h *holder) {
		if !found && h.m > 0 && h.any > 1 {
			bad, found = addr, true
		}
	})
	return bad, found
}
