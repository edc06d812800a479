package cache

import (
	"unsafe"

	"bulkpim/internal/mem"
	"bulkpim/internal/noc"
	"bulkpim/internal/sim"
	"bulkpim/internal/stats"
)

// L1 is a private first-level cache. Under the scope-relaxed model its
// array also carries a scope unit so scope-fences can scan it (§V-E); PIM
// ops pass through it unflushed on their way to the LLC.
type L1 struct {
	k      *sim.Kernel
	CoreID int

	arr        setAssoc
	HitLatency sim.Tick
	// Scan prices a scope-fence's scan-and-flush here.
	Scan ScanCost

	llc *LLC
	up  *noc.Link // requests toward the LLC

	// Pool supplies requests: the machine's pool, which every component
	// shares. Line payloads live in arr's slot arena.
	Pool *mem.RequestPool

	l1Reuse

	Hits, Misses stats.Counter
	Writebacks   stats.Counter
}

// l1Reuse is what a released L1 hands the next L1 built on its struct
// (Release, NewL1): the hoisted callbacks, which name that struct, and the
// miss table and recycled miss entries its runs grew, emptied.
type l1Reuse struct {
	mshr     mem.LineTable[*l1Miss]
	missFree []*l1Miss

	// deliverW/deliverX are reusable snapshots for waiter delivery:
	// waiters detach from the MSHR entry before running so a re-entrant
	// join lands on fresh state, without allocating per fill.
	deliverW []FillWaiter
	deliverX []ExclWaiter

	// Hoisted event/link callbacks so the miss and PIM-forward paths
	// schedule without allocating closures.
	recvFn func(any)
	fwdFn  func(any)
}

type l1Miss struct {
	excl    bool
	stale   bool // scope flushed while miss outstanding: do not install
	waiters []FillWaiter
	// exclWaiters are store completions that need a writable fill.
	exclWaiters []ExclWaiter
}

// l1Free holds released L1s.
var l1Free = sim.NewFreeList[*L1]()

// NewL1 builds a private cache of sets x ways bound to kernel k that
// draws requests from pool, on a released L1's struct when one is free.
// The upstream link and LLC are wired by system.New via Connect.
func NewL1(k *sim.Kernel, pool *mem.RequestPool, coreID, sets, ways int, hitLatency sim.Tick) *L1 {
	c, ok := l1Free.Get(0)
	if !ok {
		c = new(L1)
		c.recvFn = func(x any) { c.llc.Receive(x.(*mem.Request)) }
		c.fwdFn = func(x any) { c.up.SendOrderedCtx(c.recvFn, x) }
	}
	*c = L1{
		k:          k,
		CoreID:     coreID,
		arr:        newSetAssoc(sets, ways),
		HitLatency: hitLatency,
		Scan:       tableIIScan,
		Pool:       pool,
		l1Reuse:    c.l1Reuse,
	}
	return c
}

// Release hands the line array, its payload blocks and scope unit to
// the free lists, and c itself, with the storage its runs grew, to the
// next NewL1. The machine must be drained; the caller drops c.
func (c *L1) Release() {
	c.arr.recycle()
	r := c.l1Reuse
	r.mshr.Reset()
	clear(r.deliverW[:cap(r.deliverW)])
	clear(r.deliverX[:cap(r.deliverX)])
	*c = L1{l1Reuse: r}
	l1Free.Put(0, int(unsafe.Sizeof(L1{})), c)
}

// Connect wires the L1 to its LLC and upstream link.
func (c *L1) Connect(llc *LLC, up *noc.Link) {
	c.llc = llc
	c.up = up
}

// EnableScope gives the cache a scope unit: a scope buffer of sbSets x
// sbWays (none when sbSets is 0) and, if sbv, a scope bit-vector.
func (c *L1) EnableScope(sbSets, sbWays int, sbv bool) { c.arr.enableScope(sbSets, sbWays, sbv) }

func (c *L1) getMiss(excl bool) *l1Miss {
	if n := len(c.missFree); n > 0 {
		e := c.missFree[n-1]
		c.missFree = c.missFree[:n-1]
		e.excl = excl
		return e
	}
	return &l1Miss{excl: excl}
}

func (c *L1) putMiss(e *l1Miss) {
	for i := range e.waiters {
		e.waiters[i] = FillWaiter{}
	}
	for i := range e.exclWaiters {
		e.exclWaiters[i] = ExclWaiter{}
	}
	e.waiters = e.waiters[:0]
	e.exclWaiters = e.exclWaiters[:0]
	e.excl, e.stale = false, false
	c.missFree = append(c.missFree, e)
}

// TryLoad returns the line's data and writer on a hit. The returned slice
// is the cache's own payload slot: callers consume it synchronously.
func (c *L1) TryLoad(l mem.LineAddr) (data []byte, writer uint64, ok bool) {
	if ln := c.arr.Lookup(l); ln.Valid() {
		c.Hits.Inc()
		return c.arr.Data(ln), ln.Writer, true
	}
	return nil, 0, false
}

// TryStore writes bytes into the line if the cache holds write permission
// (E or M), transitioning it to M. A nil data (timing-only store) writes
// no payload.
func (c *L1) TryStore(l mem.LineAddr, off int, data []byte, writer uint64) bool {
	ln := c.arr.Lookup(l)
	if !ln.Valid() || (ln.State != Exclusive && ln.State != Modified) {
		return false
	}
	c.Hits.Inc()
	if data != nil {
		copy(c.arr.payload(ln)[off:off+len(data)], data)
	}
	ln.State = Modified
	ln.Writer = writer
	return true
}

// HasLine reports presence (tests, adversarial prefetcher).
func (c *L1) HasLine(l mem.LineAddr) bool { return c.arr.Peek(l).Valid() }

// RequestLine issues (or joins) a miss. done receives the line data when
// the fill arrives; for exclusive requests the line is installed writable
// before exclDone runs. Joining an outstanding miss consumes (releases)
// req — it never leaves the core tile.
func (c *L1) RequestLine(req *mem.Request, done FillWaiter, exclDone ExclWaiter) {
	c.Misses.Inc()
	l := req.Line
	if e, ok := c.mshr.Get(l); ok {
		if done.Fn != nil {
			e.waiters = append(e.waiters, done)
		}
		if exclDone.Fn != nil {
			e.exclWaiters = append(e.exclWaiters, exclDone)
			// Upgrade needed; the fill logic reissues as exclusive.
		}
		c.Pool.Put(req)
		return
	}
	e := c.getMiss(req.Excl)
	if done.Fn != nil {
		e.waiters = append(e.waiters, done)
	}
	if exclDone.Fn != nil {
		e.exclWaiters = append(e.exclWaiters, exclDone)
	}
	c.mshr.Put(l, e)
	c.sendMiss(req)
}

func (c *L1) sendMiss(req *mem.Request) {
	c.up.SendCtx(c.recvFn, req)
}

// ForwardPIM routes a PIM op (or scope-fence) through this cache level
// toward the LLC without flushing it (scope-relaxed, §V-E). PIM ops and
// scope-fences keep FIFO order on this path — the network must not let an
// op overtake a fence it follows (§V-E's "not allowed to reorder around
// the scope-fence in any path").
func (c *L1) ForwardPIM(req *mem.Request) {
	c.k.ScheduleCtx(c.HitLatency, c.fwdFn, req)
}

// Fill delivers a line from the LLC. state is Shared or Exclusive;
// noCache fills (scope flushed while the miss was outstanding) are handed
// to waiters without installing. data is the sender's buffer and is only
// read during the call.
func (c *L1) Fill(l mem.LineAddr, state MESI, data []byte, writer uint64, scope mem.ScopeID, noCache bool) {
	e, _ := c.mshr.Get(l)
	if e == nil {
		// Unsolicited fill (possible after local stale handling); drop.
		return
	}
	if e.stale {
		noCache = true
		e.stale = false
	}
	if !noCache {
		c.install(l, state, data, writer, scope)
	}
	c.deliverW = append(c.deliverW[:0], e.waiters...)
	for i := range e.waiters {
		e.waiters[i] = FillWaiter{}
	}
	e.waiters = e.waiters[:0]
	for _, w := range c.deliverW {
		w.Fn(w.Ctx, l, data, writer)
	}
	// Exclusive waiters need a writable installed line.
	if len(e.exclWaiters) > 0 {
		ln := c.arr.Peek(l)
		if ln.Valid() && (ln.State == Exclusive || ln.State == Modified) {
			c.deliverX = append(c.deliverX[:0], e.exclWaiters...)
			c.mshr.Delete(l)
			c.putMiss(e)
			for _, w := range c.deliverX {
				w.Fn(w.Ctx)
			}
			return
		}
		// Fill was shared or bypassed: reissue exclusively.
		e.excl = true
		r := c.Pool.Get()
		r.Kind, r.Line, r.Scope, r.Core = mem.ReqLoad, l, scope, c.CoreID
		r.Excl = true
		c.sendMiss(r)
		return
	}
	c.mshr.Delete(l)
	c.putMiss(e)
}

func (c *L1) install(l mem.LineAddr, state MESI, data []byte, writer uint64, scope mem.ScopeID) {
	if ln := c.arr.Peek(l); ln.Valid() {
		// Upgrade in place (e.g. S -> E on a GetM fill).
		ln.State = state
		c.arr.SetData(ln, data)
		ln.Writer = writer
		return
	}
	v := c.arr.Victim(l)
	if v.Valid() {
		c.evict(v)
	}
	c.arr.Install(v, l, state, scope)
	c.arr.SetData(v, data)
	v.Writer = writer
}

func (c *L1) evict(v *Line) {
	if v.State == Modified {
		c.Writebacks.Inc()
		c.llc.WritebackFromL1(c.CoreID, v.Addr, c.arr.Data(v), v.Writer)
	}
	c.arr.Invalidate(v)
}

// RecallLine is the LLC-initiated downgrade/invalidate. dirty is the MESI
// state alone (the line was Modified), whether or not the line carries a
// payload. data is the line's payload, or nil when it has none (always on
// a timing-only machine); it aliases this cache's slot, whose bytes
// hold until the cache next hands out a slot, so the caller copies them
// at once.
func (c *L1) RecallLine(l mem.LineAddr, invalidate bool) (data []byte, writer uint64, dirty, present bool) {
	ln := c.arr.Peek(l)
	if !ln.Valid() {
		return nil, 0, false, false
	}
	data = c.arr.Data(ln)
	dirty = ln.State == Modified
	writer = ln.Writer
	if invalidate {
		c.arr.Invalidate(ln)
	} else if ln.State == Modified || ln.State == Exclusive {
		ln.State = Shared
	}
	return data, writer, dirty, true
}

// ScanFlushScope scans this cache for lines of the scope, writing dirty
// ones back to the LLC and invalidating all of them, marks outstanding
// misses to the scope stale, and returns the scan's cost. Scope-fences
// run it at every level they pass (§V-E).
func (c *L1) ScanFlushScope(scope mem.ScopeID) sim.Tick {
	_, sets, flushed := c.arr.flushScope(scope, c.evict)
	c.markStale(scope)
	return c.Scan.of(sets, flushed)
}

func (c *L1) markStale(scope mem.ScopeID) {
	if c.llc == nil || c.llc.Scopes == nil {
		return
	}
	c.mshr.Range(func(l mem.LineAddr, e *l1Miss) {
		if c.llc.Scopes.ScopeOf(l.Addr()) == scope {
			e.stale = true
		}
	})
}

// LineCount reports valid lines (tests).
func (c *L1) LineCount() int { return c.arr.CountValid() }

// PayloadBlocks reports how many payload slot blocks the cache's arena
// holds (tests: a timing-only machine grows none).
func (c *L1) PayloadBlocks() int { return len(c.arr.slots.blocks) }

// MSHRLen reports outstanding misses (deadlock diagnostics).
func (c *L1) MSHRLen() int { return c.mshr.Len() }
