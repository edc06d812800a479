// Package cache implements the host cache hierarchy of §V-A: private L1s
// and a shared, inclusive last-level cache with a MESI directory, extended
// with the paper's coherence hardware — per-cache scope buffer and scope
// bit-vector — and the scan-and-flush operation PIM ops and scope-fences
// perform on their way to memory (§IV).
//
// Protocol design note: coherence state transitions execute atomically
// inside event handlers (no transient states); message latencies are
// charged on the request/response paths. This keeps the protocol
// race-free by construction while preserving the timing behaviour the
// paper's evaluation depends on (hit/miss latencies, scan cost, back
// pressure). One race the paper leaves implicit is handled explicitly:
// a miss outstanding to a scope when a PIM op scans the LLC would install
// a pre-PIM line after the flush; such fills are delivered bypass-cache
// (loads) or replayed (stores), because the flush must be atomic with the
// op and a load that missed before it legitimately returns pre-PIM data.
//
// The coherence hardware is one unit wherever it sits: the set-assoc
// array owns its level's scope buffer and SBV, keeps the SBV in step with
// its own installs and invalidations, and runs the scan-and-flush both
// levels share, priced by one ScanCost.
package cache

import (
	"fmt"
	"unsafe"

	"bulkpim/internal/core"
	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
)

// MESI is the coherence state of a cached line.
type MESI uint8

const (
	Invalid MESI = iota
	Shared
	Exclusive
	Modified
)

func (s MESI) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "?"
	}
}

// Line is one cache line with its coherence and directory metadata. It
// holds no pointers and its zero value is an empty way, so a set-assoc
// array is one allocation the GC never scans. Fields run widest first so
// the struct packs into 48 bytes (TestLineLayout).
type Line struct {
	Addr mem.LineAddr
	// Writer is the happens-before event of the write that produced the
	// payload.
	Writer uint64
	// Directory state (LLC only): Sharers is a bitmask of cores holding S
	// copies; see Owner for the E/M holder.
	Sharers uint64

	used uint64
	// data is the payload's handle in the owning array's slot arena; 0
	// means the line has no payload.
	data  uint32
	Scope mem.ScopeID
	State MESI
	// Dirty marks LLC contents newer than memory (merged L1 writebacks).
	Dirty bool
	// owner is the E/M-holding core plus one; 0 means no owner.
	owner uint8
	valid bool
}

// Owner returns the core holding the line E/M (LLC directory), or -1.
func (ln *Line) Owner() int { return int(ln.owner) - 1 }

// setOwner records core as the E/M holder; -1 clears it.
func (ln *Line) setOwner(core int) { ln.owner = uint8(core + 1) }

// slotBlock is how many 64-byte payload slots an arena grows by.
const slotBlock = 128

// slotBlockBytes is one block's size.
const slotBlockBytes = slotBlock * mem.LineSize

// slotArena holds the payloads of one set-assoc array in 64-byte slots,
// allocated in blocks and recycled through a free list. Handles start at
// 1 so a zero Line.data means "no payload". Blocks never move, so a
// payload slice stays valid memory, but its contents belong to the slot's
// next owner once the line releases it.
type slotArena struct {
	blocks []*[slotBlock][mem.LineSize]byte
	free   []uint32
}

// blockFree holds released arenas' blocks. alloc zeroes every slot it
// hands out, so a recycled block needs no clearing.
var blockFree = sim.NewFreeList[*[slotBlock][mem.LineSize]byte]()

// lineFree holds released arrays' line slices, by length; newSetAssoc
// clears one before use.
var lineFree = sim.NewFreeList[[]Line]()

// alloc returns a zeroed slot's handle.
func (a *slotArena) alloc() uint32 {
	n := len(a.free)
	if n == 0 {
		base := uint32(len(a.blocks)) * slotBlock
		b, ok := blockFree.Get(slotBlock)
		if !ok {
			b = new([slotBlock][mem.LineSize]byte)
		}
		a.blocks = append(a.blocks, b)
		for i := uint32(slotBlock); i > 0; i-- {
			a.free = append(a.free, base+i)
		}
		n = slotBlock
	}
	h := a.free[n-1]
	a.free = a.free[:n-1]
	clear(a.bytes(h))
	return h
}

// release returns slot h to the free list.
func (a *slotArena) release(h uint32) { a.free = append(a.free, h) }

// recycle hands the arena's blocks to blockFree and empties it.
func (a *slotArena) recycle() {
	for _, b := range a.blocks {
		if !blockFree.Put(slotBlock, slotBlockBytes, b) {
			break
		}
	}
	a.blocks, a.free = nil, nil
}

// bytes is the payload of slot h (h != 0).
func (a *slotArena) bytes(h uint32) []byte {
	i := h - 1
	return a.blocks[i/slotBlock][i%slotBlock][:]
}

// setAssoc is an N-way set-associative array with LRU replacement. Line
// payloads live in its slot arena; Invalidate returns them. sb and sbv are
// the level's scope unit (§IV), each nil where the level lacks it.
type setAssoc struct {
	sets, ways int
	lines      []Line
	clock      uint64
	slots      slotArena
	sb         *core.ScopeBuffer
	sbv        *core.SBV
}

func newSetAssoc(sets, ways int) setAssoc {
	if sets <= 0 || ways <= 0 || sets&(sets-1) != 0 {
		panic("cache: geometry must be positive with power-of-two sets")
	}
	lines, ok := lineFree.Get(sets * ways)
	if ok {
		clear(lines)
	} else {
		lines = make([]Line, sets*ways)
	}
	return setAssoc{sets: sets, ways: ways, lines: lines}
}

// enableScope gives the array a scope buffer of sbSets x sbWays (none
// when sbSets is 0) and, if sbv, a scope bit-vector.
func (c *setAssoc) enableScope(sbSets, sbWays int, sbv bool) {
	if sbSets > 0 {
		c.sb = core.NewScopeBuffer(sbSets, sbWays)
	}
	if sbv {
		c.sbv = core.NewSBV(c.sets)
	}
}

// recycle hands the line array, the payload blocks and the scope unit to
// the free lists and leaves c unusable: any lookup on its nil line slice
// panics. It panics, too, if the SBV disagrees with the lines: every
// scan of the run was priced on that vector.
func (c *setAssoc) recycle() {
	if c.lines == nil {
		panic("cache: array released twice")
	}
	if err := c.checkSBV(); err != nil {
		panic("cache: " + err.Error())
	}
	lineFree.Put(len(c.lines), len(c.lines)*int(unsafe.Sizeof(Line{})), c.lines)
	c.lines = nil
	c.slots.recycle()
	if c.sb != nil {
		c.sb.Release()
		c.sb = nil
	}
	if c.sbv != nil {
		c.sbv.Release()
		c.sbv = nil
	}
}

// SetOf maps a line address to its set index.
func (c *setAssoc) SetOf(l mem.LineAddr) int {
	return int(l.Index() & uint64(c.sets-1))
}

func (c *setAssoc) set(idx int) []Line {
	return c.lines[idx*c.ways : (idx+1)*c.ways]
}

// Lookup returns the line if present, refreshing LRU.
func (c *setAssoc) Lookup(l mem.LineAddr) *Line {
	c.clock++
	if p := c.Peek(l); p != nil {
		p.used = c.clock
		return p
	}
	return nil
}

// Peek returns the line without touching LRU.
func (c *setAssoc) Peek(l mem.LineAddr) *Line {
	set := c.set(c.SetOf(l))
	for i := range set {
		if p := &set[i]; p.valid && p.Addr == l {
			return p
		}
	}
	return nil
}

// Victim returns the slot to fill for line l: an invalid way if one
// exists, else the LRU way (whose previous contents the caller must evict).
func (c *setAssoc) Victim(l mem.LineAddr) *Line {
	set := c.set(c.SetOf(l))
	victim := &set[0]
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
		if set[i].used < victim.used {
			victim = &set[i]
		}
	}
	return victim
}

// Install places line l of scope into slot v (which the caller has
// vacated). A line of a PIM scope raises its set's SBV bit and erases the
// scope from the scope buffer, whose claim that no line of the scope is
// cached no longer holds (§IV-A).
func (c *setAssoc) Install(v *Line, l mem.LineAddr, state MESI, scope mem.ScopeID) {
	c.clock++
	*v = Line{Addr: l, State: state, Scope: scope, used: c.clock, valid: true}
	if scope == mem.NoScope {
		return
	}
	if c.sbv != nil {
		c.sbv.OnInsert(c.SetOf(l))
	}
	if c.sb != nil {
		c.sb.Invalidate(scope)
	}
}

// Invalidate clears a line slot, returns its payload slot and drops a
// PIM line from its set's SBV count.
func (c *setAssoc) Invalidate(ln *Line) {
	if ln.valid && ln.Scope != mem.NoScope && c.sbv != nil {
		c.sbv.OnEvict(c.SetOf(ln.Addr))
	}
	if ln.data != 0 {
		c.slots.release(ln.data)
		ln.data = 0
	}
	ln.valid = false
	ln.State = Invalid
	ln.Sharers = 0
	ln.owner = 0
	ln.Dirty = false
}

// Data returns ln's payload, or nil if it has none. The slice aliases the
// arena: callers consume it before the line changes hands.
func (c *setAssoc) Data(ln *Line) []byte {
	if ln.data == 0 {
		return nil
	}
	return c.slots.bytes(ln.data)
}

// payload returns ln's payload, giving it a zeroed slot first if it has
// none.
func (c *setAssoc) payload(ln *Line) []byte {
	if ln.data == 0 {
		ln.data = c.slots.alloc()
	}
	return c.slots.bytes(ln.data)
}

// SetData copies src into ln's payload; a nil src releases the payload.
func (c *setAssoc) SetData(ln *Line, src []byte) {
	if src == nil {
		if ln.data != 0 {
			c.slots.release(ln.data)
			ln.data = 0
		}
		return
	}
	copy(c.payload(ln), src)
}

// Valid reports whether the slot holds a line.
func (ln *Line) Valid() bool { return ln != nil && ln.valid }

// flushScope is the scan-and-flush of §IV at this array. A scope-buffer
// hit means no line of the scope is cached: nothing is scanned. Otherwise
// it checks every set the SBV marks (every set without an SBV), hands each
// line of the scope to evict, which must invalidate it, and records the
// scope in the scope buffer. It returns whether the buffer hit, the sets
// checked and the lines flushed.
func (c *setAssoc) flushScope(scope mem.ScopeID, evict func(*Line)) (hit bool, sets, flushed int) {
	if c.sb != nil && c.sb.Lookup(scope) {
		return true, 0, 0
	}
	for s := 0; s < c.sets; s++ {
		if c.sbv != nil && !c.sbv.Test(s) {
			continue
		}
		sets++
		set := c.set(s)
		for i := range set {
			if set[i].valid && set[i].Scope == scope {
				flushed++
				evict(&set[i])
			}
		}
	}
	if c.sb != nil {
		c.sb.Insert(scope)
	}
	return false, sets, flushed
}

// checkSBV reports the first set whose SBV bit disagrees with "the set
// holds a valid line of a PIM scope". An array without an SBV passes.
func (c *setAssoc) checkSBV() error {
	for s := 0; c.sbv != nil && s < c.sets; s++ {
		set, pim := c.set(s), false
		for i := 0; i < len(set) && !pim; i++ {
			pim = set[i].valid && set[i].Scope != mem.NoScope
		}
		if pim != c.sbv.Test(s) {
			return fmt.Errorf("set %d: SBV bit %v, PIM line present %v", s, c.sbv.Test(s), pim)
		}
	}
	return nil
}

// ScanCost prices a scan-and-flush at either cache level: PerSet cycles
// per set checked plus PerLine per line flushed.
type ScanCost struct{ PerSet, PerLine sim.Tick }

// tableIIScan is the paper's scan cost (Table II), the caches' default.
var tableIIScan = ScanCost{PerSet: 1, PerLine: 2}

func (s ScanCost) of(sets, lines int) sim.Tick {
	return s.PerSet*sim.Tick(sets) + s.PerLine*sim.Tick(lines)
}

// CountValid returns the number of valid lines (tests).
func (c *setAssoc) CountValid() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// FillWaiter is a closure-free L1 fill continuation: Fn(Ctx, line, data,
// writer) runs when the miss's data arrives. Issuers pass a package-level
// function plus their own state as Ctx, so joining a miss allocates
// nothing.
type FillWaiter struct {
	Fn  func(ctx any, line mem.LineAddr, data []byte, writer uint64)
	Ctx any
}

// ExclWaiter is the closure-free continuation for store misses: Fn(Ctx)
// runs once the line is installed writable.
type ExclWaiter struct {
	Fn  func(ctx any)
	Ctx any
}

// completeReq adapts Request.Complete to the (fn, ctx) link-delivery shape:
// the LLC replies to flushes and fences by sending the request itself back
// over the core's response link.
func completeReq(x any) { x.(*mem.Request).Complete() }
