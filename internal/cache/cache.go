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
// (loads) or replayed (stores). See DESIGN.md.
package cache

import (
	"bulkpim/internal/mem"
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

// Line is one cache line with its coherence and directory metadata.
type Line struct {
	Addr  mem.LineAddr
	State MESI
	// Dirty marks LLC contents newer than memory (merged L1 writebacks).
	Dirty bool
	// PIMEnabled marks lines of PIM-enabled scopes (drives the SBV).
	PIMEnabled bool
	Scope      mem.ScopeID
	// Data is the 64-byte payload; Writer the happens-before event of the
	// write that produced it.
	Data   []byte
	Writer uint64
	// Directory state (LLC only): Sharers is a bitmask of cores holding S
	// copies; Owner is the core holding E/M, or -1.
	Sharers uint64
	Owner   int

	used  uint64
	valid bool
}

// setAssoc is an N-way set-associative array with LRU replacement.
type setAssoc struct {
	sets, ways int
	lines      []Line
	clock      uint64
}

func newSetAssoc(sets, ways int) setAssoc {
	if sets <= 0 || ways <= 0 || sets&(sets-1) != 0 {
		panic("cache: geometry must be positive with power-of-two sets")
	}
	lines := make([]Line, sets*ways)
	for i := range lines {
		lines[i].Owner = -1
	}
	return setAssoc{sets: sets, ways: ways, lines: lines}
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

// Install places a line into slot v (which the caller has vacated).
func (c *setAssoc) Install(v *Line, l mem.LineAddr, state MESI) {
	c.clock++
	*v = Line{Addr: l, State: state, Owner: -1, used: c.clock, valid: true}
}

// ForEachInSet visits valid lines of one set.
func (c *setAssoc) ForEachInSet(idx int, fn func(*Line)) {
	set := c.set(idx)
	for i := range set {
		if set[i].valid {
			fn(&set[i])
		}
	}
}

// Invalidate clears a line slot.
func (c *setAssoc) Invalidate(ln *Line) {
	ln.valid = false
	ln.State = Invalid
	ln.Data = nil
	ln.Sharers = 0
	ln.Owner = -1
	ln.Dirty = false
}

// Valid reports whether the slot holds a line.
func (ln *Line) Valid() bool { return ln != nil && ln.valid }

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

// Sets returns the set count.
func (c *setAssoc) Sets() int { return c.sets }

// Ways returns the way count.
func (c *setAssoc) Ways() int { return c.ways }

// cloneData copies line payloads defensively (tests; the hot paths use
// pooled buffers via setLineData / RequestPool.CloneLine instead).
func cloneData(d []byte) []byte {
	if d == nil {
		return nil
	}
	out := make([]byte, len(d))
	copy(out, d)
	return out
}

// setLineData copies src into ln's payload, reusing the line's pooled
// buffer in place (allocating one from the pool only on first use). A nil
// src releases the buffer. Every Line.Data in the hierarchy is pool-owned;
// the component invalidating a slot returns its buffer.
func setLineData(p *mem.RequestPool, ln *Line, src []byte) {
	if src == nil {
		if ln.Data != nil {
			p.PutLine(ln.Data)
			ln.Data = nil
		}
		return
	}
	if ln.Data == nil {
		ln.Data = p.GetLine()
	}
	copy(ln.Data[:mem.LineSize], src)
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
