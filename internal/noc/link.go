// Package noc models the host's on-chip interconnect. The paper's host
// assumption (3) is a memory subsystem that "can reorder operations passing
// through it, e.g. by a multi-path network-on-chip, virtual channels, or
// non-FIFO buffers" (§V-A); Link captures exactly that: messages experience
// a base latency, queueing when the link is saturated, and a deterministic
// per-message jitter that lets later messages overtake earlier ones, the
// reordering that makes PIM-op ordering enforcement necessary.
package noc

import (
	"unsafe"

	"bulkpim/internal/sim"
)

// Link is a point-to-point channel with bandwidth of one message per
// CyclesPerMsg cycles, fixed Latency, and jitter in [0, Jitter].
type Link struct {
	Name string

	k *sim.Kernel

	// Latency is the base traversal time in cycles.
	Latency sim.Tick
	// Jitter is the maximum extra delay; each message independently draws
	// from [0, Jitter]. Jitter > 0 permits reordering between messages.
	Jitter sim.Tick
	// CyclesPerMsg is the serialization time per message (bandwidth limit).
	CyclesPerMsg sim.Tick

	rng      sim.Rand
	nextFree sim.Tick

	// Delivered counts messages sent on the link.
	Delivered uint64
	// BusyCycles accumulates serialization time, for utilization reports.
	BusyCycles sim.Tick
}

// linkFree holds released links.
var linkFree = sim.NewFreeList[*Link]()

// NewLink builds a link bound to kernel k, on a released link's struct
// when one is free. It draws its jitter from a copy of rng, which it does
// not keep.
func NewLink(k *sim.Kernel, name string, latency, jitter, cyclesPerMsg sim.Tick, rng *sim.Rand) *Link {
	if cyclesPerMsg == 0 {
		cyclesPerMsg = 1
	}
	l, ok := linkFree.Get(0)
	if !ok {
		l = new(Link)
	}
	*l = Link{Name: name, k: k, Latency: latency, Jitter: jitter, CyclesPerMsg: cyclesPerMsg, rng: *rng}
	return l
}

// Release hands l to the next NewLink; the caller drops l.
func (l *Link) Release() {
	*l = Link{}
	linkFree.Put(0, int(unsafe.Sizeof(Link{})), l)
}

// SendCtx schedules fn(ctx) to run at the destination after link
// traversal. The returned tick is the delivery time. Messages serialize at
// the sender (bandwidth), then fly with latency+jitter, so two back-to-back
// messages can arrive out of order when the second draws a smaller jitter.
func (l *Link) SendCtx(fn func(any), ctx any) sim.Tick {
	now := l.k.Now()
	start := now
	if l.nextFree > start {
		start = l.nextFree
	}
	l.nextFree = start + l.CyclesPerMsg
	l.BusyCycles += l.CyclesPerMsg
	delay := start - now + l.Latency
	if l.Jitter > 0 {
		delay += sim.Tick(l.rng.Uint64n(uint64(l.Jitter) + 1))
	}
	at := now + delay
	l.k.ScheduleAtCtx(at, fn, ctx)
	l.Delivered++
	return at
}

// Backlog reports how far ahead of now the link's serialization point is:
// a congestion signal senders use as flow control.
func (l *Link) Backlog() sim.Tick {
	if l.nextFree > l.k.Now() {
		return l.nextFree - l.k.Now()
	}
	return 0
}

// SendOrderedCtx delivers fn(ctx) with the link's latency but no jitter
// and no overtaking relative to other ordered sends: delivery time is
// monotonically nondecreasing. Used for paths that hardware keeps FIFO
// (e.g. ACK wires).
func (l *Link) SendOrderedCtx(fn func(any), ctx any) sim.Tick {
	now := l.k.Now()
	start := now
	if l.nextFree > start {
		start = l.nextFree
	}
	l.nextFree = start + l.CyclesPerMsg
	l.BusyCycles += l.CyclesPerMsg
	at := start + l.Latency
	l.k.ScheduleAtCtx(at, fn, ctx)
	l.Delivered++
	return at
}
