// Package sim provides a deterministic discrete-event simulation kernel.
//
// It is the substrate every timed component of the bulkpim system is built
// on: caches, the on-chip network, the memory controller, the PIM module and
// the CPU cores all schedule work as events on a single Kernel. The kernel
// is single-threaded and fully deterministic: two runs with the same seed
// and the same schedule order produce identical event interleavings.
package sim

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// Tick is simulated time, measured in CPU clock cycles.
type Tick uint64

// fifoEntry is a callback plus its context, 24 bytes. Carrying the context
// separately lets components schedule package-level functions with a
// pointer argument instead of allocating a fresh closure per event — the
// profile showed per-request closures as a top GC producer.
type fifoEntry struct {
	fn  func(any)
	ctx any
}

// event is a far-future (beyond the wheel horizon) scheduled callback held
// in the overflow heap. Events with equal time fire in schedule order
// (FIFO by sequence number), which keeps runs deterministic.
type event struct {
	when Tick
	seq  uint64
	fn   func(any)
	ctx  any
}

const (
	// wheelBits sizes the timing wheel. Component delays (cache hits, NoC
	// hops, DRAM timings) are overwhelmingly < 1024 ticks, so nearly every
	// event lands in a bucket and never touches the heap.
	wheelBits = 10
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// Kernel is a discrete-event scheduler. The zero value is not usable; use
// NewKernel.
//
// The pending set is split three ways, cheapest structure first:
//
//   - a timing wheel of wheelSize per-tick buckets with an occupancy
//     bitmap. Scheduling within the horizon is an append to
//     wheel[when%wheelSize]. Entering a tick fires its bucket where it
//     is: the bucket becomes the current batch and its entries run by
//     index, each slot cleared as it fires, with no copy and no bulk
//     clear. A tick holds ~1.2 events on average, so per-tick fixed
//     cost is per-event cost. Finding the next non-empty tick is a
//     bitmap scan, a handful of word tests for the usual near-future
//     event.
//   - a FIFO of zero-delay events scheduled while the tick executes.
//     They append in O(1) and fire after the rest of the bucket, which is
//     exactly (time, seq) order: every bucket entry was scheduled before
//     the tick began, so it is older than any same-tick event.
//   - a 4-ary min-heap over a pooled, index-stable arena for the rare
//     events scheduled >= wheelSize ticks ahead (refresh timers, watchdog
//     deadlines). Heap events never migrate. Entering their tick (~0.5%
//     of ticks) drains them onto the FIFO, followed by that tick's bucket,
//     so the FIFO alone carries the tick in order.
//
// Determinism semantics are unchanged from the original binary-heap
// kernel: events fire in (time, then schedule sequence) order. Bucket
// appends preserve schedule order, and a heap event always precedes bucket
// events of the same tick because it was necessarily scheduled earlier
// (when it was queued the tick was >= wheelSize away; bucket entries for
// that tick were queued later, once the tick was inside the horizon).
type Kernel struct {
	now Tick
	seq uint64

	wheel      [wheelSize][]fifoEntry // per-tick buckets, horizon wheelSize
	occ        [wheelSize / 64]uint64 // occupancy bitmap over buckets
	wheelCount int
	// seed is the array every bucket starts in (see NewKernel). A bucket
	// that outgrows its share moves out and leaves its entries behind
	// uncleared, so Release clears the seed.
	seed []fifoEntry
	// released marks a kernel handed to kernelFree (see Release).
	released bool

	arena []event  // index-stable pooled storage for far-future events
	free  []uint32 // recycled arena slots
	heap  []uint32 // 4-ary min-heap of arena indices

	// The current tick's pending events: the rest of its wheel bucket
	// (fired in place), then the FIFO of events scheduled during it.
	cur   []fifoEntry // the entered bucket, aliasing its wheel backing array
	chead int         // next unfired cur entry
	fifo  []fifoEntry // same-tick events, in sequence order
	fhead int         // next unfired fifo entry

	// EventLimit, when non-zero, aborts Run with ErrEventLimit once that
	// many events have fired. The event that would exceed it stays
	// pending. It is a watchdog against scheduling bugs (livelock /
	// runaway retry loops).
	EventLimit uint64
	fired      uint64
}

// kernelBytes is a kernel's size with its seed, the free list's measure
// of it.
const kernelBytes = int(unsafe.Sizeof(Kernel{})) + wheelSize*bucketSeedCap*int(unsafe.Sizeof(fifoEntry{}))

// kernelFree holds released kernels, wheel and all: the wheel stays
// inline in Kernel on the scheduling path, so the struct itself is what
// a machine hands on. A released kernel was drained, so every bucket is
// empty and every slot was cleared as it fired; Release clears what
// growing buckets left in the seed.
var kernelFree = NewFreeList[*Kernel]()

// ErrEventLimit is returned by Run when Kernel.EventLimit is exceeded.
var ErrEventLimit = fmt.Errorf("sim: event limit exceeded")

// NewKernel returns an empty kernel at time zero: a released kernel, with
// the buckets its run grew, when one is free.
func NewKernel() *Kernel {
	if k, ok := kernelFree.Get(0); ok {
		if n := k.Pending(); n != 0 {
			panic(fmt.Sprintf("sim: %d events scheduled on a released kernel", n))
		}
		k.released = false
		return k
	}
	k := &Kernel{
		arena: make([]event, 0, 64),
		heap:  make([]uint32, 0, 64),
		fifo:  make([]fifoEntry, 0, 64),
		// Seed every bucket with capacity from one contiguous backing
		// array so a bucket's first events don't each pay a small
		// allocation; a bucket that outgrows its seed capacity
		// reallocates once and keeps the larger array across wheel
		// rotations.
		seed: make([]fifoEntry, wheelSize*bucketSeedCap),
	}
	for i := range k.wheel {
		k.wheel[i] = k.seed[i*bucketSeedCap : i*bucketSeedCap : (i+1)*bucketSeedCap]
	}
	return k
}

// Release resets k to time zero and hands it to the next NewKernel: the
// caller must drop k, and running or releasing it before a NewKernel
// takes it panics. k must be drained; a kernel that still holds events
// panics here instead.
func (k *Kernel) Release() {
	if k.released {
		panic("sim: Release of a released kernel")
	}
	if n := k.Pending(); n != 0 {
		panic(fmt.Sprintf("sim: Release of a kernel with %d pending events", n))
	}
	// Entries left in the seed would keep this machine alive for as
	// long as the kernel is reused.
	clear(k.seed)
	k.now, k.seq, k.fired, k.EventLimit = 0, 0, 0, 0
	k.released = true
	kernelFree.Put(0, kernelBytes, k)
}

// bucketSeedCap is the initial per-bucket capacity carved from the
// wheel's seed array in NewKernel.
const bucketSeedCap = 4

// Now returns the current simulated time.
func (k *Kernel) Now() Tick { return k.now }

// Fired returns the number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// ScheduleCtx runs fn(ctx) after delay cycles (delay 0 means "later this
// cycle", after already-queued events for the current tick). Passing a
// long-lived fn (a package-level function or a field initialized once)
// with a per-event ctx schedules without allocating, where a capturing
// closure would allocate.
func (k *Kernel) ScheduleCtx(delay Tick, fn func(any), ctx any) {
	k.ScheduleAtCtx(k.now+delay, fn, ctx)
}

// ScheduleAtCtx runs fn(ctx) at absolute time when. Scheduling in the past
// is a programming error and panics.
func (k *Kernel) ScheduleAtCtx(when Tick, fn func(any), ctx any) {
	if when < k.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", when, k.now))
	}
	if when == k.now {
		// Same-tick fast path. The invariant making this correct: neither
		// the wheel nor the heap ever holds an event for the current tick
		// (entering a tick takes both, and past times panic above), so
		// this event belongs at the FIFO tail, behind the entered bucket.
		k.fifo = append(k.fifo, fifoEntry{fn: fn, ctx: ctx})
		return
	}
	if when-k.now < wheelSize {
		b := uint32(when) & wheelMask
		k.wheel[b] = append(k.wheel[b], fifoEntry{fn: fn, ctx: ctx})
		k.occ[b>>6] |= 1 << (b & 63)
		k.wheelCount++
		return
	}
	k.seq++
	idx := k.alloc()
	k.arena[idx] = event{when: when, seq: k.seq, fn: fn, ctx: ctx}
	k.push(idx)
}

// alloc returns a free arena slot, recycling fired events' slots before
// growing the arena.
func (k *Kernel) alloc() uint32 {
	if n := len(k.free); n > 0 {
		idx := k.free[n-1]
		k.free = k.free[:n-1]
		return idx
	}
	k.arena = append(k.arena, event{})
	return uint32(len(k.arena) - 1)
}

// nextPending returns the earliest pending tick across wheel and heap.
func (k *Kernel) nextPending() (Tick, bool) {
	t, ok := k.nextWheelTick()
	if len(k.heap) > 0 {
		if ht := k.arena[k.heap[0]].when; !ok || ht < t {
			return ht, true
		}
	}
	return t, ok
}

// nextWheelTick scans the occupancy bitmap circularly from the bucket
// after now for the first non-empty bucket and reconstructs its tick.
func (k *Kernel) nextWheelTick() (Tick, bool) {
	if k.wheelCount == 0 {
		return 0, false
	}
	start := uint32(k.now+1) & wheelMask
	w := int(start >> 6)
	if rem := k.occ[w] &^ (1<<(start&63) - 1); rem != 0 {
		return k.bucketTick(uint32(w<<6 + bits.TrailingZeros64(rem))), true
	}
	// Wrap through the remaining words; revisiting word w last picks up
	// bits below start (the farthest-future buckets).
	for i := 1; i <= len(k.occ); i++ {
		idx := (w + i) & (len(k.occ) - 1)
		if k.occ[idx] != 0 {
			return k.bucketTick(uint32(idx<<6 + bits.TrailingZeros64(k.occ[idx]))), true
		}
	}
	panic("sim: wheel count positive but occupancy bitmap empty")
}

// bucketTick maps a bucket index to its absolute tick: the unique time
// congruent to b mod wheelSize in (now, now+wheelSize].
func (k *Kernel) bucketTick(b uint32) Tick {
	t := k.now&^Tick(wheelMask) | Tick(b)
	if t <= k.now {
		t += wheelSize
	}
	return t
}

// Run executes events until the queue drains or the event limit is hit.
// It returns the time of the last executed event.
func (k *Kernel) Run() (Tick, error) {
	if k.released {
		panic("sim: Run of a released kernel")
	}
	for {
		e := k.next()
		if e == nil {
			t, ok := k.nextPending()
			if !ok {
				return k.now, nil
			}
			k.enterTick(t)
			continue
		}
		if k.EventLimit != 0 && k.fired >= k.EventLimit {
			k.unnext()
			return k.now, ErrEventLimit
		}
		k.fire(e)
	}
}

// next takes the current tick's next event: the rest of the entered
// bucket first, then the FIFO. It returns nil, with both reset for reuse,
// once the tick is exhausted. The returned slot stays valid until the
// next schedule call.
func (k *Kernel) next() *fifoEntry {
	if k.chead < len(k.cur) {
		k.chead++
		return &k.cur[k.chead-1]
	}
	if k.fhead < len(k.fifo) {
		k.fhead++
		return &k.fifo[k.fhead-1]
	}
	k.cur, k.chead = nil, 0
	k.fifo, k.fhead = k.fifo[:0], 0
	return nil
}

// unnext puts back the event next just took. A tick's FIFO is read only
// once its bucket is exhausted, so a started FIFO means the event came
// from it.
func (k *Kernel) unnext() {
	if k.fhead > 0 {
		k.fhead--
	} else {
		k.chead--
	}
}

// enterTick advances the clock to tick t and takes everything scheduled
// for it. Usually that is the wheel bucket alone, which becomes the
// current batch in place; its wheel slot is reset to empty over the same
// backing array, which nothing can append to while t is current (bucket
// b only receives ticks t+wheelSize and later). When far-future heap
// events are also due they are older than every bucket entry, so they go
// onto the FIFO in (time, seq) pop order with the bucket copied behind
// them.
func (k *Kernel) enterTick(t Tick) {
	k.now = t
	b := uint32(t) & wheelMask
	bkt := k.wheel[b]
	if len(bkt) > 0 {
		k.wheel[b] = bkt[:0]
		k.occ[b>>6] &^= 1 << (b & 63)
		k.wheelCount -= len(bkt)
	}
	if len(k.heap) == 0 || k.arena[k.heap[0]].when != t {
		k.cur = bkt
		return
	}
	for len(k.heap) > 0 && k.arena[k.heap[0]].when == t {
		idx := k.pop()
		ev := &k.arena[idx]
		k.fifo = append(k.fifo, fifoEntry{fn: ev.fn, ctx: ev.ctx})
		ev.fn, ev.ctx = nil, nil
		k.free = append(k.free, idx)
	}
	k.fifo = append(k.fifo, bkt...)
	clear(bkt) // release callbacks + ctx for the GC
}

// fire executes e, clearing its slot first so the callback and context
// don't outlive the event.
func (k *Kernel) fire(e *fifoEntry) {
	fn, ctx := e.fn, e.ctx
	*e = fifoEntry{}
	k.fired++
	fn(ctx)
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int {
	return len(k.heap) + k.wheelCount + len(k.cur) - k.chead + len(k.fifo) - k.fhead
}

// less orders arena indices by (time, sequence).
func (k *Kernel) less(a, b uint32) bool {
	ea, eb := &k.arena[a], &k.arena[b]
	if ea.when != eb.when {
		return ea.when < eb.when
	}
	return ea.seq < eb.seq
}

func (k *Kernel) push(idx uint32) {
	k.heap = append(k.heap, idx)
	i := len(k.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !k.less(k.heap[i], k.heap[parent]) {
			break
		}
		k.heap[i], k.heap[parent] = k.heap[parent], k.heap[i]
		i = parent
	}
}

func (k *Kernel) pop() uint32 {
	top := k.heap[0]
	last := len(k.heap) - 1
	k.heap[0] = k.heap[last]
	k.heap = k.heap[:last]
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		end := first + 4
		if end > last {
			end = last
		}
		smallest := i
		for c := first; c < end; c++ {
			if k.less(k.heap[c], k.heap[smallest]) {
				smallest = c
			}
		}
		if smallest == i {
			break
		}
		k.heap[i], k.heap[smallest] = k.heap[smallest], k.heap[i]
		i = smallest
	}
	return top
}
