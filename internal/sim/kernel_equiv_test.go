package sim

import "testing"

// referenceScheduler is the original (time, sequence) semantics expressed
// in the most obviously-correct way: an unordered pending list popped by
// linear min-scan. The arena/4-ary-heap/FIFO kernel must replay any random
// schedule in exactly this order.
type referenceScheduler struct {
	now     Tick
	seq     uint64
	pending []refEvent
}

type refEvent struct {
	when Tick
	seq  uint64
	fn   func()
}

func (s *referenceScheduler) schedule(delay Tick, fn func()) {
	s.seq++
	s.pending = append(s.pending, refEvent{when: s.now + delay, seq: s.seq, fn: fn})
}

func (s *referenceScheduler) run() {
	for len(s.pending) > 0 {
		s.fireMin()
	}
}

// min returns the index of the earliest pending event.
func (s *referenceScheduler) min() int {
	min := 0
	for i := 1; i < len(s.pending); i++ {
		e, m := s.pending[i], s.pending[min]
		if e.when < m.when || (e.when == m.when && e.seq < m.seq) {
			min = i
		}
	}
	return min
}

func (s *referenceScheduler) fireMin() {
	min := s.min()
	ev := s.pending[min]
	s.pending[min] = s.pending[len(s.pending)-1]
	s.pending = s.pending[:len(s.pending)-1]
	s.now = ev.when
	ev.fn()
}

// TestKernelEquivalence replays a large random schedule — including nested
// zero-delay cascades and same-tick collisions — through the kernel and
// through the reference scheduler, asserting identical firing order.
func TestKernelEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1 << 40} {
		const initial = 2000
		const maxChildren = 2

		// The workload is defined purely by the seed: event i fires and,
		// while its budget lasts, schedules children with pseudo-random
		// small delays (biased toward 0 and tick collisions). Running it
		// on either scheduler yields a firing-order trace of event ids.
		run := func(schedule func(Tick, func()), now func() Tick, run func()) []int {
			rng := NewRand(seed)
			var order []int
			next := 0
			budget := 10000
			var spawn func() func()
			spawn = func() func() {
				id := next
				next++
				return func() {
					order = append(order, id)
					if budget <= 0 {
						return
					}
					n := int(rng.Uint64n(maxChildren + 1))
					for i := 0; i < n && budget > 0; i++ {
						budget--
						schedule(Tick(rng.Uint64n(8)), spawn())
					}
				}
			}
			for i := 0; i < initial; i++ {
				schedule(Tick(rng.Uint64n(64)), spawn())
			}
			run()
			return order
		}

		k := NewKernel()
		got := run(func(d Tick, fn func()) { k.ScheduleCtx(d, callFn, fn) }, k.Now, func() {
			if _, err := k.Run(); err != nil {
				t.Fatal(err)
			}
		})
		ref := &referenceScheduler{}
		want := run(ref.schedule, func() Tick { return ref.now }, ref.run)

		compareTraces(t, seed, got, want)
	}
}

// TestKernelEquivalenceWideDelays exercises the wheel/heap boundary: delays
// straddle the wheel horizon (some < wheelSize, some several horizons out)
// with deliberate tick collisions between near (bucket) and far (heap)
// schedules, where the far event must fire first because it was scheduled
// first. The reference scheduler has no horizon, so any boundary bug in
// bucket/heap ordering diverges the trace.
func TestKernelEquivalenceWideDelays(t *testing.T) {
	for _, seed := range []uint64{3, 1 << 33} {
		run := func(schedule func(Tick, func()), run func()) []int {
			rng := NewRand(seed)
			var order []int
			next := 0
			budget := 6000
			var spawn func() func()
			spawn = func() func() {
				id := next
				next++
				return func() {
					order = append(order, id)
					if budget <= 0 {
						return
					}
					n := int(rng.Uint64n(3))
					for i := 0; i < n && budget > 0; i++ {
						budget--
						var d Tick
						switch rng.Uint64n(4) {
						case 0:
							d = Tick(rng.Uint64n(8)) // same-tick / FIFO path
						case 1:
							d = Tick(rng.Uint64n(wheelSize)) // wheel
						case 2:
							d = wheelSize + Tick(rng.Uint64n(wheelSize)) // just past horizon
						default:
							d = Tick(rng.Uint64n(4 * wheelSize)) // collisions across the boundary
						}
						schedule(d, spawn())
					}
				}
			}
			for i := 0; i < 500; i++ {
				schedule(Tick(rng.Uint64n(3*wheelSize)), spawn())
			}
			run()
			return order
		}

		k := NewKernel()
		got := run(func(d Tick, fn func()) { k.ScheduleCtx(d, callFn, fn) }, func() {
			if _, err := k.Run(); err != nil {
				t.Fatal(err)
			}
		})
		ref := &referenceScheduler{}
		want := run(ref.schedule, ref.run)

		compareTraces(t, seed, got, want)
	}
}

// TestScheduleCtxAllocationFree pins the closure-free scheduling shape the
// components use: a package-level (or hoisted) func(any) plus a pointer
// context schedules and fires with zero heap allocations.
func TestScheduleCtxAllocationFree(t *testing.T) {
	k := NewKernel()
	type payload struct{ hits int }
	p := &payload{}
	fn := func(ctx any) { ctx.(*payload).hits++ }
	for i := 0; i < 2048; i++ {
		k.ScheduleCtx(Tick(i%97), fn, p)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		k.ScheduleCtx(1, fn, p)
		k.ScheduleCtx(2, fn, p)
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("ScheduleCtx/Run allocates %.1f objects per cycle, want 0", avg)
	}
}

// scheduler is the surface the equivalence harnesses drive, implemented
// by the kernel and by the reference scheduler.
type scheduler interface {
	schedule(delay Tick, fn func())
	now() Tick
	run()
	pending() int
}

type kernelSched struct {
	t *testing.T
	k *Kernel
}

func (s kernelSched) schedule(d Tick, fn func()) { s.k.ScheduleCtx(d, callFn, fn) }
func (s kernelSched) now() Tick                  { return s.k.Now() }
func (s kernelSched) pending() int               { return s.k.Pending() }
func (s kernelSched) run() {
	if _, err := s.k.Run(); err != nil {
		s.t.Fatal(err)
	}
}

type refSched struct{ r *referenceScheduler }

func (s refSched) schedule(d Tick, fn func()) { s.r.schedule(d, fn) }
func (s refSched) now() Tick                  { return s.r.now }
func (s refSched) pending() int               { return len(s.r.pending) }
func (s refSched) run()                       { s.r.run() }

// compareTraces fails at the first firing-order divergence.
func compareTraces(t *testing.T, seed uint64, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d: firing order diverges at event %d: kernel %d, reference %d",
				seed, i, got[i], want[i])
		}
	}
}

// Event kinds by the structure the kernel queues them on.
const (
	kindHeap   = 1 << iota // scheduled >= wheelSize ahead
	kindBucket             // scheduled 1..wheelSize-1 ahead
	kindFIFO               // scheduled for the current tick
)

func kindOf(d Tick) uint8 {
	switch {
	case d == 0:
		return kindFIFO
	case d < wheelSize:
		return kindBucket
	}
	return kindHeap
}

// TestKernelEquivalenceHeapBucketCascade drives ticks where far-future
// heap events, wheel-bucket events and zero-delay cascades all fire
// together. Events aim at "hot" ticks (multiples of 97) up to ~2.4
// horizons ahead, so a hot tick collects heap events scheduled early and
// bucket events scheduled once it is inside the horizon, and every event
// may add same-tick children. The harness requires at least one tick
// that fired all three kinds, so the schedule cannot drift away from the
// case it exists for.
func TestKernelEquivalenceHeapBucketCascade(t *testing.T) {
	const hot = 97
	for _, seed := range []uint64{5, 11, 1 << 35} {
		trace := func(s scheduler) ([]int, map[Tick]uint8) {
			rng := NewRand(seed)
			var order []int
			kinds := map[Tick]uint8{}
			next, budget := 0, 8000
			var spawn func(kind uint8) func()
			add := func(d Tick) {
				budget--
				s.schedule(d, spawn(kindOf(d)))
			}
			spawn = func(kind uint8) func() {
				id := next
				next++
				return func() {
					order = append(order, id)
					kinds[s.now()] |= kind
					n := int(rng.Uint64n(3))
					for i := 0; i < n && budget > 0; i++ {
						switch rng.Uint64n(3) {
						case 0:
							add(0)
						case 1:
							add(Tick(rng.Uint64n(40)))
						default:
							now := s.now()
							target := (now/hot + 1 + Tick(rng.Uint64n(25))) * hot
							add(target - now)
						}
					}
				}
			}
			for i := 0; i < 400; i++ {
				add(Tick(rng.Uint64n(3 * wheelSize)))
			}
			s.run()
			return order, kinds
		}

		got, kinds := trace(kernelSched{t, NewKernel()})
		want, _ := trace(refSched{&referenceScheduler{}})
		compareTraces(t, seed, got, want)
		full := 0
		for _, k := range kinds {
			if k == kindHeap|kindBucket|kindFIFO {
				full++
			}
		}
		if full == 0 {
			t.Fatalf("seed %d: no tick fired heap, bucket and same-tick events together", seed)
		}
	}
}

// TestKernelEquivalenceRunAgain runs one kernel to drain many times:
// between runs the driver schedules fresh events from outside, at a
// clock left wherever the last run ended, so buckets are entered at
// every wheel phase. Crowded ticks and zero-delay children make each run
// fire bucket and same-tick events together. The kernel side replays
// the schedule twice, on a fresh kernel and then on a kernel given the
// first one's released buckets, grown to the schedule's shape. Firing order and the clock after every step must match the
// reference.
func TestKernelEquivalenceRunAgain(t *testing.T) {
	for _, seed := range []uint64{2, 9, 1 << 41} {
		trace := func(s scheduler) ([]int, []Tick) {
			rng := NewRand(seed)
			var order []int
			var clocks []Tick
			next, budget := 0, 6000
			var spawn func() func()
			spawn = func() func() {
				id := next
				next++
				return func() {
					order = append(order, id)
					n := int(rng.Uint64n(3))
					for i := 0; i < n && budget > 0; i++ {
						budget--
						s.schedule(Tick(rng.Uint64n(6)/2), spawn()) // half same-tick
					}
				}
			}
			for i := 0; i < 300; i++ {
				s.schedule(Tick(rng.Uint64n(16)), spawn())
			}
			for step := 0; step < 400; step++ {
				if rng.Uint64n(3) == 0 {
					s.run()
				} else {
					for n := rng.Uint64n(8); n > 0; n-- {
						s.schedule(Tick(rng.Uint64n(2*wheelSize)), spawn())
					}
				}
				clocks = append(clocks, s.now())
			}
			s.run()
			if s.pending() != 0 {
				t.Fatalf("seed %d: %d events pending after Run", seed, s.pending())
			}
			return order, append(clocks, s.now())
		}

		want, wantClocks := trace(refSched{&referenceScheduler{}})
		DropFreeLists()
		k := NewKernel()
		for pass, name := range []string{"fresh", "recycled"} {
			if pass == 1 {
				released := k
				k.Release()
				if k = NewKernel(); k != released {
					t.Fatalf("seed %d: NewKernel did not reuse the released kernel", seed)
				}
			}
			got, gotClocks := trace(kernelSched{t, k})
			compareTraces(t, seed, got, want)
			for i := range wantClocks {
				if gotClocks[i] != wantClocks[i] {
					t.Fatalf("seed %d, %s kernel: clock after step %d is %d, reference %d",
						seed, name, i, gotClocks[i], wantClocks[i])
				}
			}
		}
	}
}
