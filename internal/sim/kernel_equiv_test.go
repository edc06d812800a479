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
		min := 0
		for i := 1; i < len(s.pending); i++ {
			e, m := s.pending[i], s.pending[min]
			if e.when < m.when || (e.when == m.when && e.seq < m.seq) {
				min = i
			}
		}
		ev := s.pending[min]
		s.pending[min] = s.pending[len(s.pending)-1]
		s.pending = s.pending[:len(s.pending)-1]
		s.now = ev.when
		ev.fn()
	}
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
}

// TestKernelEquivalenceRunUntil checks the windowed variant against the
// reference order: firing the same schedule in deadline slices must not
// reorder anything.
func TestKernelEquivalenceRunUntil(t *testing.T) {
	rng := NewRand(99)
	k := NewKernel()
	ref := &referenceScheduler{}
	var got, want []int
	for i := 0; i < 3000; i++ {
		i := i
		d := Tick(rng.Uint64n(200))
		k.ScheduleCtx(d, callFn, func() { got = append(got, i) })
		ref.schedule(d, func() { want = append(want, i) })
	}
	for deadline := Tick(0); deadline < 220; deadline += 13 {
		if _, err := k.RunUntil(deadline); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ref.run()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, reference fired %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order diverges at %d: kernel %d, reference %d", i, got[i], want[i])
		}
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
