package sim

import (
	"testing"
	"testing/quick"
)

// callFn runs the closure carried in the ctx slot, so tests can schedule
// plain closures through the (fn, ctx) API.
func callFn(ctx any) { ctx.(func())() }

func TestKernelFiresInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []Tick
	k.ScheduleCtx(30, callFn, func() { got = append(got, 30) })
	k.ScheduleCtx(10, callFn, func() { got = append(got, 10) })
	k.ScheduleCtx(20, callFn, func() { got = append(got, 20) })
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 30 {
		t.Fatalf("end = %d, want 30", end)
	}
	want := []Tick{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestKernelFIFOWithinTick(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.ScheduleCtx(5, callFn, func() { got = append(got, i) })
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-tick order %v not FIFO", got)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var trace []Tick
	k.ScheduleCtx(1, callFn, func() {
		trace = append(trace, k.Now())
		k.ScheduleCtx(4, callFn, func() { trace = append(trace, k.Now()) })
		k.ScheduleCtx(0, callFn, func() { trace = append(trace, k.Now()) })
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Tick{1, 1, 5}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestKernelZeroDelayRunsAfterQueuedSameTick(t *testing.T) {
	k := NewKernel()
	var got []string
	k.ScheduleCtx(2, callFn, func() { got = append(got, "a") })
	k.ScheduleCtx(2, callFn, func() {
		got = append(got, "b")
		k.ScheduleCtx(0, callFn, func() { got = append(got, "d") })
	})
	k.ScheduleCtx(2, callFn, func() { got = append(got, "c") })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "abcd"
	var s string
	for _, g := range got {
		s += g
	}
	if s != want {
		t.Fatalf("order %q, want %q", s, want)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.ScheduleCtx(10, callFn, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.ScheduleAtCtx(5, callFn, func() {})
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// The event limit stops Run before the event that would exceed it, which
// stays pending: exactly EventLimit events fire, whether the next one
// comes from a wheel bucket (delay 1) or the same-tick FIFO (delay 0).
func TestEventLimit(t *testing.T) {
	for _, delay := range []Tick{1, 0} {
		k := NewKernel()
		k.EventLimit = 100
		var tick func()
		tick = func() { k.ScheduleCtx(delay, callFn, tick) }
		k.ScheduleCtx(1, callFn, tick)
		if _, err := k.Run(); err != ErrEventLimit {
			t.Fatalf("delay %d: err = %v, want ErrEventLimit", delay, err)
		}
		if k.Fired() != 100 || k.Pending() != 1 {
			t.Fatalf("delay %d: after the limit fired %d, pending %d; want 100, 1", delay, k.Fired(), k.Pending())
		}
		// Raising the limit resumes with the held event.
		k.EventLimit = 150
		if _, err := k.Run(); err != ErrEventLimit || k.Fired() != 150 || k.Pending() != 1 {
			t.Fatalf("delay %d: resumed run: err %v, fired %d, pending %d; want ErrEventLimit, 150, 1",
				delay, err, k.Fired(), k.Pending())
		}
	}
}

// A released kernel goes to the next NewKernel whole, grown buckets
// included, and comes back at time zero with nothing pending. Until then
// it panics when run or released again, and its seed holds no entry that
// would keep the last machine alive.
func TestKernelRelease(t *testing.T) {
	DropFreeLists()
	k := NewKernel()
	for i := Tick(1); i <= 3000; i += 7 {
		k.ScheduleCtx(i, callFn, func() {})
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Eight events on one tick move its bucket out of the seed array.
	b := uint32(k.Now()+5) & wheelMask
	for i := 0; i < 8; i++ {
		k.ScheduleCtx(5, callFn, func() {})
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Release()
	for i, e := range k.seed {
		if e.fn != nil || e.ctx != nil {
			t.Fatalf("released seed slot %d still holds an entry", i)
		}
	}
	for name, use := range map[string]func(){
		"Release": k.Release,
		"Run":     func() { k.Run() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released kernel did not panic", name)
				}
			}()
			use()
		}()
	}
	k2 := NewKernel()
	if k2 != k || cap(k2.wheel[b]) < 8 {
		t.Fatalf("NewKernel did not reuse the released kernel (bucket %d has cap %d)", b, cap(k2.wheel[b]))
	}
	if k2.Now() != 0 || k2.Fired() != 0 || k2.Pending() != 0 {
		t.Fatalf("recycled kernel at now %d, fired %d, pending %d; want 0, 0, 0",
			k2.Now(), k2.Fired(), k2.Pending())
	}
	var got []Tick
	k2.ScheduleCtx(5, callFn, func() { got = append(got, k2.Now()) })
	k2.ScheduleCtx(2000, callFn, func() { got = append(got, k2.Now()) })
	if _, err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 5 || got[1] != 2000 {
		t.Fatalf("recycled kernel fired at %v, want [5 2000]", got)
	}
}

// An event scheduled on a released kernel would fire on the next
// machine's; NewKernel refuses such a kernel.
func TestNewKernelRefusesScheduledReleasedKernel(t *testing.T) {
	DropFreeLists()
	k := NewKernel()
	k.Release()
	k.ScheduleCtx(3, callFn, func() {})
	defer func() {
		if recover() == nil {
			t.Error("NewKernel handed out a released kernel holding an event")
		}
	}()
	NewKernel()
}

// A kernel that still holds events, as after a failed Run, refuses
// Release and keeps its wheel.
func TestKernelReleasePending(t *testing.T) {
	DropFreeLists()
	k := NewKernel()
	k.EventLimit = 10
	for i := Tick(1); i <= 100; i++ {
		k.ScheduleCtx(i, callFn, func() {})
	}
	if _, err := k.Run(); err != ErrEventLimit {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
	if n := k.Pending(); n != 90 {
		t.Fatalf("pending after the limit = %d, want 90", n)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Release of a kernel with pending events did not panic")
			}
		}()
		k.Release()
	}()
	if n := len(kernelFree.classes[0]); n != 0 {
		t.Fatalf("free list holds %d kernels after a refused Release, want 0", n)
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and ties fire in schedule order.
func TestKernelOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		k := NewKernel()
		type fire struct {
			at  Tick
			seq int
		}
		var fires []fire
		for i, d := range delays {
			i, d := i, d
			k.ScheduleCtx(Tick(d%512), callFn, func() { fires = append(fires, fire{k.Now(), i}) })
		}
		if _, err := k.Run(); err != nil {
			return false
		}
		seen := make(map[Tick][]int)
		var last Tick
		for _, f := range fires {
			if f.at < last {
				return false
			}
			last = f.at
			seen[f.at] = append(seen[f.at], f.seq)
		}
		for _, seqs := range seen {
			for i := 1; i < len(seqs); i++ {
				if seqs[i] < seqs[i-1] {
					return false
				}
			}
		}
		return len(fires) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Fatal("different seeds produced same first value")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
		if v := r.Uint64n(3); v >= 3 {
			t.Fatalf("Uint64n out of range: %d", v)
		}
	}
}

func TestRandForkIndependent(t *testing.T) {
	r := NewRand(9)
	f := r.Fork()
	if f.Uint64() == r.Uint64() {
		t.Fatal("fork mirrors parent")
	}
}
