package noc

import (
	"testing"

	"bulkpim/internal/sim"
)

func TestBacklogGrowsAndDrains(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "t", 5, 0, 10, sim.NewRand(1))
	if l.Backlog() != 0 {
		t.Fatal("fresh link has backlog")
	}
	for i := 0; i < 4; i++ {
		l.SendCtx(callFn, func() {})
	}
	if got := l.Backlog(); got != 40 {
		t.Fatalf("backlog = %d, want 40 (4 msgs x 10 cycles)", got)
	}
	// Probe the backlog from events at cycles 25 and 40, mid-run and
	// past the serialization horizon.
	var at25, at40 sim.Tick
	k.ScheduleAtCtx(25, callFn, func() { at25 = l.Backlog() })
	k.ScheduleAtCtx(40, callFn, func() { at40 = l.Backlog() })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at25 != 15 {
		t.Fatalf("backlog after 25 cycles = %d, want 15", at25)
	}
	if at40 != 0 {
		t.Fatalf("backlog at t=40 is %d, want 0", at40)
	}
	if l.BusyCycles != 40 {
		t.Fatalf("busy cycles = %d, want 40", l.BusyCycles)
	}
}

func TestMixedOrderedAndJittered(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "t", 4, 16, 1, sim.NewRand(9))
	var got []string
	// Ordered messages must stay ordered relative to each other even when
	// interleaved with jittered sends.
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			i := i
			l.SendOrderedCtx(callFn, func() { got = append(got, "o") })
			_ = i
		} else {
			l.SendCtx(callFn, func() { got = append(got, "j") })
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("delivered %d, want 20", len(got))
	}
}
