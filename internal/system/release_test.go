package system

import (
	"runtime"
	"testing"
	"time"

	"bulkpim/internal/core"
	"bulkpim/internal/cpu"
	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
)

// runSmall runs a store, a fence and a load on every core of s, so every
// cache holds lines with payloads when the run ends.
func runSmall(t *testing.T, s *System) {
	t.Helper()
	threads := make([]cpu.Thread, len(s.Cores))
	for i := range threads {
		addr := mem.Addr(0x1000 + 0x40*i)
		threads[i] = &cpu.SliceThread{Instrs: []cpu.Instr{
			{Kind: cpu.InstrStore, Addr: addr, Data: []byte{byte(i + 1)}},
			{Kind: cpu.InstrFenceFull},
			{Kind: cpu.InstrLoad, Addr: addr},
		}}
	}
	if _, err := s.Run(threads); err != nil {
		t.Fatal(err)
	}
}

// newAllocBytes reports what New(cfg) allocates.
func newAllocBytes(cfg Config) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := New(cfg)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	return after.TotalAlloc - before.TotalAlloc
}

// Built from a released machine, the Table II machine allocates only
// its System and wiring (about 1.3 KB): every component, with its
// storage, comes back from the free lists. The bytes are averaged over
// many builds, because the allocator accounts small objects a span at
// a time, a few kilobytes of noise on any one.
func TestSystemNewReusedAllocBound(t *testing.T) {
	const maxBytes, builds = 2 << 10, 100
	cfg := Default()
	New(cfg) // warm one-time package state
	s := New(cfg)
	runSmall(t, s)
	s.Release()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range builds {
		New(cfg).Release()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / builds; got > maxBytes {
		t.Fatalf("system.New(Default()) after a Release allocated %d bytes, want <= %d", got, maxBytes)
	}
}

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// Every use of a released machine panics at once instead of reaching
// buffers that another machine now owns.
func TestReleasedSystemPanics(t *testing.T) {
	s := New(smallCfg(core.Scope))
	runSmall(t, s)
	s.Release()
	mustPanic(t, "second Release", s.Release)
	mustPanic(t, "Run", func() { s.Run(nil) })
	mustPanic(t, "L1 lookup", func() { s.L1s[0].HasLine(mem.LineOf(0x1000)) })
	mustPanic(t, "LLC lookup", func() { s.LLC.HasLine(mem.LineOf(0x1000)) })
	mustPanic(t, "kernel run", func() { s.K.Run() })
}

// A machine whose Run failed gives nothing back: the next machine is
// built from fresh memory, and the failed one keeps its own buffers.
func TestFailedRunNotRecycled(t *testing.T) {
	for name, fail := range map[string]func(*System) error{
		"event limit": func(s *System) error {
			s.K.EventLimit = 5
			_, err := s.Run([]cpu.Thread{&cpu.SliceThread{Instrs: []cpu.Instr{
				{Kind: cpu.InstrStore, Addr: 0x1000, Data: []byte{1}},
				{Kind: cpu.InstrFenceFull},
			}}})
			return err
		},
		"too many threads": func(s *System) error {
			_, err := s.Run(make([]cpu.Thread, len(s.Cores)+1))
			return err
		},
	} {
		cfg := Default()
		New(cfg) // warm one-time package state
		sim.DropFreeLists()
		s := New(cfg)
		if err := fail(s); err == nil {
			t.Fatalf("%s: Run succeeded", name)
		}
		s.Release()
		if got := newAllocBytes(cfg); got < 1<<20 {
			t.Errorf("%s: New after releasing a failed machine allocated %.0f KB; it reused buffers", name, float64(got)/(1<<10))
		}
		// The failed machine kept its arrays: lookups still work.
		s.L1s[0].HasLine(mem.LineOf(0x1000))
		s.LLC.HasLine(mem.LineOf(0x1000))
	}
}

// A released machine is garbage: nothing it hands back keeps it alive.
// The components go on to the next machine, so the test watches the
// System itself, which every thread, completion callback and event
// context of the run can reach: the cores' OnDone callbacks and the
// controller's SendACK close over it, and here a same-tick burst moves
// a wheel bucket out of the kernel's seed array, leaving entries that
// name it behind.
func TestReleasedSystemIsCollected(t *testing.T) {
	collected := make(chan struct{}, 1)
	func() {
		s := New(smallCfg(core.Scope))
		for i := 0; i < 8; i++ {
			s.K.ScheduleCtx(5, func(any) {}, s)
		}
		runSmall(t, s)
		runtime.AddCleanup(s, func(ch chan struct{}) { ch <- struct{}{} }, collected)
		s.Release()
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a released machine was never collected")
}
