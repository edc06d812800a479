package system

import (
	"fmt"
	"runtime"
	"testing"

	"bulkpim/internal/cpu"
	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
	ok := Default()
	ok.Cores, ok.L1Sets, ok.L1Ways, ok.LLCSets, ok.LLCWays = maxCores, 1, 1, 1, 1
	ok.PIMModules = maxModules
	if err := ok.Validate(); err != nil {
		t.Fatalf("smallest geometry with %d cores and %d modules rejected: %v", maxCores, maxModules, err)
	}
	New(ok).Release()
	ok.Banks = maxBanks
	if err := ok.Validate(); err != nil {
		t.Fatalf("%d banks rejected: %v", maxBanks, err)
	}
	// The largest capped geometries validate (New is not called: they
	// are still tens of megabytes).
	largest := Default()
	largest.Cores, largest.L1Sets, largest.L1Ways = maxCores, maxLines/maxCores, 1
	largest.LLCSets, largest.LLCWays = maxLines/4, 4
	if err := largest.Validate(); err != nil {
		t.Fatalf("geometry at the line cap rejected: %v", err)
	}
	unbounded := Default()
	unbounded.PIMBufferSize = 0 // Fig. 11a
	if err := unbounded.Validate(); err != nil {
		t.Fatalf("unbounded PIM buffer rejected: %v", err)
	}
	// Zero latencies are legal: an ideal L1 or DRAM is a what-if like
	// Fig. 11b's zero-latency PIM, and the machine runs with them.
	ideal := Default()
	ideal.L1HitLatency, ideal.DRAMLatency = 0, 0
	if err := ideal.Validate(); err != nil {
		t.Fatalf("zero L1HitLatency and DRAMLatency rejected: %v", err)
	}
	New(ideal)
	for name, mut := range map[string]func(*Config){
		"Cores=0":    func(c *Config) { c.Cores = 0 },
		"Cores=65":   func(c *Config) { c.Cores = maxCores + 1 },
		"Cores=300":  func(c *Config) { c.Cores = 300 },
		"L1Sets=0":   func(c *Config) { c.L1Sets = 0 },
		"L1Sets=48":  func(c *Config) { c.L1Sets = 48 },
		"L1Ways=0":   func(c *Config) { c.L1Ways = 0 },
		"LLCSets=3":  func(c *Config) { c.LLCSets = 3 },
		"LLCSets=-8": func(c *Config) { c.LLCSets = -8 },
		"LLCWays=-1": func(c *Config) { c.LLCWays = -1 },

		// Geometries past the line cap: New would try to allocate
		// gigabytes (2^28 LLC sets alone is ~200 GB of lines).
		"LLCSets=2^28":         func(c *Config) { c.LLCSets = 1 << 28 },
		"LLCSets=2^62":         func(c *Config) { c.LLCSets = 1 << 62 },
		"LLCWays=2^40":         func(c *Config) { c.LLCWays = 1 << 40 },
		"LLC=cap+1":            func(c *Config) { c.LLCSets, c.LLCWays = maxLines, 2 },
		"L1Sets=cap":           func(c *Config) { c.L1Sets = maxLines },
		"L1 cap over cores":    func(c *Config) { c.Cores, c.L1Sets, c.L1Ways = 64, maxLines/64, 2 },
		"LLCScopeBufWays=2^40": func(c *Config) { c.LLCScopeBufWays = 1 << 40 },
		"L1ScopeBufSets=cap":   func(c *Config) { c.L1ScopeBufSets = maxLines },

		// Values that divide by zero, deadlock or silently misrun.
		"Banks=0":           func(c *Config) { c.Banks = 0 },
		"Banks=-1":          func(c *Config) { c.Banks = -1 },
		"Banks=1025":        func(c *Config) { c.Banks = maxBanks + 1 }, // bank state is per bank
		"Banks=2^40":        func(c *Config) { c.Banks = 1 << 40 },
		"MCQueue=0":         func(c *Config) { c.MCQueue = 0 },
		"MLP=0":             func(c *Config) { c.MLP = 0 },
		"PIMCredits=0":      func(c *Config) { c.PIMCredits = 0 },
		"PIMModules=0":      func(c *Config) { c.PIMModules = 0 },
		"PIMModules=65":     func(c *Config) { c.PIMModules = maxModules + 1 },
		"PIMModules=1e5":    func(c *Config) { c.PIMModules = 100000 }, // ~37 MB of modules in New
		"Model=99":          func(c *Config) { c.Model = 99 },          // a flushing model run down the baseline path
		"TraceCategories":   func(c *Config) { c.TraceCategories = "bogus" },
		"ClockGHz=0":        func(c *Config) { c.ClockGHz = 0 },
		"ScopeSize=0":       func(c *Config) { c.ScopeSize = 0 },
		"ScopeSize=3MB":     func(c *Config) { c.ScopeSize = 3 << 20 },
		"ScopeSize=64":      func(c *Config) { c.ScopeSize = 64 },
		"ScopeSize=4MB":     func(c *Config) { c.ScopeSize = 4 << 20 },
		"ScopeCount=0":      func(c *Config) { c.ScopeCount = 0 },
		"ScopeCount=-1":     func(c *Config) { c.ScopeCount = -1 },
		"PIMBase=4096":      func(c *Config) { c.PIMBase = 4096 },
		"PIMBase=base+64":   func(c *Config) { c.PIMBase += 64 },
		"L1ScopeBufWays=0":  func(c *Config) { c.L1ScopeBufWays = 0 },
		"LLCScopeBufSets=0": func(c *Config) { c.LLCScopeBufSets = 0 },
	} {
		cfg := Default()
		mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		// New refuses the same config with the same message.
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); got != err.Error() {
					t.Errorf("%s: New panicked with %q, want %q", name, got, err)
				}
			}()
			New(cfg)
		}()
	}
}

// A machine runs at every bank count Validate accepts: the controller
// sizes its bank state from the Banks it runs with, not from its own
// default of 8. A burst over 2*maxBanks consecutive lines reaches every
// bank; one bank serializes its DRAM accesses.
func TestRunAtBankCounts(t *testing.T) {
	const lines = 2 * maxBanks
	cycles := map[int]sim.Tick{}
	for _, banks := range []int{1, 16, maxBanks} {
		cfg := Default()
		cfg.Banks = banks
		s := New(cfg)
		res, err := s.Run([]cpu.Thread{&cpu.SliceThread{Instrs: []cpu.Instr{
			{Kind: cpu.InstrLoadBurst, Burst: []cpu.BurstRange{{Start: 0x100000, Bytes: lines * mem.LineSize}}},
		}}})
		if err != nil {
			t.Fatalf("Banks=%d: %v", banks, err)
		}
		if got := res.Stats["mc.loads"]; got != lines {
			t.Errorf("Banks=%d: %v DRAM loads, want %d", banks, got, lines)
		}
		cycles[banks] = res.Cycles
		s.Release()
	}
	if cycles[1] <= cycles[16] {
		t.Errorf("1 bank ran the burst in %d cycles, 16 banks in %d", cycles[1], cycles[16])
	}
}

// BenchmarkSystemNew measures building the paper's Table II machine from
// fresh memory.
func BenchmarkSystemNew(b *testing.B) {
	cfg := Default()
	sim.DropFreeLists()
	b.ReportAllocs()
	for b.Loop() {
		New(cfg)
	}
}

// BenchmarkSystemNewReused measures building it from a released
// machine's buffers, which is what every grid point after the first
// does.
func BenchmarkSystemNewReused(b *testing.B) {
	cfg := Default()
	New(cfg).Release()
	b.ReportAllocs()
	for b.Loop() {
		New(cfg).Release()
	}
}

// Building the Table II machine is dominated by its 2 MB, 16-way LLC's
// line array; with pointer-free 48-byte lines and payloads allocated on
// demand it stays under 2 MB of heap.
func TestSystemNewAllocBound(t *testing.T) {
	const maxBytes = 2 << 20
	cfg := Default()
	New(cfg) // warm one-time package state
	sim.DropFreeLists()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := New(cfg)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if got := after.TotalAlloc - before.TotalAlloc; got > maxBytes {
		t.Fatalf("system.New(Default()) allocated %.2f MB, want <= %.2f MB",
			float64(got)/(1<<20), float64(maxBytes)/(1<<20))
	}
}
