package system

import (
	"fmt"
	"runtime"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
	ok := Default()
	ok.Cores, ok.L1Sets, ok.L1Ways, ok.LLCSets, ok.LLCWays = maxCores, 1, 1, 1, 1
	if err := ok.Validate(); err != nil {
		t.Fatalf("smallest geometry with %d cores rejected: %v", maxCores, err)
	}
	unbounded := Default()
	unbounded.PIMBufferSize = 0 // Fig. 11a
	if err := unbounded.Validate(); err != nil {
		t.Fatalf("unbounded PIM buffer rejected: %v", err)
	}
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

		// Values that divide by zero, deadlock or silently misrun.
		"Banks=0":           func(c *Config) { c.Banks = 0 },
		"Banks=-1":          func(c *Config) { c.Banks = -1 },
		"MCQueue=0":         func(c *Config) { c.MCQueue = 0 },
		"MLP=0":             func(c *Config) { c.MLP = 0 },
		"PIMCredits=0":      func(c *Config) { c.PIMCredits = 0 },
		"PIMModules=0":      func(c *Config) { c.PIMModules = 0 },
		"ClockGHz=0":        func(c *Config) { c.ClockGHz = 0 },
		"ScopeSize=0":       func(c *Config) { c.ScopeSize = 0 },
		"ScopeSize=3MB":     func(c *Config) { c.ScopeSize = 3 << 20 },
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

// BenchmarkSystemNew measures building the paper's Table II machine, which
// every grid point does once.
func BenchmarkSystemNew(b *testing.B) {
	cfg := Default()
	b.ReportAllocs()
	for b.Loop() {
		New(cfg)
	}
}

// Building the Table II machine is dominated by its 2 MB, 16-way LLC's
// line array; with pointer-free 48-byte lines and payloads allocated on
// demand it stays under 2 MB of heap.
func TestSystemNewAllocBound(t *testing.T) {
	const maxBytes = 2 << 20
	cfg := Default()
	New(cfg) // warm one-time package state
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
