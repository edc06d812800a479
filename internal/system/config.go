// Package system assembles the full simulated machine of Table II: cores,
// private L1s, a shared inclusive LLC with the scope buffer and SBV, the
// reordering on-chip network, the memory controller, and the bulk-bitwise
// PIM module — wired for one of the seven run modes (three baselines, four
// consistency models).
package system

import (
	"fmt"
	"io"

	"bulkpim/internal/core"
	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
)

// Config captures the architecture and system configuration (paper
// Table II) plus the ablation knobs of §VII.
type Config struct {
	Model core.Model

	// Cores and frequency.
	Cores       int
	ClockGHz    float64
	MLP         int
	StoreBufCap int
	PIMCredits  int

	// L1: private, 16KB, 64B lines, 4-way.
	L1Sets, L1Ways int
	L1HitLatency   sim.Tick
	// L1 scope buffer (scope-relaxed only): 16 sets, 1 way.
	L1ScopeBufSets, L1ScopeBufWays int

	// LLC: shared, 2MB, 64B lines, 16-way (8MB for Fig. 12).
	LLCSets, LLCWays int
	LLCHitLatency    sim.Tick
	ScanPerSet       sim.Tick
	ScanPerLine      sim.Tick
	// LLC scope buffer: 64 sets, 4-way.
	LLCScopeBufSets, LLCScopeBufWays int

	// NoC.
	CoreLLCLatency sim.Tick
	CoreLLCJitter  sim.Tick
	LLCMCLatency   sim.Tick

	// Memory controller / DRAM.
	MCQueue     int
	DRAMLatency sim.Tick
	Banks       int
	BankBusy    sim.Tick

	// PIM module (spec as in [25]).
	// PIMModules attaches N modules, scopes distributed round-robin
	// (extension; the paper evaluates 1).
	PIMModules          int
	PIMBufferSize       int // 0 = unbounded (Fig. 11a)
	PIMCyclesPerMicroOp sim.Tick
	PIMFixedLatency     sim.Tick
	PIMZeroLatency      bool // Fig. 11b

	// PIM memory: scope geometry.
	ScopeCount int
	ScopeSize  uint64
	PIMBase    mem.Addr

	// Ablations: run without the scope buffer (every PIM op scans) or
	// without the SBV (scans check every set) to quantify §IV's hardware.
	NoScopeBuffer bool
	NoSBV         bool

	// NoPooling disables the shared request/line-buffer pool (every Get
	// allocates, every Put discards). Perf baseline only: results are
	// identical either way.
	NoPooling bool

	// Functional executes PIM programs and verifies data; TrackHB records
	// the happens-before relation (litmus-scale runs only).
	Functional bool
	TrackHB    bool

	// TraceWriter + TraceCategories enable debug tracing ("cpu,cache,mc,
	// pim,noc" or "all"); see internal/trace.
	TraceWriter     io.Writer
	TraceCategories string

	Seed uint64
}

// Default returns the paper's Table II configuration: 6 x86 OoO cores at
// 3.6GHz, 16KB/4-way L1s, 2MB/16-way shared LLC, MESI, 32GB DDR4-2400
// main memory, one PIMDB-style PIM module with 2MB huge-page scopes.
func Default() Config {
	return Config{
		Model:       core.Atomic,
		Cores:       6,
		ClockGHz:    3.6,
		MLP:         8,
		StoreBufCap: 32,
		PIMCredits:  48,

		L1Sets: 64, L1Ways: 4, // 16KB
		L1HitLatency:   3,
		L1ScopeBufSets: 16, L1ScopeBufWays: 1,

		LLCSets: 2048, LLCWays: 16, // 2MB
		LLCHitLatency:   18,
		ScanPerSet:      1,
		ScanPerLine:     2,
		LLCScopeBufSets: 64, LLCScopeBufWays: 4,

		CoreLLCLatency: 8,
		CoreLLCJitter:  4,
		LLCMCLatency:   6,

		MCQueue:     32,
		DRAMLatency: 220, // ~60ns at 3.6GHz (DDR4-2400 class)
		Banks:       8,
		BankBusy:    40,

		PIMModules:          1,
		PIMBufferSize:       128,
		PIMCyclesPerMicroOp: 360, // ~100ns per array micro-op (memristive)
		PIMFixedLatency:     720,

		ScopeCount: 64,
		ScopeSize:  mem.DefaultScopeSize,
		PIMBase:    mem.DefaultPIMBase,

		Seed: 42,
	}
}

// Seconds converts cycles to wall-clock seconds at the configured clock.
func (c Config) Seconds(ticks sim.Tick) float64 {
	return float64(ticks) / (c.ClockGHz * 1e9)
}

// maxCores is the largest core count the LLC directory tracks: sharers
// are a 64-bit mask.
const maxCores = 64

// Validate reports a configuration the machine cannot be built from or
// would misrun: a core count outside [1, maxCores]; an L1/LLC geometry
// without power-of-two sets and at least one way; a scope buffer without
// sets or ways; no banks, queue slots, memory-level parallelism, PIM
// credits or PIM modules; a non-positive clock; or a scope size that is
// not a power of two. PIMBufferSize 0 is valid (unbounded, Fig. 11a).
func (c Config) Validate() error {
	if c.Cores < 1 || c.Cores > maxCores {
		return fmt.Errorf("system: Cores = %d, want 1..%d", c.Cores, maxCores)
	}
	for _, g := range []struct {
		name       string
		sets, ways int
	}{{"L1", c.L1Sets, c.L1Ways}, {"LLC", c.LLCSets, c.LLCWays}} {
		if g.sets <= 0 || g.sets&(g.sets-1) != 0 {
			return fmt.Errorf("system: %sSets = %d, want a power of two", g.name, g.sets)
		}
		if g.ways < 1 {
			return fmt.Errorf("system: %sWays = %d, want >= 1", g.name, g.ways)
		}
	}
	for _, g := range []struct {
		name       string
		sets, ways int
	}{{"L1ScopeBuf", c.L1ScopeBufSets, c.L1ScopeBufWays}, {"LLCScopeBuf", c.LLCScopeBufSets, c.LLCScopeBufWays}} {
		if g.sets < 1 || g.ways < 1 {
			return fmt.Errorf("system: %s geometry %dx%d, want >= 1 sets and ways", g.name, g.sets, g.ways)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"Banks", c.Banks}, {"MCQueue", c.MCQueue}, {"MLP", c.MLP}, {"PIMCredits", c.PIMCredits}, {"PIMModules", c.PIMModules}} {
		if f.v < 1 {
			return fmt.Errorf("system: %s = %d, want >= 1", f.name, f.v)
		}
	}
	if !(c.ClockGHz > 0) {
		return fmt.Errorf("system: ClockGHz = %v, want > 0", c.ClockGHz)
	}
	if c.ScopeSize == 0 || c.ScopeSize&(c.ScopeSize-1) != 0 {
		return fmt.Errorf("system: ScopeSize = %d, want a power of two", c.ScopeSize)
	}
	return nil
}
