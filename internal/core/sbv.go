package core

import (
	"unsafe"

	"bulkpim/internal/sim"
)

// SBV is the scope bit-vector of §IV-B: one bit per cache set, high when
// the set holds at least one cache line from a PIM-enabled scope. A cache
// scan for a PIM op only visits sets whose bit is high; the rest are
// skipped, which is what keeps LLC scan latency tens of cycles instead of
// thousands (Fig. 10c/d).
//
// Hardware updates the bit on insertion directly and, on eviction of a
// PIM-enabled line, re-checks the remaining lines of the set. The simulator
// tracks an exact per-set count of PIM-enabled lines, which yields the same
// bit value as the hardware's check.
type SBV struct {
	counts []uint32
}

// sbvFree holds released SBVs, by set count.
var sbvFree = sim.NewFreeList[*SBV]()

// NewSBV builds a scope bit-vector for a cache with the given set count:
// a released one of that size, cleared, when one is free.
func NewSBV(sets int) *SBV {
	if sets <= 0 {
		panic("core: SBV needs positive set count")
	}
	if v, ok := sbvFree.Get(sets); ok {
		clear(v.counts)
		return v
	}
	return &SBV{counts: make([]uint32, sets)}
}

// Release hands v to the next NewSBV of its size; the caller drops v.
func (v *SBV) Release() {
	sbvFree.Put(len(v.counts), len(v.counts)*int(unsafe.Sizeof(v.counts[0])), v)
}

// OnInsert records insertion of a PIM-enabled line into set.
func (v *SBV) OnInsert(set int) { v.counts[set]++ }

// OnEvict records removal of a PIM-enabled line from set (eviction, flush,
// or invalidation).
func (v *SBV) OnEvict(set int) {
	if v.counts[set] == 0 {
		panic("core: SBV eviction underflow")
	}
	v.counts[set]--
}

// Test reports the bit of set: true when the set must be scanned.
func (v *SBV) Test(set int) bool { return v.counts[set] > 0 }

// Sets returns the number of sets covered.
func (v *SBV) Sets() int { return len(v.counts) }

// PopCount returns how many bits are high (sets a scan must visit).
func (v *SBV) PopCount() int {
	n := 0
	for _, c := range v.counts {
		if c > 0 {
			n++
		}
	}
	return n
}

// SkipRatio returns the fraction of sets a scan may skip (Fig. 10d).
func (v *SBV) SkipRatio() float64 {
	return 1 - float64(v.PopCount())/float64(len(v.counts))
}

// Bits returns the SRAM storage of the structure (one bit per set) for the
// area model.
func (v *SBV) Bits() int { return len(v.counts) }
