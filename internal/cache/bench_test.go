package cache

import (
	"testing"

	"bulkpim/internal/core"
	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
)

// BenchmarkScopeFlush measures one LLC scan-and-flush at the Table II
// geometry: 2048 sets x 16 ways, a 64x4 scope buffer and an SBV. Every
// set holds 15 lines outside the PIM region, and every other set a line
// of another PIM scope, so the SBV marks half the sets. Each iteration
// installs 8 lines of the flushed scope, which erases the scope from the
// scope buffer, so every flush misses the buffer and scans.
func BenchmarkScopeFlush(b *testing.B) {
	const sets, ways = 2048, 16
	scopes := mem.NewScopeMap(mem.DefaultPIMBase, mem.DefaultScopeSize, 4)
	l := NewLLC(sim.NewKernel(), mem.NewRequestPool(), core.Atomic, sets, ways, 18, scopes)
	l.EnableScope(64, 4, true)
	defer l.Release()
	install := func(a mem.Addr) {
		line := mem.LineOf(a)
		v := l.arr.Victim(line)
		if v.Valid() {
			l.evictVictim(v)
		}
		l.arr.Install(v, line, Shared, scopes.ScopeOf(a))
	}
	for i := 0; i < sets*(ways-1); i++ {
		install(mem.Addr(i * mem.LineSize))
	}
	for s := 0; s < sets; s += 2 {
		install(scopes.ScopeBase(1) + mem.Addr(s*mem.LineSize))
	}
	scope := mem.ScopeID(0)
	base := scopes.ScopeBase(scope)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			install(base + mem.Addr(j*sets/8*mem.LineSize))
		}
		l.flushScope(scope)
	}
	b.StopTimer()
	if l.SBHitRate.Hits() != 0 || l.Scans.Value() != uint64(b.N) || l.LinesFlushed.Value() != 8*uint64(b.N) {
		b.Fatalf("%d scope-buffer hits, %d scans, %d lines flushed over %d flushes: want a full scan of 8 lines each",
			l.SBHitRate.Hits(), l.Scans.Value(), l.LinesFlushed.Value(), b.N)
	}
}
