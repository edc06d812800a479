package ycsb

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// zetaRef is the specification zeta implements: the serial sum of
// 1/i^θ for i = 1..n, in index order.
func zetaRef(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// resetZeta forgets every memoized zeta sum.
func resetZeta() {
	zetaMu.Lock()
	zetaTables = map[float64]*zetaTable{}
	zetaMu.Unlock()
}

// quickZetaNs are the zipf item counts of the quick-scale Fig. 7 sweep
// (record counts minus the 100-record scan window).
var quickZetaNs = []uint64{99_900, 499_900, 1_999_900, 7_999_900}

// zetaTestNs are the sums the differential tests pin, ascending: the
// block boundaries, then the quick-scale sums (the two largest skipped
// under -short).
func zetaTestNs() []uint64 {
	ns := []uint64{1, 2, zetaBlock - 1, zetaBlock, zetaBlock + 1, 2*zetaBlock + 1}
	ns = append(ns, quickZetaNs[:2]...)
	if !testing.Short() {
		ns = append(ns, quickZetaNs[2:]...)
	}
	return ns
}

// zetaRefs returns zetaRef(n, 0.99) for every n.
func zetaRefs(ns []uint64) map[uint64]float64 {
	want := make(map[uint64]float64, len(ns))
	for _, n := range ns {
		want[n] = zetaRef(n, 0.99)
	}
	return want
}

// withProcs runs f with GOMAXPROCS set to procs, so the parallel term
// evaluation runs on a one-CPU host too.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// zeta must be bit-for-bit the serial sum whatever order the sums are
// asked in: descending on a cold cache continues every smaller sum from
// a checkpoint the first call left behind; ascending extends the
// checkpoints one record count at a time, and the sums below one block
// take the tail-only path.
func TestZetaMatchesSerialSum(t *testing.T) {
	ns := zetaTestNs()
	want := zetaRefs(ns)
	desc := make([]uint64, len(ns))
	for i, n := range ns {
		desc[len(ns)-1-i] = n
	}
	for _, procs := range []int{1, 3} {
		withProcs(procs, func() {
			for _, order := range [][]uint64{desc, ns} {
				resetZeta()
				for _, n := range order {
					if got := zeta(n, 0.99); math.Float64bits(got) != math.Float64bits(want[n]) {
						t.Errorf("GOMAXPROCS=%d: zeta(%d) = %v, serial sum %v", procs, n, got, want[n])
					}
				}
				// A repeated call is served from the exact memo.
				n := order[0]
				if got := zeta(n, 0.99); math.Float64bits(got) != math.Float64bits(want[n]) {
					t.Errorf("GOMAXPROCS=%d: repeated zeta(%d) = %v, serial sum %v", procs, n, got, want[n])
				}
			}
		})
	}
}

// Concurrent callers share one table: 8 goroutines asking for the sums
// in independent random orders must all get the serial bits.
func TestZetaConcurrent(t *testing.T) {
	ns := zetaTestNs()
	want := zetaRefs(ns)
	withProcs(3, func() {
		resetZeta()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			order := append([]uint64(nil), ns...)
			rand.New(rand.NewSource(int64(g))).Shuffle(len(order), func(i, j int) {
				order[i], order[j] = order[j], order[i]
			})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, n := range order {
					if got := zeta(n, 0.99); math.Float64bits(got) != math.Float64bits(want[n]) {
						t.Errorf("zeta(%d) = %v, serial sum %v", n, got, want[n])
					}
				}
			}()
		}
		wg.Wait()
	})
}

// BenchmarkZeta computes the quick-scale sweep's four zeta sums from a
// cold cache, as a fresh process generating the Fig. 7 workloads does.
func BenchmarkZeta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		resetZeta()
		for _, n := range quickZetaNs {
			zeta(n, 0.99)
		}
	}
}
