// Package ycsb implements the paper's YCSB short-range-scan workload
// (Table III): 95% scans / 5% inserts over a PIMDB-resident key-value
// table, scan base records zipfian-distributed, scan lengths uniform in
// [1,100], scopes partitioned evenly across worker threads (§VI-B).
package ycsb

import (
	"math"
	"runtime"
	"sync"

	"bulkpim/internal/sim"
)

// Zipf is the standard YCSB zipfian generator (Gray et al.): item 0 is the
// most popular, with skew theta (YCSB default 0.99).
type Zipf struct {
	items      uint64
	theta      float64
	alpha      float64
	zetan      float64
	zeta2theta float64
	eta        float64
}

// zetaBlock is the checkpoint spacing of a zetaTable, in terms.
const zetaBlock = 1 << 16

// zetaSerialMax is the longest run of terms summed without goroutines.
const zetaSerialMax = 4096

// zetaTable memoizes zeta sums for one theta across workload builds (the
// harness builds the same record counts for every model, and a sweep's
// record counts share their prefix). prefix[k] is zeta(k·zetaBlock);
// exact holds every zeta(n) asked for. Each value is bit-for-bit the
// serial loop sum += 1/i^θ for i = 1..n: a sum continues the accumulator
// of the last checkpoint at or below n and adds its terms in index order.
type zetaTable struct {
	prefix []float64
	exact  map[uint64]float64
}

var (
	zetaMu     sync.Mutex // guards zetaTables and every table in it
	zetaTables = map[float64]*zetaTable{}
)

func zeta(n uint64, theta float64) float64 {
	zetaMu.Lock()
	t := zetaTables[theta]
	if t == nil {
		t = &zetaTable{prefix: []float64{0}, exact: map[uint64]float64{}}
		zetaTables[theta] = t
	}
	sum, ok := t.exact[n]
	zetaMu.Unlock()
	if ok {
		return sum
	}
	// Extend the checkpoints one block per lock hold, so a caller that
	// needs only a short sum never waits behind a whole extension.
	var buf []float64
	k := n / zetaBlock
	for {
		zetaMu.Lock()
		j := uint64(len(t.prefix))
		if j > k {
			sum = t.prefix[k]
			zetaMu.Unlock()
			break
		}
		t.prefix = append(t.prefix, addTerms(t.prefix[j-1], (j-1)*zetaBlock+1, j*zetaBlock, theta, &buf))
		zetaMu.Unlock()
	}
	sum = addTerms(sum, k*zetaBlock+1, n, theta, &buf)
	zetaMu.Lock()
	t.exact[n] = sum
	zetaMu.Unlock()
	return sum
}

// addTerms returns sum + 1/lo^θ + … + 1/hi^θ (hi ≥ lo-1), added in
// index order. A range longer than zetaSerialMax (at most zetaBlock
// terms) evaluates its terms on every CPU into *buf first, allocating it
// on first use.
func addTerms(sum float64, lo, hi uint64, theta float64, buf *[]float64) float64 {
	n := hi + 1 - lo // 0 when hi = lo-1
	procs := uint64(runtime.GOMAXPROCS(0))
	if procs == 1 || n <= zetaSerialMax {
		for i := lo; i <= hi; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	if *buf == nil {
		*buf = make([]float64, zetaBlock)
	}
	terms := (*buf)[:n]
	chunk := (n + procs - 1) / procs
	var wg sync.WaitGroup
	for start := uint64(0); start < n; start += chunk {
		part := terms[start:min(start+chunk, n)]
		first := lo + start
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range part {
				part[j] = 1 / math.Pow(float64(first+uint64(j)), theta)
			}
		}()
	}
	wg.Wait()
	for _, x := range terms {
		sum += x
	}
	return sum
}

// NewZipf builds a generator over [0, items).
func NewZipf(items uint64, theta float64) *Zipf {
	if items == 0 {
		panic("ycsb: zipf over zero items")
	}
	z := &Zipf{items: items, theta: theta}
	z.zetan = zeta(items, theta)
	z.zeta2theta = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(items), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

// Next draws the next zipfian value using r.
func (z *Zipf) Next(r *sim.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.items {
		v = z.items - 1
	}
	return v
}
