package main

// Host-speed reference. The benchmark runs on shared machines whose
// speed drifts by tens of percent within seconds, far more than the
// changes it has to show. So every span the benchmark times is taken
// between two runs of refLoop, a fixed piece of CPU and memory work that
// shares no code with the repository, and reported at reference speed:
// the speed at which refLoop takes refNominal. A span of t seconds
// between reference runs of r0 and r1 seconds reads t·refNominal/((r0+r1)/2).
// A change to the repository's code moves the scaled time as it moves
// the raw one; a change in host speed moves the span and the reference
// together and cancels out.

import (
	"sync"
	"time"
)

// refNominal is how long refLoop takes, in seconds, on an idle 2-vCPU
// Intel Xeon host: the speed every scaled time is reported at.
const refNominal = 0.002

// refTables are refLoop's working sets, one per concurrent copy: 4 MiB
// each, so that, like the simulator's, they live in the shared cache
// rather than a core's first levels.
var refTables [serveClients][]uint32

// refLoop runs the reference work once over table: pseudo-random reads
// and writes.
func refLoop(table []uint32) uint32 {
	const mask = 1<<20 - 1
	x := uint64(0x9E3779B97F4A7C15)
	var s uint32
	for i := 0; i < 300_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		table[j] += uint32(x)
		s += table[(j*7+1)&mask]
	}
	return s
}

// hostRef keeps a run's reference timings.
type hostRef struct {
	// par is how many copies of refLoop run at once, one per goroutine:
	// as many as the measured work keeps busy, so that the reference
	// also sees a processor the host takes away.
	par   int
	times []float64
	last  time.Time // when the last reference run ended
}

// mark runs the reference and records its wall time in seconds.
func (h *hostRef) mark() float64 {
	n := max(h.par, 1)
	for i := range n {
		if refTables[i] == nil {
			refTables[i] = make([]uint32, 1<<20)
			refLoop(refTables[i]) // fault the table in
		}
	}
	var wg sync.WaitGroup
	t := time.Now()
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refLoop(refTables[i])
		}()
	}
	wg.Wait()
	r := time.Since(t).Seconds()
	h.times = append(h.times, r)
	h.last = time.Now()
	return r
}

// measure runs f between two reference runs and returns its scaled and
// raw wall times in seconds. The run that ended a span less than 50 ms
// ago also begins the next one.
func (h *hostRef) measure(f func()) (scaled, raw float64) {
	before := 0.0
	if len(h.times) > 0 && time.Since(h.last) < 50*time.Millisecond {
		before = h.times[len(h.times)-1]
	} else {
		before = h.mark()
	}
	t := time.Now()
	f()
	raw = time.Since(t).Seconds()
	after := h.mark()
	return scaleSpan(raw, before, after), raw
}

// scaleSpan reports a raw span at reference speed, given the reference
// times just before and after it.
func scaleSpan(raw, before, after float64) float64 {
	return raw * refNominal / ((before + after) / 2)
}

// slowdown is how much slower than refNominal the reference ran over the
// run, as the median of its runs.
func (h *hostRef) slowdown() float64 { return median(h.times) / refNominal }
