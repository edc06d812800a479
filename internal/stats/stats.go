// Package stats collects the measurements the paper's evaluation reports:
// counters (event counts), means sampled over a run (PIM buffer occupancy on
// arrival, LLC scan latency, SBV skip ratio), and small histograms.
package stats

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n += d }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Mean accumulates samples and reports their arithmetic mean.
type Mean struct {
	sum   float64
	count uint64
}

// Observe adds one sample.
func (m *Mean) Observe(v float64) {
	m.sum += v
	m.count++
}

// Value returns the mean (0 for no samples).
func (m *Mean) Value() float64 {
	if m.count == 0 {
		return 0
	}
	return m.sum / float64(m.count)
}

// Count returns the number of samples.
func (m *Mean) Count() uint64 { return m.count }

// Sum returns the accumulated total.
func (m *Mean) Sum() float64 { return m.sum }

// Ratio tracks hits out of total lookups (e.g. scope buffer hit rate).
type Ratio struct {
	hits, total uint64
}

// Hit records a successful lookup.
func (r *Ratio) Hit() { r.hits++; r.total++ }

// Miss records a failed lookup.
func (r *Ratio) Miss() { r.total++ }

// Value returns hits/total (0 for no lookups).
func (r *Ratio) Value() float64 {
	if r.total == 0 {
		return 0
	}
	return float64(r.hits) / float64(r.total)
}

// Hits returns the hit count.
func (r *Ratio) Hits() uint64 { return r.hits }

// Total returns the lookup count.
func (r *Ratio) Total() uint64 { return r.total }

// Histogram is a fixed-bucket latency histogram.
type Histogram struct {
	Bounds []float64 // ascending upper bounds; implicit +inf final bucket
	counts []uint64
	mean   Mean
}

// NewHistogram builds a histogram with the given ascending bucket bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{Bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	h.mean.Observe(v)
	for i, b := range h.Bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.Bounds)]++
}

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 { return h.mean.Value() }

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.mean.Count() }

// Bucket returns the count of bucket i (len(Bounds)+1 buckets).
func (h *Histogram) Bucket(i int) uint64 { return h.counts[i] }
