package main

import (
	"math"
	"testing"
)

func TestScaleSpan(t *testing.T) {
	for _, tc := range []struct{ raw, before, after, want float64 }{
		{1, refNominal, refNominal, 1},         // host at reference speed
		{3, 3 * refNominal, 3 * refNominal, 1}, // three times slower: scaled back
		{2, refNominal, 3 * refNominal, 1},     // the span's reference is the mean of both runs
	} {
		if got := scaleSpan(tc.raw, tc.before, tc.after); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("scaleSpan(%v, %v, %v) = %v, want %v", tc.raw, tc.before, tc.after, got, tc.want)
		}
	}
}

func TestMeasureSharesReferenceRuns(t *testing.T) {
	h := &hostRef{}
	for i := 0; i < 3; i++ {
		scaled, raw := h.measure(func() {})
		if scaled < 0 || raw < 0 || math.IsNaN(scaled) {
			t.Fatalf("measure = %v, %v", scaled, raw)
		}
	}
	// Back-to-back spans share the run between them.
	if len(h.times) != 4 {
		t.Errorf("three back-to-back spans ran the reference %d times, want 4", len(h.times))
	}
}
