package main

import "testing"

// TestYCSBInputsRecorded checks that every run seed, however large, maps
// to YCSB inputs whose report digests are recorded, and that neighbouring
// run seeds get disjoint inputs.
func TestYCSBInputsRecorded(t *testing.T) {
	seen := map[uint64]uint64{}
	for _, seed := range []uint64{0, 1, 2, 3, 42, 64, 65, 1000, 1 << 40} {
		for k := 0; k < ycsbInputs; k++ {
			in := ycsbInputSeed(seed, k)
			if b := newYCSBTiming(in); b.digest == "" {
				t.Errorf("seed %d input %d: YCSB seed %d has no recorded digest", seed, k, in)
			}
			if seed < 65 {
				if other, ok := seen[in]; ok {
					t.Errorf("seeds %d and %d share YCSB input %d", other, seed, in)
				}
				seen[in] = seed
			}
		}
	}
}
