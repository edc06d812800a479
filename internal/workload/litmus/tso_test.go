package litmus

import "testing"

// TSO allows the store-buffering relaxed outcome: without fences, some
// interleaving must show both threads reading the pre-store values (loads
// bypass the store buffer).
func TestSBRelaxedOutcomeObservable(t *testing.T) {
	bothZero, err := SweepStoreBuffering(false, 20)
	if err != nil {
		t.Fatal(err)
	}
	if bothZero == 0 {
		t.Error("store-buffering relaxed outcome never observed; TSO store buffers missing?")
	}
}

// With mfences between store and load, the relaxed outcome is forbidden.
func TestSBFencedForbidden(t *testing.T) {
	bothZero, err := SweepStoreBuffering(true, 20)
	if err != nil {
		t.Fatal(err)
	}
	if bothZero != 0 {
		t.Errorf("fenced store-buffering produced the forbidden outcome %d times", bothZero)
	}
}

// Plain message passing must never fail under TSO (no store-store or
// load-load reordering).
func TestMPPlainNeverViolates(t *testing.T) {
	completed := 0
	for seed := uint64(1); seed <= 20; seed++ {
		o, err := RunMPPlain(seed)
		if err != nil {
			t.Fatal(err)
		}
		if o.Completed {
			completed++
		}
		if o.Stale {
			t.Fatalf("seed %d: TSO MP violation (flag new, data old)", seed)
		}
	}
	if completed == 0 {
		t.Fatal("reader never saw the flag")
	}
}
