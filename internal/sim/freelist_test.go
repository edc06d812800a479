package sim

import (
	"sync"
	"testing"
)

// Concurrent puts never push a size class past its cap, and each class
// counts on its own.
func TestFreeListCapConcurrent(t *testing.T) {
	f := NewFreeList[[]byte]()
	const small, large = 4 << 10, 4 << 20
	n := 4*FreeListCap(small) + 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Put(small, small, make([]byte, 0))
			f.Put(large, large, make([]byte, 0))
		}()
	}
	wg.Wait()
	if got, want := len(f.classes[small]), FreeListCap(small); got != want {
		t.Fatalf("small class holds %d after %d puts, want its cap %d", got, n, want)
	}
	if got, want := len(f.classes[large]), FreeListCap(large); got != want || want != freeListProcs {
		t.Fatalf("large class holds %d (cap %d), want GOMAXPROCS = %d", got, want, freeListProcs)
	}
	for i := 0; i < FreeListCap(large); i++ {
		if _, ok := f.Get(large); !ok {
			t.Fatalf("Get %d of a full class failed", i)
		}
	}
	if _, ok := f.Get(large); ok {
		t.Fatal("Get of an empty class succeeded")
	}
	DropFreeLists()
	if len(f.classes[small]) != 0 {
		t.Fatal("DropFreeLists left entries")
	}
}
