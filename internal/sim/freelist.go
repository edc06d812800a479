package sim

import (
	"runtime"
	"sync"
)

// FreeList recycles a finished machine's structures and buffers for the
// next machine built in the process: a machine's Release puts them, the
// constructors get them back. Entries are grouped by size class (a
// buffer's length; 0 for a component's struct), and a class keeps at
// most FreeListCap entries, so a long-lived process retains a few
// megabytes. A FreeList is safe for
// concurrent use; make one with NewFreeList.
type FreeList[T any] struct {
	mu      sync.Mutex
	classes map[int][]T
}

// freeListProcs is the parallelism the caps are sized for: at most that
// many machines run at once, so at most that many come back together.
var freeListProcs = runtime.GOMAXPROCS(0)

// freeListBudget is what one size class may hold per P beyond its one
// entry: small buffers, such as one machine's L1 arrays, come back
// together.
const freeListBudget = 1 << 20

// FreeListCap is how many entries a size class of bytes-long buffers
// holds at most: GOMAXPROCS, or as many as fit in GOMAXPROCS × 1 MB
// when they are small.
func FreeListCap(bytes int) int {
	return freeListProcs * max(1, freeListBudget/max(bytes, 1))
}

var freeLists struct {
	mu  sync.Mutex
	all []interface{ drop() }
}

// NewFreeList returns an empty free list that DropFreeLists reaches.
func NewFreeList[T any]() *FreeList[T] {
	f := &FreeList[T]{classes: map[int][]T{}}
	freeLists.mu.Lock()
	freeLists.all = append(freeLists.all, f)
	freeLists.mu.Unlock()
	return f
}

// Get takes an entry of size class class, if the list holds one.
func (f *FreeList[T]) Get(class int) (x T, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.classes[class]
	if len(s) == 0 {
		return x, false
	}
	x = s[len(s)-1]
	var zero T
	s[len(s)-1] = zero
	f.classes[class] = s[:len(s)-1]
	return x, true
}

// Put offers x, an entry of size class class that is bytes long. It
// reports false, leaving x to the garbage collector, when the class
// already holds FreeListCap(bytes) entries.
func (f *FreeList[T]) Put(class, bytes int, x T) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.classes[class]
	if len(s) >= FreeListCap(bytes) {
		return false
	}
	f.classes[class] = append(s, x)
	return true
}

func (f *FreeList[T]) drop() {
	f.mu.Lock()
	clear(f.classes)
	f.mu.Unlock()
}

// DropFreeLists empties every free list, handing what they hold to the
// garbage collector, so the next machines are built from fresh memory.
// Tests use it to compare a fresh machine's run with a recycled one's.
func DropFreeLists() {
	freeLists.mu.Lock()
	defer freeLists.mu.Unlock()
	for _, f := range freeLists.all {
		f.drop()
	}
}
