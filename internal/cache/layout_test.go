package cache

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
)

// cloneData copies a payload the caller must not keep aliased (a fill
// waiter's data, a TryLoad result).
func cloneData(d []byte) []byte {
	if d == nil {
		return nil
	}
	out := make([]byte, len(d))
	copy(out, d)
	return out
}

// The LLC is tens of thousands of Lines built once per simulated machine:
// they must stay small and pointer-free so the array is one allocation the
// GC never scans.
func TestLineLayout(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n > 48 {
		t.Fatalf("unsafe.Sizeof(Line{}) = %d, want <= 48", n)
	}
	typ := reflect.TypeOf(Line{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); hasPointers(f.Type) {
			t.Errorf("Line.%s (%s) holds a pointer", f.Name, f.Type)
		}
	}
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// checkSlots verifies the array's payload accounting: every valid line's
// slot is distinct and in range, no invalid line holds one, no slot is
// both in use and free, and in-use plus free slots cover every slot the
// arena allocated.
func (c *setAssoc) checkSlots() error {
	total := uint32(len(c.slots.blocks)) * slotBlock
	owner := make(map[uint32]mem.LineAddr)
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.data == 0 {
			continue
		}
		if !ln.valid {
			return fmt.Errorf("invalid way %d holds slot %d", i, ln.data)
		}
		if ln.data > total {
			return fmt.Errorf("line %#x holds slot %d of %d", uint64(ln.Addr), ln.data, total)
		}
		if prev, dup := owner[ln.data]; dup {
			return fmt.Errorf("lines %#x and %#x share slot %d", uint64(prev), uint64(ln.Addr), ln.data)
		}
		owner[ln.data] = ln.Addr
	}
	free := make(map[uint32]bool, len(c.slots.free))
	for _, h := range c.slots.free {
		if h == 0 || h > total {
			return fmt.Errorf("free list holds slot %d of %d", h, total)
		}
		if free[h] {
			return fmt.Errorf("slot %d is on the free list twice", h)
		}
		if a, used := owner[h]; used {
			return fmt.Errorf("slot %d is free but held by line %#x", h, uint64(a))
		}
		free[h] = true
	}
	if used := len(owner); used+len(free) != int(total) {
		return fmt.Errorf("%d slots in use + %d free != %d allocated", used, len(free), total)
	}
	return nil
}

// checkSlots runs the payload accounting on every array of the rig.
func (r *rig) checkSlots() error {
	if err := r.llc.arr.checkSlots(); err != nil {
		return fmt.Errorf("LLC: %w", err)
	}
	for i, l1 := range r.l1s {
		if err := l1.arr.checkSlots(); err != nil {
			return fmt.Errorf("L1 %d: %w", i, err)
		}
	}
	return nil
}

func TestSlotArenaReuse(t *testing.T) {
	c := newSetAssoc(2, 2)
	var lines []*Line
	for i := 0; i < 4; i++ {
		l := mem.LineAddr(uint64(i) * mem.LineSize)
		v := c.Victim(l)
		c.Install(v, l, Shared, mem.NoScope)
		src := make([]byte, mem.LineSize)
		src[0] = byte(i + 1)
		c.SetData(v, src)
		lines = append(lines, v)
	}
	if err := c.checkSlots(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.slots.blocks); got != 1 {
		t.Fatalf("arena grew %d blocks for 4 payloads, want 1", got)
	}
	for i, ln := range lines {
		if d := c.Data(ln); d[0] != byte(i+1) {
			t.Fatalf("line %d payload[0] = %d, want %d", i, d[0], i+1)
		}
	}
	c.Invalidate(lines[1])
	c.SetData(lines[2], nil)
	if err := c.checkSlots(); err != nil {
		t.Fatal(err)
	}
	if c.Data(lines[1]) != nil || c.Data(lines[2]) != nil {
		t.Fatal("released lines still report a payload")
	}
	// A recycled slot comes back zeroed.
	if d := c.payload(lines[2]); d[0] != 0 {
		t.Fatalf("recycled slot not cleared: payload[0] = %d", d[0])
	}
	if err := c.checkSlots(); err != nil {
		t.Fatal(err)
	}
}

// fillArray installs a line with a non-zero payload in every way of c.
func fillArray(c *setAssoc) {
	for i := 0; i < c.sets*c.ways; i++ {
		l := mem.LineAddr(uint64(i) * mem.LineSize)
		v := c.Victim(l)
		c.Install(v, l, Modified, mem.NoScope)
		c.payload(v)[0] = 0xFF
		v.Writer, v.Sharers, v.Dirty = 7, 3, true
	}
}

// A released array's lines and blocks come back to the next array of its
// size empty, and zeroed where a payload is handed out.
func TestSetAssocRecycledIsEmpty(t *testing.T) {
	sim.DropFreeLists()
	c := newSetAssoc(4, 2)
	fillArray(&c)
	lines, block := c.lines, c.slots.blocks[0]
	c.recycle()
	if c.lines != nil || c.slots.blocks != nil {
		t.Fatal("a released array kept its buffers")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("lookup on a released array did not panic")
			}
		}()
		c.Peek(0)
	}()
	d := newSetAssoc(4, 2)
	if &d.lines[0] != &lines[0] {
		t.Fatal("newSetAssoc did not reuse the released line array")
	}
	for i := range d.lines {
		if d.lines[i] != (Line{}) {
			t.Fatalf("recycled line %d = %+v, want the zero line", i, d.lines[i])
		}
	}
	l := mem.LineAddr(0)
	v := d.Victim(l)
	d.Install(v, l, Shared, mem.NoScope)
	if p := d.payload(v); p[0] != 0 {
		t.Fatalf("recycled block's slot not zeroed: payload[0] = %#x", p[0])
	}
	if d.slots.blocks[0] != block {
		t.Fatal("the arena did not reuse the released block")
	}
	if err := d.checkSlots(); err != nil {
		t.Fatal(err)
	}
}

// drain empties size class class of f and returns how many entries it held.
func drain[T any](f *sim.FreeList[T], class int) int {
	n := 0
	for _, ok := f.Get(class); ok; _, ok = f.Get(class) {
		n++
	}
	return n
}

// Concurrent releases never push a free list past its cap.
func TestFreeListsCappedUnderConcurrentRelease(t *testing.T) {
	sim.DropFreeLists()
	const sets, ways = 16, 4
	lineCap := sim.FreeListCap(sets * ways * int(unsafe.Sizeof(Line{})))
	blockCap := sim.FreeListCap(slotBlockBytes)
	n := max(lineCap, blockCap/2) + 16
	arrays := make([]setAssoc, n)
	for i := range arrays {
		arrays[i] = newSetAssoc(sets, ways)
		fillArray(&arrays[i]) // 64 payloads: one block each
	}
	var wg sync.WaitGroup
	for i := range arrays {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrays[i].recycle()
		}()
	}
	wg.Wait()
	if got := drain(lineFree, sets*ways); got != lineCap {
		t.Errorf("line free list holds %d arrays after %d releases, want its cap %d", got, n, lineCap)
	}
	if got := drain(blockFree, slotBlock); got != blockCap {
		t.Errorf("block free list holds %d blocks after %d releases, want its cap %d", got, n, blockCap)
	}
}
