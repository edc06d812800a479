package cache

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"bulkpim/internal/mem"
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
		c.Install(v, l, Shared)
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
