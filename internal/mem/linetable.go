package mem

import "math/bits"

// LineTable is an open-addressing hash table keyed by cache line: the
// miss-status tables of the caches and the memory controller's per-line
// queue index. These sit on every LLC miss, where a Go map's generic
// hashing and bucket walk showed up as ~15% of CPU.
//
// Slots are a power of two, a key's home slot is the Fibonacci hash of its
// line index, collisions probe linearly, and deletion shifts the rest of
// the probe run back, so there are no tombstones. The table doubles when
// half full, so every probe run ends at an empty slot within a few steps.
// The zero value is an empty table ready for use.
type LineTable[T any] struct {
	slots []lineSlot[T]
	n     int
	shift uint // 64 - log2(len(slots))
}

// lineSlot holds one entry. key is the line address plus one: line
// addresses are 64-byte aligned, so the +1 never collides with another
// line, and the zero key marks an empty slot, which makes a fresh slice
// an empty table.
type lineSlot[T any] struct {
	key LineAddr
	val T
}

// lineTableMinSlots is the size of a table's first allocation.
const lineTableMinSlots = 16

// home returns the slot a line's probe run starts at: the top bits of its
// line index times 2^64/φ.
func (t *LineTable[T]) home(l LineAddr) int {
	return int((l.Index() * 0x9E3779B97F4A7C15) >> t.shift)
}

// Len returns the number of entries.
func (t *LineTable[T]) Len() int { return t.n }

// Get returns the value stored for l and whether there is one.
func (t *LineTable[T]) Get(l LineAddr) (T, bool) {
	if t.n > 0 {
		mask := len(t.slots) - 1
		for i := t.home(l); ; i = (i + 1) & mask {
			s := &t.slots[i]
			if s.key == l+1 {
				return s.val, true
			}
			if s.key == 0 {
				break
			}
		}
	}
	var zero T
	return zero, false
}

// Put stores v for l, replacing any value already there. l must be a line
// address (64-byte aligned).
func (t *LineTable[T]) Put(l LineAddr, v T) {
	if l&(LineSize-1) != 0 {
		panic("mem: LineTable key is not line aligned")
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(l); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == l+1 {
			s.val = v
			return
		}
		if s.key == 0 {
			s.key, s.val = l+1, v
			t.n++
			return
		}
	}
}

// Delete removes l's entry, if any. Each later entry of the probe run
// that may legally sit in the vacated slot (its home is not after the
// slot, cyclically) moves back into it, and the run continues from the
// slot it left, so every remaining key stays reachable from its home
// without a tombstone.
func (t *LineTable[T]) Delete(l LineAddr) {
	if t.n == 0 {
		return
	}
	mask := len(t.slots) - 1
	i := t.home(l)
	for t.slots[i].key != l+1 {
		if t.slots[i].key == 0 {
			return
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key-1))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = lineSlot[T]{}
	t.n--
}

// Reset empties the table and keeps its slots, so a table reused for the
// next machine does not grow again.
func (t *LineTable[T]) Reset() {
	clear(t.slots)
	t.n = 0
}

// Range calls fn for every entry, in slot order. fn must not modify the
// table.
func (t *LineTable[T]) Range(fn func(LineAddr, T)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.key != 0 {
			fn(s.key-1, s.val)
		}
	}
}

// grow doubles the slot array (or makes the first one) and reinserts
// every entry.
func (t *LineTable[T]) grow() {
	old := t.slots
	size := 2 * len(old)
	if size == 0 {
		size = lineTableMinSlots
	}
	t.slots = make([]lineSlot[T], size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.home(s.key - 1)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
