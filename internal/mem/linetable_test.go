package mem

import (
	"math/bits"
	"math/rand"
	"testing"
)

// homeAt returns l's home slot in a table of the given power-of-two size,
// the same function the table uses.
func homeAt(l LineAddr, size int) int {
	t := LineTable[int]{shift: uint(64 - bits.TrailingZeros(uint(size)))}
	return t.home(l)
}

// lineTableKeys builds a key pool that stresses the probe logic: groups of
// keys sharing one home slot at every size up to 256 slots (a home is the
// top bits of the hash, so sharing the top 8 bits means sharing it at
// every smaller size too), one group homed on the last slot so its chain
// wraps past the end of the array, and random keys to trigger growth.
func lineTableKeys(rng *rand.Rand) []LineAddr {
	want := map[int]int{0: 6, 127: 6, 255: 8, 254: 4}
	var keys []LineAddr
	for i := uint64(1); len(want) > 0; i++ {
		l := LineAddr(i << LineShift)
		h := homeAt(l, 256)
		if want[h] > 0 {
			keys = append(keys, l)
			if want[h]--; want[h] == 0 {
				delete(want, h)
			}
		}
	}
	for i := 0; i < 40; i++ {
		keys = append(keys, LineAddr(rng.Uint64()>>8<<LineShift))
	}
	keys = append(keys, 0) // line 0 is a valid key, not the empty marker
	return keys
}

// checkLineTable requires tbl to hold exactly ref: the same Len, every
// reference entry found by Get, every pooled key outside ref missing, and
// Range visiting each entry once.
func checkLineTable(t *testing.T, step int, tbl *LineTable[int], ref map[LineAddr]int, keys []LineAddr) {
	t.Helper()
	if tbl.Len() != len(ref) {
		t.Fatalf("step %d: Len %d, reference %d", step, tbl.Len(), len(ref))
	}
	for _, l := range keys {
		v, ok := tbl.Get(l)
		rv, rok := ref[l]
		if ok != rok || v != rv {
			t.Fatalf("step %d: Get(%#x) = %d,%v, reference %d,%v", step, l, v, ok, rv, rok)
		}
	}
	seen := map[LineAddr]bool{}
	tbl.Range(func(l LineAddr, v int) {
		if seen[l] {
			t.Fatalf("step %d: Range visits %#x twice", step, l)
		}
		seen[l] = true
		if rv, ok := ref[l]; !ok || rv != v {
			t.Fatalf("step %d: Range yields %#x=%d, reference %d,%v", step, l, v, rv, ok)
		}
	})
	if len(seen) != len(ref) {
		t.Fatalf("step %d: Range visits %d entries, reference holds %d", step, len(seen), len(ref))
	}
}

// TestLineTableDifferential replays random Put/Get/Delete/Range sequences
// against a Go map and requires the same contents after every step. The
// key pool forces shared homes, wrapping chains and deletes from the
// middle of a chain. The first half mostly inserts, growing the table
// past 128 slots; the second mostly deletes.
func TestLineTableDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 42, 1 << 40} {
		rng := rand.New(rand.NewSource(seed))
		keys := lineTableKeys(rng)
		var tbl LineTable[int]
		ref := map[LineAddr]int{}
		for step := 0; step < 4000; step++ {
			l := keys[rng.Intn(len(keys))]
			// Fill for the first half, drain for the second.
			putBias := 6
			if step >= 2000 {
				putBias = 2
			}
			switch op := rng.Intn(10); {
			case op < putBias:
				v := rng.Int()
				tbl.Put(l, v)
				ref[l] = v
			case op < 9:
				tbl.Delete(l)
				delete(ref, l)
			default:
				v, ok := tbl.Get(l)
				if rv, rok := ref[l]; ok != rok || v != rv {
					t.Fatalf("seed %d step %d: Get(%#x) = %d,%v, reference %d,%v", seed, step, l, v, ok, rv, rok)
				}
			}
			checkLineTable(t, step, &tbl, ref, keys)
		}
		if len(tbl.slots) < 128 {
			t.Fatalf("seed %d: table never grew past %d slots", seed, len(tbl.slots))
		}
	}
}

// TestLineTableChainDelete pins the backward shift on a hand-built chain:
// keys sharing the last slot wrap to the front of the array, and deleting
// the chain's head or middle must leave every later key reachable.
func TestLineTableChainDelete(t *testing.T) {
	var tbl LineTable[int]
	var chain []LineAddr
	for i := uint64(1); len(chain) < 5; i++ {
		if l := LineAddr(i << LineShift); homeAt(l, lineTableMinSlots) == lineTableMinSlots-1 {
			chain = append(chain, l)
		}
	}
	for victim := range chain {
		tbl = LineTable[int]{}
		ref := map[LineAddr]int{}
		for i, l := range chain {
			tbl.Put(l, i)
			ref[l] = i
		}
		if len(tbl.slots) != lineTableMinSlots {
			t.Fatalf("table grew to %d slots; the chain no longer wraps", len(tbl.slots))
		}
		tbl.Delete(chain[victim])
		delete(ref, chain[victim])
		checkLineTable(t, victim, &tbl, ref, chain)
	}
}

func TestLineTableRejectsUnalignedKey(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put of an unaligned key did not panic")
		}
	}()
	var tbl LineTable[int]
	tbl.Put(LineAddr(LineSize+1), 1)
}

// mshrStream is an MSHR-shaped key stream: about 32 outstanding lines,
// each inserted on a miss, looked up on its fill and deleted, oldest
// first, with scattered addresses like a Zipfian scan's misses.
func mshrStream(n int) []LineAddr {
	rng := rand.New(rand.NewSource(7))
	out := make([]LineAddr, n)
	for i := range out {
		out[i] = LineAddr(rng.Uint64() >> 30 << LineShift)
	}
	return out
}

const mshrLive = 32

// BenchmarkLineTable times one miss lifetime per op on the line table:
// a join check and insert for the new line, then a fill lookup and
// delete for the oldest live one.
func BenchmarkLineTable(b *testing.B) {
	stream := mshrStream(1 << 12)
	mask := len(stream) - 1
	var tbl LineTable[*int]
	v := new(int)
	for i := 0; i < mshrLive; i++ {
		tbl.Put(stream[i], v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := stream[(i+mshrLive)&mask]
		if e, _ := tbl.Get(l); e == nil {
			tbl.Put(l, v)
		}
		old := stream[i&mask]
		if e, _ := tbl.Get(old); e != nil {
			tbl.Delete(old)
		}
	}
}

// BenchmarkLineTableMap is BenchmarkLineTable on the Go map the line
// table replaced.
func BenchmarkLineTableMap(b *testing.B) {
	stream := mshrStream(1 << 12)
	mask := len(stream) - 1
	tbl := map[LineAddr]*int{}
	v := new(int)
	for i := 0; i < mshrLive; i++ {
		tbl[stream[i]] = v
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := stream[(i+mshrLive)&mask]
		if tbl[l] == nil {
			tbl[l] = v
		}
		old := stream[i&mask]
		if tbl[old] != nil {
			delete(tbl, old)
		}
	}
}
