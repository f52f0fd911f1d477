package pipeline

import "testing"

// invWordHash is the multiplicative inverse of the Fibonacci constant
// mod 2^64, letting tests place keys in chosen slots deterministically.
func invWordHash() uint64 {
	const c = 0x9E3779B97F4A7C15
	x := uint64(1)
	for i := 0; i < 6; i++ { // Newton iteration doubles correct bits
		x *= 2 - c*x
	}
	return x
}

// keyForSlot returns a word whose (offset) key hashes exactly to slot s
// in a table of the given mask.
func keyForSlot(s, lane, mask uint64) uint64 {
	k := (s + lane*(mask+1)) * invWordHash()
	return k - 1 // table offsets words by +1
}

func TestWordTableInverseConstant(t *testing.T) {
	inv := invWordHash()
	if inv*0x9E3779B97F4A7C15 != 1 {
		t.Fatalf("inverse constant wrong: %#x", inv)
	}
}

func TestWordTableBasicAndOverwrite(t *testing.T) {
	var tb wordTable
	tb.init()
	if _, ok := tb.get(0); ok {
		t.Error("empty table reported a hit")
	}
	// Word 0 must be representable despite 0 marking empty slots.
	tb.put(0, 7)
	if cy, ok := tb.get(0); !ok || cy != 7 {
		t.Errorf("word 0: got (%d,%v), want (7,true)", cy, ok)
	}
	tb.put(0, 9)
	if cy, _ := tb.get(0); cy != 9 {
		t.Errorf("overwrite lost: got %d, want 9", cy)
	}
	if tb.n != 1 {
		t.Errorf("overwrite changed count: n=%d", tb.n)
	}
	if _, ok := tb.get(12345); ok {
		t.Error("miss reported a hit")
	}
}

// TestWordTableCollisionAndWrap forces two keys into the table's last
// slot: the second must linear-probe past the end, wrap to slot 0, and
// both must stay retrievable.
func TestWordTableCollisionAndWrap(t *testing.T) {
	var tb wordTable
	tb.init()
	last := tb.mask
	w1 := keyForSlot(last, 0, tb.mask)
	w2 := keyForSlot(last, 1, tb.mask) // same slot, different key
	if w1 == w2 {
		t.Fatal("test bug: colliding words identical")
	}
	if wordHash(w1+1)&tb.mask != last || wordHash(w2+1)&tb.mask != last {
		t.Fatalf("test bug: keys do not map to the last slot")
	}
	tb.put(w1, 11)
	tb.put(w2, 22)
	if tb.keys[0] != w2+1 {
		t.Errorf("second colliding key should wrap to slot 0; slot 0 holds key %#x", tb.keys[0])
	}
	if cy, ok := tb.get(w1); !ok || cy != 11 {
		t.Errorf("w1: got (%d,%v), want (11,true)", cy, ok)
	}
	if cy, ok := tb.get(w2); !ok || cy != 22 {
		t.Errorf("w2 (wrapped): got (%d,%v), want (22,true)", cy, ok)
	}
	// A third key on the same chain probes through both occupied slots.
	w3 := keyForSlot(last, 2, tb.mask)
	tb.put(w3, 33)
	if cy, ok := tb.get(w3); !ok || cy != 33 {
		t.Errorf("w3 (probe chain): got (%d,%v), want (33,true)", cy, ok)
	}
}

// TestWordTableGrowth inserts past the 3/4 load factor, once and then
// through several doublings from the small initial table, and verifies
// every rehash preserved every entry at the larger capacity.
func TestWordTableGrowth(t *testing.T) {
	for _, n := range []int{wordTableInitSize/4*3 + 16, 40 * wordTableInitSize} {
		var tb wordTable
		tb.init()
		for i := 0; i < n; i++ {
			tb.put(uint64(i)*3, uint64(i)+1)
		}
		// Growth doubles at 3/4 load, so the table ends at the least
		// power of two (from the initial size) that keeps n under it.
		want := uint64(wordTableInitSize)
		for uint64(n)*4 > want*3 {
			want *= 2
		}
		if tb.mask+1 != want {
			t.Errorf("%d entries: %d slots, want %d", n, tb.mask+1, want)
		}
		if tb.n != n {
			t.Errorf("count after growth: n=%d, want %d", tb.n, n)
		}
		for i := 0; i < n; i++ {
			if cy, ok := tb.get(uint64(i) * 3); !ok || cy != uint64(i)+1 {
				t.Fatalf("%d entries: entry %d lost in rehash: got (%d,%v)", n, i, cy, ok)
			}
		}
		if _, ok := tb.get(uint64(n)*3 + 1); ok {
			t.Error("post-growth miss reported a hit")
		}
	}
}

// TestWordTableInsertionOrderIndependence pins the property the model
// relies on for determinism commentary: lookups do not depend on the
// order entries were inserted.
func TestWordTableInsertionOrderIndependence(t *testing.T) {
	words := []uint64{0, 1, 2, 1 << 40, keyForSlot(5, 0, wordTableInitSize-1), keyForSlot(5, 1, wordTableInitSize-1), 77}
	var a, b wordTable
	a.init()
	b.init()
	for i, w := range words {
		a.put(w, uint64(i)+100)
	}
	for i := len(words) - 1; i >= 0; i-- {
		b.put(words[i], uint64(i)+100)
	}
	for i, w := range words {
		ca, oka := a.get(w)
		cb, okb := b.get(w)
		if !oka || !okb || ca != cb || ca != uint64(i)+100 {
			t.Errorf("word %#x: forward (%d,%v) vs reverse (%d,%v)", w, ca, oka, cb, okb)
		}
	}
}

// TestWordTableGrowthOrderIndependence inserts the same words, each
// twice, forward and in reverse, so the two tables grow at different
// points, and requires the same lookups.
func TestWordTableGrowthOrderIndependence(t *testing.T) {
	const n = 5 * wordTableInitSize
	word := func(i int) uint64 { return uint64(i%(n/2)) * 0x1234567 }
	var a, b wordTable
	a.init()
	b.init()
	for i := 0; i < n; i++ {
		a.put(word(i), word(i)+1)
		b.put(word(n-1-i), word(n-1-i)+1)
	}
	if a.n != n/2 || b.n != n/2 || a.mask != b.mask {
		t.Fatalf("forward table %d words in %d slots, reverse %d in %d", a.n, a.mask+1, b.n, b.mask+1)
	}
	for i := 0; i < n/2; i++ {
		ca, oka := a.get(word(i))
		cb, okb := b.get(word(i))
		if !oka || !okb || ca != cb || ca != word(i)+1 {
			t.Fatalf("word %d: forward (%d,%v), reverse (%d,%v)", i, ca, oka, cb, okb)
		}
	}
}

// TestWordTableSlots checks the store index's numbering: words get
// dense slots in the order they are first seen, a repeated word keeps
// its slot, the numbering survives growth, and slot reports growth
// exactly when the table grew.
func TestWordTableSlots(t *testing.T) {
	var tb wordTable
	tb.init()
	const n = 3 * wordTableInitSize
	for i := 0; i < n; i++ {
		mask := tb.mask
		s, grew := tb.slot(uint64(i) * 5)
		if s != uint64(i) {
			t.Fatalf("word %d: slot %d on first sight, want %d", i*5, s, i)
		}
		if grew != (tb.mask != mask) {
			t.Fatalf("word %d: grew %t, table %d → %d slots", i*5, grew, mask+1, tb.mask+1)
		}
		if s, grew := tb.slot(uint64(i/2) * 5); s != uint64(i/2) || grew {
			t.Fatalf("word %d: slot %d (grew %t) when repeated, want %d", i/2*5, s, grew, i/2)
		}
	}
	if tb.n != n {
		t.Errorf("%d slots numbered, want %d", tb.n, n)
	}
}
