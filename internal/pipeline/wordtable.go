package pipeline

import "sync"

// wordTable maps 8-byte-word addresses to values. A Group's store index
// keeps one, numbering every word a load or store touches with a dense
// slot, so its cores keep their store-completion cycles in plain
// arrays: a memory operation costs one probe per group, not one per
// core. It is linear-probed open addressing rather than a Go map: no
// hashing interface, no bucket indirection, and entries are never
// deleted so probing needs no tombstones. Insertion order does not
// affect lookups.
type wordTable struct {
	// keys holds word addresses offset by +1 so the zero value means
	// "empty slot" (word address 0 itself remains representable).
	keys []uint64
	vals []uint64
	n    int
	mask uint64
}

// wordTableInitSize is the initial slot count. A table starts small
// and doubles at 3/4 load, to 16K slots for the largest indexes fig9's
// groups fill: javac at scale 6 and jess at scale 8 under the JIT
// number 10,683 and 10,631 words (10,250 and 10,303 of them stored
// to), most of them never loaded.
const wordTableInitSize = 1 << 10

func (t *wordTable) init() {
	t.keys = make([]uint64, wordTableInitSize)
	t.vals = make([]uint64, wordTableInitSize)
	t.mask = wordTableInitSize - 1
	t.n = 0
}

// hash mixes the word address; Fibonacci hashing is enough to spread
// the arithmetic address sequences the simulators generate.
func wordHash(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 }

// get returns the value recorded for word w.
func (t *wordTable) get(w uint64) (uint64, bool) {
	k := w + 1
	i := wordHash(k) & t.mask
	for {
		slot := t.keys[i]
		if slot == k {
			return t.vals[i], true
		}
		if slot == 0 {
			return 0, false
		}
		i = (i + 1) & t.mask
	}
}

// put records value v for word w, overwriting any previous entry, and
// reports whether a new entry grew the table.
func (t *wordTable) put(w, v uint64) (grew bool) {
	k := w + 1
	i := wordHash(k) & t.mask
	for {
		slot := t.keys[i]
		if slot == k {
			t.vals[i] = v
			return false
		}
		if slot == 0 {
			t.keys[i] = k
			t.vals[i] = v
			t.n++
			if uint64(t.n)*4 > (t.mask+1)*3 {
				t.grow()
				return true
			}
			return false
		}
		i = (i + 1) & t.mask
	}
}

// slot returns w's dense slot number: words are numbered 0, 1, 2, …
// in the order they are first seen, so every slot is below t.n. grew
// reports that numbering a new word grew the table.
func (t *wordTable) slot(w uint64) (s uint64, grew bool) {
	s, ok := t.get(w)
	if !ok {
		s = uint64(t.n)
		grew = t.put(w, s)
	}
	return s, grew
}

// reset empties the table and keeps its capacity. Values need no
// clearing: one is read only under its key.
func (t *wordTable) reset() {
	clear(t.keys)
	t.n = 0
}

// grow doubles capacity and rehashes; lookups are insertion-order
// independent so growth points cannot change simulated outcomes.
func (t *wordTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	size := (t.mask + 1) * 2
	t.keys = make([]uint64, size)
	t.vals = make([]uint64, size)
	t.mask = size - 1
	for j, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := wordHash(k) & t.mask
		for t.keys[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.keys[i] = k
		t.vals[i] = oldVals[j]
	}
}

// storeIndex is a Group's store index: the wordTable that numbers the
// words its loads and stores touch, and one store array per timed
// core, each as long as the table. stores[k][s] is the cycle the last
// store to the word in slot s completes on core k, or 0 before any
// store to it (a store completes at cycle 2 at the earliest). Loads
// from the word forward from it (and replay off it when they
// speculated past it). This carries the true memory dependences — loop
// variables the JIT keeps in frame slots, the interpreter's operand
// stack — without which the model overstates ILP badly.
//
// Groups take their index from storeIndexes and hand it back on
// Release, empty, so the next group starts at the largest table and
// arrays an earlier one grew to rather than doubling up from
// wordTableInitSize again. The capacity cannot change a count: slots
// are numbered in first-seen order whatever it is.
type storeIndex struct {
	words  wordTable
	stores [][]uint64 // every array the index has made, all zero in the pool
}

var storeIndexes = sync.Pool{New: func() any {
	x := new(storeIndex)
	x.words.init()
	return x
}}

// getStoreIndex takes an empty index from the pool with at least n
// store arrays.
func getStoreIndex(n int) *storeIndex {
	x := storeIndexes.Get().(*storeIndex)
	for len(x.stores) < n {
		x.stores = append(x.stores, make([]uint64, len(x.words.keys)))
	}
	return x
}

// put empties the index, whose first n store arrays a group used, and
// returns it to the pool. Only slots below the table's count were
// written.
func (x *storeIndex) put(n int) {
	for _, s := range x.stores[:n] {
		clear(s[:x.words.n])
	}
	x.words.reset()
	storeIndexes.Put(x)
}

// slot returns w's slot, growing every store array with the table.
func (x *storeIndex) slot(w uint64) uint32 {
	s, grew := x.words.slot(w)
	if grew {
		for k, old := range x.stores {
			x.stores[k] = make([]uint64, len(x.words.keys))
			copy(x.stores[k], old)
		}
	}
	return uint32(s)
}
