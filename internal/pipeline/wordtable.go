package pipeline

// wordTable maps 8-byte-word addresses to values. A Group keeps one as
// its store index, numbering every word a load or store touches with a
// dense slot, so its cores keep their store-completion cycles in plain
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
// and doubles at 3/4 load: the largest index fig9's groups fill on
// javac, mtrt and jess holds about 10K words.
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

// put records value v for word w, overwriting any previous entry.
func (t *wordTable) put(w, v uint64) {
	k := w + 1
	i := wordHash(k) & t.mask
	for {
		slot := t.keys[i]
		if slot == k {
			t.vals[i] = v
			return
		}
		if slot == 0 {
			t.keys[i] = k
			t.vals[i] = v
			t.n++
			if uint64(t.n)*4 > (t.mask+1)*3 {
				t.grow()
			}
			return
		}
		i = (i + 1) & t.mask
	}
}

// slot returns w's dense slot number: words are numbered 0, 1, 2, …
// in the order they are first seen, so every slot is below t.n.
func (t *wordTable) slot(w uint64) uint64 {
	s, ok := t.get(w)
	if !ok {
		s = uint64(t.n)
		t.put(w, s)
	}
	return s
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
