package pipeline

// wordCycleTable maps 8-byte-word addresses to the completion cycle of
// the last store to that word. It replaces a Go map on the model's
// hottest lookup path (one probe per simulated load, one insert per
// store) with linear-probed open addressing: no hashing interface, no
// bucket indirection, and entries are never deleted so probing needs no
// tombstones. Insertion order does not affect lookups, so results are
// identical to the map it replaced.
type wordCycleTable struct {
	// keys holds word addresses offset by +1 so the zero value means
	// "empty slot" (word address 0 itself remains representable).
	keys   []uint64
	cycles []uint64
	n      int
	mask   uint64
}

// wordTableInitSize is the initial slot count. A table starts small
// and doubles at 3/4 load: the largest one fig9's cores fill on
// javac, mtrt and jess holds about 10K words, and a cell may build
// tens of cores.
const wordTableInitSize = 1 << 10

func (t *wordCycleTable) init() {
	t.keys = make([]uint64, wordTableInitSize)
	t.cycles = make([]uint64, wordTableInitSize)
	t.mask = wordTableInitSize - 1
	t.n = 0
}

// hash mixes the word address; Fibonacci hashing is enough to spread
// the arithmetic address sequences the simulators generate.
func wordHash(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 }

// get returns the recorded cycle for word w.
func (t *wordCycleTable) get(w uint64) (uint64, bool) {
	k := w + 1
	i := wordHash(k) & t.mask
	for {
		slot := t.keys[i]
		if slot == k {
			return t.cycles[i], true
		}
		if slot == 0 {
			return 0, false
		}
		i = (i + 1) & t.mask
	}
}

// put records cycle cy for word w, overwriting any previous entry.
func (t *wordCycleTable) put(w, cy uint64) {
	k := w + 1
	i := wordHash(k) & t.mask
	for {
		slot := t.keys[i]
		if slot == k {
			t.cycles[i] = cy
			return
		}
		if slot == 0 {
			t.keys[i] = k
			t.cycles[i] = cy
			t.n++
			if uint64(t.n)*4 > (t.mask+1)*3 {
				t.grow()
			}
			return
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles capacity and rehashes; lookups are insertion-order
// independent so growth points cannot change simulated outcomes.
func (t *wordCycleTable) grow() {
	oldKeys, oldCycles := t.keys, t.cycles
	size := (t.mask + 1) * 2
	t.keys = make([]uint64, size)
	t.cycles = make([]uint64, size)
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
		t.cycles[i] = oldCycles[j]
	}
}
