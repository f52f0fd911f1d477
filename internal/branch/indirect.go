package branch

// TargetCache is a two-level indirect-branch target predictor in the
// style the paper's §4.2/§6 recommends for interpreter workloads
// (Chang/Hao/Patt target caches, cited as [22]): the predicted target of
// an indirect jump is looked up by the XOR of the branch PC with a path
// history of recent indirect targets, instead of the BTB's
// last-target-per-PC rule. The interpreter's dispatch jump — one PC,
// hundreds of targets following the bytecode stream's patterns — is
// exactly the case where path history pays off.
type TargetCache struct {
	targets []uint64
	valid   []bool
	mask    uint64
	// history folds the low bits of recent indirect targets.
	history  uint64
	histBits int
}

// NewTargetCache builds a target cache with entries slots (power of two)
// and historyBits bits of folded path history.
func NewTargetCache(entries, historyBits int) *TargetCache {
	return &TargetCache{
		targets:  make([]uint64, entries),
		valid:    make([]bool, entries),
		mask:     uint64(entries - 1),
		histBits: historyBits,
	}
}

func (t *TargetCache) index(pc uint64) uint64 {
	return ((pc >> 2) ^ t.history) & t.mask
}

// Predict returns the predicted target for the indirect branch at pc.
func (t *TargetCache) Predict(pc uint64) (uint64, bool) {
	i := t.index(pc)
	if !t.valid[i] {
		return 0, false
	}
	return t.targets[i], true
}

// Update trains the cache and rolls the path history.
func (t *TargetCache) Update(pc, target uint64) {
	i := t.index(pc)
	t.targets[i] = target
	t.valid[i] = true
	// Fold the target's distinguishing bits into the history.
	t.history = ((t.history << 2) ^ (target >> 4)) & ((1 << t.histBits) - 1)
}

// Reset empties the cache and its path history.
func (t *TargetCache) Reset() {
	clear(t.targets)
	clear(t.valid)
	t.history = 0
}

// NewIndirectUnit builds the enhanced unit the paper concludes an
// interpreter-mode machine should have: gshare directions and a BTB for
// direct transfers, with indirect transfers predicted by a TargetCache.
// Tables are paper-scale.
func NewIndirectUnit() *Unit {
	u := NewUnit(NewGshare(2048, 5), 1024)
	u.TC = NewTargetCache(2048, 12)
	return u
}
