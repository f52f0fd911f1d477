package branch

import "jrs/internal/trace"

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

// IndirectUnit pairs a gshare direction predictor with a TargetCache for
// indirect transfers (direct transfers still use a BTB), modeling the
// "predictor well-tailored for indirect branches" the paper concludes an
// interpreter-mode machine should have.
type IndirectUnit struct {
	Dir   DirPredictor
	BTB   *BTB
	TC    *TargetCache
	Stats Stats
}

// NewIndirectUnit builds the enhanced unit with the paper-scale tables.
func NewIndirectUnit() *IndirectUnit {
	return &IndirectUnit{
		Dir: NewGshare(2048, 5),
		BTB: NewBTB(1024),
		TC:  NewTargetCache(2048, 12),
	}
}

// Observe runs one control transfer and reports misprediction.
func (u *IndirectUnit) Observe(in trace.Inst) bool {
	switch in.Class {
	case trace.Branch:
		u.Stats.CondBranches++
		pred := u.Dir.Predict(in.PC)
		u.Dir.Update(in.PC, in.Taken)
		miss := pred != in.Taken
		if !miss && in.Taken {
			if tgt, ok := u.BTB.Lookup(in.PC); !ok || tgt != in.Target {
				miss = true
			}
		}
		if in.Taken {
			u.BTB.Update(in.PC, in.Target)
		}
		if miss {
			u.Stats.CondMispredicts++
		}
		return miss
	case trace.Jump, trace.Call:
		u.Stats.Directs++
		tgt, ok := u.BTB.Lookup(in.PC)
		miss := !ok || tgt != in.Target
		u.BTB.Update(in.PC, in.Target)
		if miss {
			u.Stats.DirectMispredicts++
		}
		return miss
	case trace.Ret, trace.IndirectJump, trace.IndirectCall:
		u.Stats.Indirects++
		tgt, ok := u.TC.Predict(in.PC)
		miss := !ok || tgt != in.Target
		u.TC.Update(in.PC, in.Target)
		if miss {
			u.Stats.IndirectMispredicts++
		}
		return miss
	}
	return false
}

// Emit implements trace.Sink.
func (u *IndirectUnit) Emit(in trace.Inst) { u.EmitBatch([]trace.Inst{in}) }

// EmitBatch implements trace.Sink, filtering non-control
// instructions without per-instruction dispatch.
func (u *IndirectUnit) EmitBatch(batch []trace.Inst) {
	for i := range batch {
		if batch[i].Class.IsControl() {
			u.Observe(batch[i])
		}
	}
}
