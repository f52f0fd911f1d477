package branch

import (
	"sync"

	"jrs/internal/trace"
)

// Stats accumulates prediction outcomes for one scheme.
type Stats struct {
	// CondBranches and CondMispredicts cover conditional branches
	// (direction prediction).
	CondBranches    uint64
	CondMispredicts uint64
	// Indirects and IndirectMispredicts cover register-indirect jumps,
	// indirect calls and returns (BTB target prediction).
	Indirects           uint64
	IndirectMispredicts uint64
	// Directs counts direct jumps/calls (target supplied by the BTB
	// after first sight; first sight counts as a mispredict).
	Directs           uint64
	DirectMispredicts uint64
}

// Transfers returns the number of control transfers observed.
func (s Stats) Transfers() uint64 { return s.CondBranches + s.Indirects + s.Directs }

// Mispredicts returns the total mispredictions.
func (s Stats) Mispredicts() uint64 {
	return s.CondMispredicts + s.IndirectMispredicts + s.DirectMispredicts
}

// MispredictRate returns mispredictions per control transfer.
func (s Stats) MispredictRate() float64 {
	if t := s.Transfers(); t > 0 {
		return float64(s.Mispredicts()) / float64(t)
	}
	return 0
}

// Accuracy returns 1 - MispredictRate.
func (s Stats) Accuracy() float64 { return 1 - s.MispredictRate() }

// Unit couples one direction predictor with its own BTB and statistics.
type Unit struct {
	Dir DirPredictor
	BTB *BTB
	// TC, when set, predicts indirect transfers in place of the BTB.
	TC    *TargetCache
	Stats Stats
}

// NewUnit builds a prediction unit around dir with a btbEntries-entry BTB.
func NewUnit(dir DirPredictor, btbEntries int) *Unit {
	return &Unit{Dir: dir, BTB: NewBTB(btbEntries)}
}

// Reset restores the state NewUnit (and NewIndirectUnit) left: every
// table empty and zero statistics.
func (u *Unit) Reset() {
	u.Dir.Reset()
	u.BTB.Reset()
	if u.TC != nil {
		u.TC.Reset()
	}
	u.Stats = Stats{}
}

// Observe runs one control-transfer instruction through the unit and
// reports whether it was mispredicted.
func (u *Unit) Observe(in trace.Inst) bool {
	switch in.Class {
	case trace.Branch:
		u.Stats.CondBranches++
		pred := u.Dir.Predict(in.PC)
		u.Dir.Update(in.PC, in.Taken)
		miss := pred != in.Taken
		if !miss && in.Taken {
			// Correct taken direction still needs the target.
			if t, ok := u.BTB.Lookup(in.PC); !ok || t != in.Target {
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
		t, ok := u.BTB.Lookup(in.PC)
		miss := !ok || t != in.Target
		u.BTB.Update(in.PC, in.Target)
		if miss {
			u.Stats.DirectMispredicts++
		}
		return miss
	case trace.Ret, trace.IndirectJump, trace.IndirectCall:
		u.Stats.Indirects++
		var miss bool
		if u.TC != nil {
			t, ok := u.TC.Predict(in.PC)
			miss = !ok || t != in.Target
			u.TC.Update(in.PC, in.Target)
		} else {
			t, ok := u.BTB.Lookup(in.PC)
			miss = !ok || t != in.Target
			u.BTB.Update(in.PC, in.Target)
		}
		if miss {
			u.Stats.IndirectMispredicts++
		}
		return miss
	}
	return false
}

// Emit implements trace.Sink.
func (u *Unit) Emit(in trace.Inst) { u.EmitBatch([]trace.Inst{in}) }

// EmitBatch implements trace.Sink, filtering the non-control bulk of
// the batch without per-instruction dispatch.
func (u *Unit) EmitBatch(batch []trace.Inst) {
	for i := range batch {
		if batch[i].Class.IsControl() {
			u.Observe(batch[i])
		}
	}
}

// Suite runs the paper's four predictors side by side over one trace
// stream. Configuration follows Table 2: 2K-entry first-level tables,
// 256-entry second level, 1K-entry BTB, 5 bits of Gshare global history.
type Suite struct {
	Units []*Unit
	// released is set from Release until NewSuite hands the suite out
	// again.
	released bool
}

// suites pools released suites, so a NewSuite reuses the predictor
// tables and BTBs of an earlier one rather than allocating them again.
var suites sync.Pool

// NewSuite builds the four-predictor suite with the paper's
// parameters: a released suite, reset, or a new one.
func NewSuite() *Suite {
	if s, ok := suites.Get().(*Suite); ok {
		for _, u := range s.Units {
			u.Reset()
		}
		s.released = false
		return s
	}
	const (
		firstLevel  = 2048
		secondLevel = 256
		btbEntries  = 1024
		gshareHist  = 5
		gapHist     = 8
	)
	return &Suite{Units: []*Unit{
		NewUnit(NewTwoBit(), btbEntries),
		NewUnit(NewBHT(firstLevel), btbEntries),
		NewUnit(NewGshare(firstLevel, gshareHist), btbEntries),
		NewUnit(NewGAp(firstLevel, gapHist, secondLevel), btbEntries),
	}}
}

// Release hands s back for a later NewSuite to reuse. Its statistics
// stay readable until then, but s must not be fed again. Releasing a
// suite twice panics: two holders of one suite would count into each
// other.
func (s *Suite) Release() {
	if s.released {
		panic("branch: suite released twice")
	}
	s.released = true
	suites.Put(s)
}

// Emit implements trace.Sink.
func (s *Suite) Emit(in trace.Inst) { s.EmitBatch([]trace.Inst{in}) }

// EmitBatch implements trace.Sink, feeding every control transfer to
// all units. Non-control instructions — the bulk of the stream — are
// skipped in a tight concrete loop.
func (s *Suite) EmitBatch(batch []trace.Inst) {
	for i := range batch {
		if !batch[i].Class.IsControl() {
			continue
		}
		for _, u := range s.Units {
			u.Observe(batch[i])
		}
	}
}
