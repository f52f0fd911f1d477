package vm

import "jrs/internal/bytecode"

// CheckKind classifies an elidable runtime check.
type CheckKind uint8

const (
	// BoundsCheck is the array bounds (and implied null) check guarding
	// iaload/iastore-family accesses.
	BoundsCheck CheckKind = iota + 1
	// NullCheck is an explicit null-reference check (getfield, putfield,
	// arraylength, invoke receiver, monitorenter/-exit).
	NullCheck
)

func (k CheckKind) String() string {
	if k == BoundsCheck {
		return "bounds"
	}
	return "null"
}

// CheckFacts answers per-site provability queries from the value-range
// analysis (internal/analysis/vrange, installed by core when
// Config.ElideBounds / Config.ElideNull is set). The execution engines
// consult it to skip check work at statically proven sites only.
type CheckFacts interface {
	// BoundsProven reports that at (m, pc) the index is in [0, len) on
	// a non-null array along every path.
	BoundsProven(m *bytecode.Method, pc int) bool
	// NullProven reports that the reference checked at (m, pc) is
	// non-null along every path.
	NullProven(m *bytecode.Method, pc int) bool
}

// CheckHook observes every elided check site as it executes, with the
// re-validated verdict (ok=false is a soundness violation: an elided
// check would have fired). The harness's check oracle implements this
// for `jrs -checkelide run`.
type CheckHook interface {
	OnElidedCheck(m *bytecode.Method, pc int, kind CheckKind, ok bool)
}

// BoundsElidable reports whether the engines may skip the bounds check
// at (m, pc).
func (v *VM) BoundsElidable(m *bytecode.Method, pc int) bool {
	return v.ElideBounds && v.Checks != nil && v.Checks.BoundsProven(m, pc)
}

// NullElidable reports whether the engines may skip the null check at
// (m, pc).
func (v *VM) NullElidable(m *bytecode.Method, pc int) bool {
	return v.ElideNull && v.Checks != nil && v.Checks.NullProven(m, pc)
}

// NoteElidedBounds accounts one elided bounds check and — when an
// oracle is attached — re-validates it without perturbing the run
// (Peek skips the memory watch).
func (v *VM) NoteElidedBounds(m *bytecode.Method, pc int, arr uint64, idx int64) {
	v.ChecksElided++
	if v.CheckWatch == nil {
		return
	}
	ok := arr != 0 && idx >= 0 && idx < v.Mem.Peek(arr+16)
	v.CheckWatch.OnElidedCheck(m, pc, BoundsCheck, ok)
}

// NoteElidedNull accounts one elided null check, re-validating it when
// an oracle is attached.
func (v *VM) NoteElidedNull(m *bytecode.Method, pc int, ref uint64) {
	v.ChecksElided++
	if v.CheckWatch == nil {
		return
	}
	v.CheckWatch.OnElidedCheck(m, pc, NullCheck, ref != 0)
}
