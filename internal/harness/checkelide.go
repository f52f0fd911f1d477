package harness

import (
	"context"
	"fmt"
	"sort"

	"jrs/internal/analysis/vrange"
	"jrs/internal/bytecode"
	"jrs/internal/core"
	"jrs/internal/vm"
	"jrs/internal/workloads"
)

// CheckCensus is the static provable-checks report for one program: the
// tally plus the proven sites an optimizer would elide.
type CheckCensus struct {
	Census vrange.Census        `json:"census"`
	Proven []vrange.SiteVerdict `json:"proven,omitempty"`
}

// checkCensus tallies res and lists its proven sites.
func checkCensus(res *vrange.Result) *CheckCensus {
	cc := &CheckCensus{Census: res.Summarize()}
	for _, s := range res.SortedSites() {
		if s.Proven {
			cc.Proven = append(cc.Proven, s)
		}
	}
	return cc
}

// ElideCheck is the outcome of one check-elision differential: a
// workload executed twice under the same mode — once with every runtime
// check in place, once with the statically proven checks elided and the
// dynamic oracle re-validating each elided site. The subsumption
// invariant is Violations == nil (no elided check may ever fire) and
// the two runs' program output must be byte-identical.
type ElideCheck struct {
	Workload string           `json:"workload"`
	Mode     string           `json:"mode"`
	Census   vrange.Census    `json:"census"`
	Elided   uint64           `json:"elided"`
	Checked  uint64           `json:"checked"`
	Runtime  uint64           `json:"validations"`
	Mismatch bool             `json:"outputMismatch,omitempty"`
	Violated []CheckViolation `json:"violations,omitempty"`
}

// Err folds the invariants into an error (nil when the check holds).
func (ec *ElideCheck) Err() error {
	if ec.Mismatch {
		return fmt.Errorf("%s/%s: program output differs with check elision on",
			ec.Workload, ec.Mode)
	}
	if len(ec.Violated) > 0 {
		return fmt.Errorf("%s/%s: %d elided check site(s) would have fired: %v",
			ec.Workload, ec.Mode, len(ec.Violated), ec.Violated)
	}
	return nil
}

// CheckElideWorkload runs w twice under mode — baseline, then with
// ElideBounds+ElideNull on and a checkOracle attached — and
// compares program output byte-for-byte.
func CheckElideWorkload(ctx context.Context, w workloads.Workload, scale int, mode Mode) (*ElideCheck, error) {
	base, err := RunCtx(ctx, w, scale, mode, core.Config{})
	if err != nil {
		return nil, fmt.Errorf("%s/%s baseline: %w", w.Name, mode, err)
	}
	oracle := newCheckOracle()
	cfg := core.Config{ElideBounds: true, ElideNull: true, CheckHook: oracle}
	elided, err := RunCtx(ctx, w, scale, mode, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s/%s elided: %w", w.Name, mode, err)
	}
	ec := &ElideCheck{
		Workload: w.Name,
		Mode:     mode.String(),
		Elided:   elided.VM.ChecksElided,
		Checked:  elided.VM.ChecksRun,
		Runtime:  oracle.Validations,
		Mismatch: base.VM.Out.String() != elided.VM.Out.String(),
		Violated: oracle.Violations(),
	}
	if elided.VRange != nil {
		ec.Census = elided.VRange.Summarize()
	}
	return ec, nil
}

// CheckViolation is one elided check that would have fired at runtime —
// a soundness bug in the static analysis (the subsumption invariant is
// that this never happens).
type CheckViolation struct {
	Method string `json:"method"`
	PC     int    `json:"pc"`
	Kind   string `json:"kind"`
}

func (v CheckViolation) String() string {
	return fmt.Sprintf("%s @%d (%s)", v.Method, v.PC, v.Kind)
}

// checkOracle is the dynamic soundness oracle for check elision: a
// vm.CheckHook that re-validates every elided site as it executes
// (behind `jrs -checkelide run`). Validations counts dynamic
// re-checks — a run with zero validations proves nothing, which the
// non-vacuity tests guard against.
type checkOracle struct {
	Validations uint64
	violated    map[CheckViolation]bool
}

func newCheckOracle() *checkOracle {
	return &checkOracle{violated: map[CheckViolation]bool{}}
}

// OnElidedCheck implements vm.CheckHook.
func (o *checkOracle) OnElidedCheck(m *bytecode.Method, pc int, kind vm.CheckKind, ok bool) {
	o.Validations++
	if !ok {
		o.violated[CheckViolation{Method: m.FullName(), PC: pc, Kind: kind.String()}] = true
	}
}

// Violations lists the distinct violated sites, sorted.
func (o *checkOracle) Violations() []CheckViolation {
	var out []CheckViolation
	for v := range o.violated {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		return a.Kind < b.Kind
	})
	return out
}
