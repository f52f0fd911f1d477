package harness

import (
	"context"
	"fmt"

	"jrs/internal/analysis/ipa"
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

// StaticChecks links the program and runs the value-range/nullness
// analysis over it (ipa reachability first, vrange on top), keeping
// only proven sites in the site list.
func StaticChecks(classes []*bytecode.Class) (*CheckCensus, error) {
	p, err := vm.Link(classes)
	if err != nil {
		return nil, err
	}
	return checkCensus(vrange.Analyze(p.Classes, ipa.Analyze(p.Classes))), nil
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
	Workload string             `json:"workload"`
	Mode     string             `json:"mode"`
	Census   vrange.Census      `json:"census"`
	Elided   uint64             `json:"elided"`
	Checked  uint64             `json:"checked"`
	Runtime  uint64             `json:"validations"`
	Mismatch bool               `json:"outputMismatch,omitempty"`
	Violated []vrange.Violation `json:"violations,omitempty"`
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
// ElideBounds+ElideNull on and the vrange.CheckOracle attached — and
// compares program output byte-for-byte.
func CheckElideWorkload(ctx context.Context, w workloads.Workload, scale int, mode Mode) (*ElideCheck, error) {
	base, err := RunCtx(ctx, w, scale, mode, core.Config{})
	if err != nil {
		return nil, fmt.Errorf("%s/%s baseline: %w", w.Name, mode, err)
	}
	oracle := vrange.NewOracle()
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
