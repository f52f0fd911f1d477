package harness

import (
	"context"

	"jrs/internal/core"
	"jrs/internal/stats"
)

// AblateChecksRow compares baseline runtime checking against sound
// check elision (core.Config.ElideBounds + ElideNull) for one workload,
// under both the interpreter and the JIT.
type AblateChecksRow struct {
	Workload string
	// InterpChecksBase/Elide count dynamic check executions reaching the
	// VM check helpers under the interpreter; InterpElided counts the
	// checks skipped at proven sites.
	InterpChecksBase, InterpChecksElide, InterpElided uint64
	// JITChecksBase/Elide count executed bounds-check trap branches in
	// native code (two per checked access: the negative-index and the
	// length-compare branch).
	JITChecksBase, JITChecksElide uint64
	// JITInstrBase/Elide are total emitted instructions under the JIT —
	// the cycle-proxy delta the elision buys.
	JITInstrBase, JITInstrElide uint64
	// BoundsProven and NullProven are the static site counts the
	// analysis proved.
	BoundsProven, NullProven int
}

// AblateChecksResult is the check-elision ablation.
type AblateChecksResult struct{ Rows []AblateChecksRow }

// ablateChecksPlan enumerates the elision grid: one cell per workload
// covering base and elided runs under interp and JIT.
func ablateChecksPlan(o Options) (*Plan, *AblateChecksResult) {
	list := o.seven()
	res := &AblateChecksResult{Rows: make([]AblateChecksRow, len(list))}
	p := newPlan("ablate-checks", res)
	for i, w := range list {
		i, w := i, w
		scale := resolveScale(o, w)
		key := CellKey{Experiment: "ablate-checks", Workload: w.Name, Scale: scale, Mode: "interp+jit",
			Config: "base+elide"}
		p.add(key, &res.Rows[i], func(ctx context.Context) (any, error) {
			row := AblateChecksRow{Workload: w.Name}
			elideCfg := func() core.Config {
				return core.Config{ElideBounds: true, ElideNull: true}
			}
			ib, err := RunCtx(ctx, w, scale, ModeInterp, core.Config{})
			if err != nil {
				return row, err
			}
			row.InterpChecksBase = ib.VM.ChecksRun
			ie, err := RunCtx(ctx, w, scale, ModeInterp, elideCfg())
			if err != nil {
				return row, err
			}
			row.InterpChecksElide = ie.VM.ChecksRun
			row.InterpElided = ie.VM.ChecksElided
			jb, err := RunCtx(ctx, w, scale, ModeJIT, core.Config{})
			if err != nil {
				return row, err
			}
			row.JITChecksBase = jb.VM.ChecksRun
			row.JITInstrBase = jb.Clock.Total
			je, err := RunCtx(ctx, w, scale, ModeJIT, elideCfg())
			if err != nil {
				return row, err
			}
			row.JITChecksElide = je.VM.ChecksRun
			row.JITInstrElide = je.Clock.Total
			if je.VRange != nil {
				c := je.VRange.Summarize()
				row.BoundsProven, row.NullProven = c.BoundsProven, c.NullProven
			}
			return row, nil
		})
	}
	return p, res
}

// AblateChecks measures check elision per workload.
func AblateChecks(o Options) (*AblateChecksResult, error) {
	return runSerial(ablateChecksPlan(o))
}

// Render formats the check-elision ablation.
func (r *AblateChecksResult) Render() string {
	t := stats.NewTable("Ablation: sound bounds/null check elision vs full checking (interp + JIT)",
		"workload", "interp checks (base)", "interp checks (elide)", "interp elided",
		"jit check branches (base)", "jit check branches (elide)",
		"jit instrs (base)", "jit instrs (elide)", "proven bounds", "proven null")
	for _, row := range r.Rows {
		t.AddRow(row.Workload,
			stats.Count(row.InterpChecksBase), stats.Count(row.InterpChecksElide),
			stats.Count(row.InterpElided),
			stats.Count(row.JITChecksBase), stats.Count(row.JITChecksElide),
			stats.Count(row.JITInstrBase), stats.Count(row.JITInstrElide),
			stats.Count(uint64(row.BoundsProven)), stats.Count(uint64(row.NullProven)))
	}
	t.Note("paper §4.1: bounds and null checks are pure overhead at statically proven sites; the interval/nullness analysis removes them without changing any observable output")
	return t.String()
}
