package harness

import (
	"jrs/internal/core"
	"jrs/internal/stats"
	"jrs/internal/workloads"
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
// declaring base and elided runs under interp and JIT.
func ablateChecksPlan(o Options) *Plan {
	res := &AblateChecksResult{}
	p := newPlan("ablate-checks", res)
	cells(p, o, o.seven(), interpOnly, "interp+jit", "base+elide", &res.Rows,
		func(w workloads.Workload, _ Mode) ([]run, func() (AblateChecksRow, error)) {
			row := AblateChecksRow{Workload: w.Name}
			elide := core.Config{ElideBounds: true, ElideNull: true}
			return []run{
				{mode: ModeInterp, done: func(e *core.Engine) { row.InterpChecksBase = e.VM.ChecksRun }},
				{mode: ModeInterp, name: "elide-checks", cfg: elide, done: func(e *core.Engine) {
					row.InterpChecksElide, row.InterpElided = e.VM.ChecksRun, e.VM.ChecksElided
				}},
				{mode: ModeJIT, done: func(e *core.Engine) {
					row.JITChecksBase, row.JITInstrBase = e.VM.ChecksRun, e.Clock.Total
				}},
				{mode: ModeJIT, name: "elide-checks", cfg: elide, done: func(e *core.Engine) {
					row.JITChecksElide, row.JITInstrElide = e.VM.ChecksRun, e.Clock.Total
					if e.VRange != nil {
						c := e.VRange.Summarize()
						row.BoundsProven, row.NullProven = c.BoundsProven, c.NullProven
					}
				}},
			}, func() (AblateChecksRow, error) { return row, nil }
		})
	return p
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
