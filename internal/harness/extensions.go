package harness

import (
	"fmt"

	"jrs/internal/branch"
	"jrs/internal/core"
	"jrs/internal/stats"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// IndirectRow compares the conventional BTB against the target-cache
// indirect predictor the paper's conclusions call for.
type IndirectRow struct {
	Workload string
	Mode     Mode
	// BTBMiss / TCMiss are overall misprediction rates with the BTB
	// baseline (gshare unit) and with the target cache.
	BTBMiss float64
	TCMiss  float64
	// BTBIndirectMiss / TCIndirectMiss isolate the indirect transfers.
	BTBIndirectMiss float64
	TCIndirectMiss  float64
}

// AblateIndirectResult is the indirect-predictor extension study.
type AblateIndirectResult struct{ Rows []IndirectRow }

// ablateIndirectPlan enumerates the indirect-predictor grid: one cell
// per (workload, mode) running BTB and target-cache front ends together.
func ablateIndirectPlan(o Options) *Plan {
	res := &AblateIndirectResult{}
	p := newPlan("ablate-indirect", res)
	cells(p, o, o.seven(), interpJIT, "", "btb+targetcache", &res.Rows,
		func(w workloads.Workload, mode Mode) ([]run, func() (IndirectRow, error)) {
			base := branch.NewUnit(branch.NewGshare(2048, 5), 1024)
			enhanced := branch.NewIndirectUnit()
			return []run{{mode: mode, sinks: []trace.Sink{base, enhanced}}}, func() (IndirectRow, error) {
				row := IndirectRow{Workload: w.Name, Mode: mode}
				row.BTBMiss = base.Stats.MispredictRate()
				row.TCMiss = enhanced.Stats.MispredictRate()
				if base.Stats.Indirects > 0 {
					row.BTBIndirectMiss = float64(base.Stats.IndirectMispredicts) /
						float64(base.Stats.Indirects)
					row.TCIndirectMiss = float64(enhanced.Stats.IndirectMispredicts) /
						float64(enhanced.Stats.Indirects)
				}
				return row, nil
			}
		})
	return p
}

// Render formats the indirect-predictor study.
func (r *AblateIndirectResult) Render() string {
	t := stats.NewTable("Extension: indirect-branch target cache vs BTB (2K entries, 12-bit path history)",
		"workload", "mode", "overall miss (BTB)", "overall miss (TC)",
		"indirect miss (BTB)", "indirect miss (TC)")
	for _, row := range r.Rows {
		t.AddRow(row.Workload, row.Mode.String(),
			stats.Pct(row.BTBMiss), stats.Pct(row.TCMiss),
			stats.Pct(row.BTBIndirectMiss), stats.Pct(row.TCIndirectMiss))
	}
	t.Note("paper §6: interpreter-mode machines need a predictor tailored for indirect branches; the target cache recovers most dispatch mispredictions")
	return t.String()
}

// InterpIndirectGain returns the mean interpreter-mode improvement in
// indirect misprediction rate.
func (r *AblateIndirectResult) InterpIndirectGain() float64 {
	var g, n float64
	for _, row := range r.Rows {
		if row.Mode == ModeInterp && row.BTBIndirectMiss > 0 {
			g += row.BTBIndirectMiss - row.TCIndirectMiss
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return g / n
}

// TieredRow compares one-tier and two-tier compilation.
type TieredRow struct {
	Workload string
	// Instrs per policy: jit-first baseline, tiered, and the tier counts.
	BaselineInstrs uint64
	TieredInstrs   uint64
	Reopts         int
}

// Gain is the tiered improvement over single-tier baseline compilation.
func (r TieredRow) Gain() float64 {
	if r.BaselineInstrs == 0 {
		return 0
	}
	return 1 - float64(r.TieredInstrs)/float64(r.BaselineInstrs)
}

// AblateTieredResult is the tiered-compilation extension study.
type AblateTieredResult struct{ Rows []TieredRow }

// ablateTieredPlan enumerates the tiered-compilation grid: one cell per
// workload declaring the jit-first baseline and the tiered policy.
func ablateTieredPlan(o Options) *Plan {
	res := &AblateTieredResult{}
	p := newPlan("ablate-tiered", res)
	cells(p, o, o.seven(), jitOnly, "", "jit+tiered20", &res.Rows,
		func(w workloads.Workload, mode Mode) ([]run, func() (TieredRow, error)) {
			row := TieredRow{Workload: w.Name}
			return []run{
				{mode: mode, done: func(e *core.Engine) { row.BaselineInstrs = e.TotalInstrs() }},
				{mode: mode, name: "tiered20", cfg: core.Config{Policy: core.Tiered{N1: 0, N2: 20}}, done: func(e *core.Engine) {
					row.TieredInstrs, row.Reopts = e.TotalInstrs(), e.JIT.Reoptimizations
				}},
			}, func() (TieredRow, error) { return row, nil }
		})
	return p
}

// Render formats the tiered study.
func (r *AblateTieredResult) Render() string {
	t := stats.NewTable("Extension: tiered recompilation (baseline tier-1 + optimizing tier-2 at 20 invocations)",
		"workload", "jit-first", "tiered", "gain", "reoptimized")
	for _, row := range r.Rows {
		t.AddRow(row.Workload,
			stats.Count(row.BaselineInstrs), stats.Count(row.TieredInstrs),
			stats.Pct(row.Gain()), fmt.Sprint(row.Reopts))
	}
	t.Note("the §7 proposal (hot-site counters triggering the compiler) realized: hot methods get register-allocated code, cold ones keep cheap baseline code")
	return t.String()
}
