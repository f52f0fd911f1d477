package harness

import (
	"context"
	"fmt"

	"jrs/internal/branch"
	"jrs/internal/core"
	"jrs/internal/stats"
	"jrs/internal/trace"
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
func ablateIndirectPlan(o Options) (*Plan, *AblateIndirectResult) {
	list := o.seven()
	res := &AblateIndirectResult{Rows: make([]IndirectRow, 0, len(list)*2)}
	p := newPlan("ablate-indirect", res)
	for _, w := range list {
		for _, mode := range []Mode{ModeInterp, ModeJIT} {
			w, mode := w, mode
			scale := resolveScale(o, w)
			res.Rows = append(res.Rows, IndirectRow{})
			key := CellKey{Experiment: "ablate-indirect", Workload: w.Name, Scale: scale, Mode: mode.String(),
				Config: "btb+targetcache"}
			p.add(key, &res.Rows[len(res.Rows)-1], func(ctx context.Context) (any, error) {
				base := branch.NewUnit(branch.NewGshare(2048, 5), 1024)
				enhanced := branch.NewIndirectUnit()
				baseSink := sinkUnit{base}
				if _, err := RunCtx(ctx, w, scale, mode, core.Config{}, baseSink, enhanced); err != nil {
					return nil, err
				}
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
			})
		}
	}
	return p, res
}

// AblateIndirect measures how much a two-level target cache recovers of
// the interpreter's indirect-branch misprediction burden (§4.2/§6: "a
// predictor well-tailored for indirect branches should be used").
func AblateIndirect(o Options) (*AblateIndirectResult, error) {
	return runSerial(ablateIndirectPlan(o))
}

// sinkUnit adapts a branch.Unit to trace.Sink.
type sinkUnit struct{ u *branch.Unit }

// Emit implements trace.Sink.
func (s sinkUnit) Emit(in trace.Inst) {
	if in.Class.IsControl() {
		s.u.Observe(in)
	}
}

// EmitBatch implements trace.BatchSink, filtering the non-control bulk
// of the batch without per-instruction dispatch.
func (s sinkUnit) EmitBatch(batch []trace.Inst) {
	for i := range batch {
		if batch[i].Class.IsControl() {
			s.u.Observe(batch[i])
		}
	}
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
// workload running the jit-first baseline and the tiered policy.
func ablateTieredPlan(o Options) (*Plan, *AblateTieredResult) {
	list := o.seven()
	res := &AblateTieredResult{Rows: make([]TieredRow, len(list))}
	p := newPlan("ablate-tiered", res)
	for i, w := range list {
		i, w := i, w
		scale := resolveScale(o, w)
		key := CellKey{Experiment: "ablate-tiered", Workload: w.Name, Scale: scale, Mode: ModeJIT.String(),
			Config: "jit+tiered20"}
		p.add(key, &res.Rows[i], func(ctx context.Context) (any, error) {
			base, err := RunCtx(ctx, w, scale, ModeJIT, core.Config{})
			if err != nil {
				return nil, err
			}
			tiered, err := RunCtx(ctx, w, scale, ModeJIT,
				core.Config{Policy: core.Tiered{N1: 0, N2: 20}})
			if err != nil {
				return nil, err
			}
			return TieredRow{
				Workload:       w.Name,
				BaselineInstrs: base.TotalInstrs(),
				TieredInstrs:   tiered.TotalInstrs(),
				Reopts:         tiered.JIT.Reoptimizations,
			}, nil
		})
	}
	return p, res
}

// AblateTiered measures the §7 extension: recompiling hot methods with
// the optimizing (register) code generator after a second threshold.
func AblateTiered(o Options) (*AblateTieredResult, error) {
	return runSerial(ablateTieredPlan(o))
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
