package harness

import (
	"context"
	"fmt"

	"jrs/internal/branch"
	"jrs/internal/cache"
	"jrs/internal/core"
	"jrs/internal/mem"
	"jrs/internal/stats"
	"jrs/internal/trace"
)

// AblateInstallRow compares code-installation policies for one workload
// (JIT mode): the default write-allocate D-cache, a write-no-allocate
// D-cache, and the paper's §6 proposal of generating code directly into a
// writable I-cache.
type AblateInstallRow struct {
	Workload string
	// DMissesWA / DMissesWNA / DMissesDirect are total D misses.
	DMissesWA, DMissesWNA, DMissesDirect uint64
	// IMissesWA / IMissesDirect show the I-side effect of direct install.
	IMissesWA, IMissesDirect uint64
	// WriteMissFracWA is the baseline's write-miss share.
	WriteMissFracWA float64
}

// AblateInstallResult is the A1/A2 ablation.
type AblateInstallResult struct{ Rows []AblateInstallRow }

// ablateInstallPlan enumerates the installation-policy grid: one JIT
// cell per workload with all three policies attached.
func ablateInstallPlan(o Options) (*Plan, *AblateInstallResult) {
	list := o.seven()
	res := &AblateInstallResult{Rows: make([]AblateInstallRow, len(list))}
	p := newPlan("ablate-install", res)
	for i, w := range list {
		i, w := i, w
		scale := resolveScale(o, w)
		key := CellKey{Experiment: "ablate-install", Workload: w.Name, Scale: scale, Mode: ModeJIT.String(),
			Config: "wa+wna+direct"}
		p.add(key, &res.Rows[i], func(ctx context.Context) (any, error) {
			wa := cache.PaperDefault()

			wna := cache.NewHierarchy(
				cache.Config{Name: "I", Size: 64 << 10, LineSize: 32, Assoc: 2, WriteAllocate: true},
				cache.Config{Name: "D", Size: 64 << 10, LineSize: 32, Assoc: 4, WriteAllocate: false},
			)

			direct := cache.PaperDefault()
			direct.DirectInstall = true
			direct.CodeLow = mem.CodeCacheBase
			direct.CodeHigh = mem.ClassBase

			if _, err := RunCtx(ctx, w, scale, ModeJIT, core.Config{}, wa, wna, direct); err != nil {
				return nil, err
			}
			return AblateInstallRow{
				Workload:        w.Name,
				DMissesWA:       wa.D.Stats.Misses(),
				DMissesWNA:      wna.D.Stats.Misses(),
				DMissesDirect:   direct.D.Stats.Misses(),
				IMissesWA:       wa.I.Stats.Misses(),
				IMissesDirect:   direct.I.Stats.Misses(),
				WriteMissFracWA: wa.D.Stats.WriteMissFrac(),
			}, nil
		})
	}
	return p, res
}

// AblateInstall runs the three installation policies per workload.
func AblateInstall(o Options) (*AblateInstallResult, error) {
	return runSerial(ablateInstallPlan(o))
}

// Render formats the installation ablation.
func (r *AblateInstallResult) Render() string {
	t := stats.NewTable("Ablation A1/A2: JIT code-installation policy vs cache misses (64K caches)",
		"workload", "D misses (write-alloc)", "D misses (no-alloc)", "D misses (direct-to-I$)",
		"I misses (base)", "I misses (direct)", "write-miss share (base)")
	for _, row := range r.Rows {
		t.AddRow(row.Workload,
			stats.Count(row.DMissesWA), stats.Count(row.DMissesWNA), stats.Count(row.DMissesDirect),
			stats.Count(row.IMissesWA), stats.Count(row.IMissesDirect),
			stats.Pct(row.WriteMissFracWA))
	}
	t.Note("paper §6: installing generated code straight into a writable I-cache removes the compulsory D-side install misses and the D->I double transfer")
	return t.String()
}

// AblateInlineRow compares the JIT with and without CHA devirtualization.
type AblateInlineRow struct {
	Workload string
	// IndirectFracOn/Off is the indirect-transfer fraction of the
	// instruction stream.
	IndirectFracOn, IndirectFracOff float64
	// GshareMissOn/Off is the gshare misprediction rate.
	GshareMissOn, GshareMissOff float64
}

// AblateInlineResult is the A3 ablation.
type AblateInlineResult struct{ Rows []AblateInlineRow }

// ablateInlinePlan enumerates the devirtualization grid: one cell per
// workload covering devirt-on and devirt-off runs.
func ablateInlinePlan(o Options) (*Plan, *AblateInlineResult) {
	list := o.seven()
	res := &AblateInlineResult{Rows: make([]AblateInlineRow, len(list))}
	p := newPlan("ablate-inline", res)
	for i, w := range list {
		i, w := i, w
		scale := resolveScale(o, w)
		key := CellKey{Experiment: "ablate-inline", Workload: w.Name, Scale: scale, Mode: ModeJIT.String(),
			Config: "devirt+nodevirt"}
		p.add(key, &res.Rows[i], func(ctx context.Context) (any, error) {
			row := AblateInlineRow{Workload: w.Name}
			for _, devirt := range []bool{true, false} {
				c := &trace.Counter{}
				suite := branch.NewSuite()
				cfg := core.Config{}
				if !devirt {
					cfg.JITOptions = jitNoDevirt()
				}
				if _, err := RunCtx(ctx, w, scale, ModeJIT, cfg, c, suite); err != nil {
					return row, err
				}
				gshare := suite.Units[2].Stats.MispredictRate()
				if devirt {
					row.IndirectFracOn = c.IndirectFrac()
					row.GshareMissOn = gshare
				} else {
					row.IndirectFracOff = c.IndirectFrac()
					row.GshareMissOff = gshare
				}
			}
			return row, nil
		})
	}
	return p, res
}

// AblateInline measures the virtual-call optimization's effect on
// indirect-branch frequency and predictability.
func AblateInline(o Options) (*AblateInlineResult, error) {
	return runSerial(ablateInlinePlan(o))
}

// Render formats the inline ablation.
func (r *AblateInlineResult) Render() string {
	t := stats.NewTable("Ablation A3: JIT devirtualization of monomorphic virtual calls",
		"workload", "indirect% (devirt)", "indirect% (no devirt)", "gshare miss (devirt)", "gshare miss (no devirt)")
	for _, row := range r.Rows {
		t.AddRow(row.Workload,
			stats.Pct(row.IndirectFracOn), stats.Pct(row.IndirectFracOff),
			stats.Pct(row.GshareMissOn), stats.Pct(row.GshareMissOff))
	}
	t.Note("paper §4.1: JIT inlining of virtual calls lowers indirect-jump frequency and improves branch behaviour")
	return t.String()
}

// ThresholdRow is one workload's policy comparison.
type ThresholdRow struct {
	Workload string
	// Policies and Instrs align: interp, threshold 1/5/25/100, jit,
	// oracle.
	Policies []string
	Instrs   []uint64
}

// AblateThresholdResult is the A4 ablation.
type AblateThresholdResult struct{ Rows []ThresholdRow }

// ablateThresholdPlan enumerates the translate-policy grid: one cell per
// workload covering interp, the threshold sweep, jit-first and oracle.
func ablateThresholdPlan(o Options) (*Plan, *AblateThresholdResult) {
	list := o.seven()
	res := &AblateThresholdResult{Rows: make([]ThresholdRow, len(list))}
	p := newPlan("ablate-threshold", res)
	for i, w := range list {
		i, w := i, w
		scale := resolveScale(o, w)
		key := CellKey{Experiment: "ablate-threshold", Workload: w.Name, Scale: scale, Mode: "policy-sweep",
			Config: "interp+thresh1,5,25,100+jit+oracle"}
		p.add(key, &res.Rows[i], func(ctx context.Context) (any, error) {
			row := ThresholdRow{Workload: w.Name}
			add := func(name string, e *core.Engine) {
				row.Policies = append(row.Policies, name)
				row.Instrs = append(row.Instrs, e.TotalInstrs())
			}
			ei, err := RunCtx(ctx, w, scale, ModeInterp, core.Config{})
			if err != nil {
				return row, err
			}
			add("interp", ei)
			for _, n := range []uint64{1, 5, 25, 100} {
				e, err := RunCtx(ctx, w, scale, ModeJIT, core.Config{Policy: core.Threshold{N: n}})
				if err != nil {
					return row, err
				}
				add(fmt.Sprintf("thresh-%d", n), e)
			}
			ej, err := RunCtx(ctx, w, scale, ModeJIT, core.Config{})
			if err != nil {
				return row, err
			}
			add("jit-first", ej)
			eo, _, err := RunOracleCtx(ctx, w, scale)
			if err != nil {
				return row, err
			}
			add("oracle", eo)
			return row, nil
		})
	}
	return p, res
}

// AblateThreshold sweeps translate policies (the adaptive-compilation
// design space the paper's §3 opens).
func AblateThreshold(o Options) (*AblateThresholdResult, error) {
	return runSerial(ablateThresholdPlan(o))
}

// Render formats the threshold ablation (normalized to jit-first).
func (r *AblateThresholdResult) Render() string {
	if len(r.Rows) == 0 {
		return "no data\n"
	}
	headers := append([]string{"workload"}, r.Rows[0].Policies...)
	t := stats.NewTable("Ablation A4: translate-policy sweep (total instructions, normalized to jit-first)", headers...)
	for _, row := range r.Rows {
		var base uint64
		for i, p := range row.Policies {
			if p == "jit-first" {
				base = row.Instrs[i]
			}
		}
		cells := []string{row.Workload}
		for _, v := range row.Instrs {
			cells = append(cells, stats.F3(float64(v)/float64(base)))
		}
		t.AddRow(cells...)
	}
	t.Note("small positive thresholds recover most of the oracle's saving without an oracle — the adaptive-compilation insight §3 motivates")
	return t.String()
}

// ScaleRow shows how translate share shrinks as input size grows (the
// paper's s1 vs s10/s100 observation).
type ScaleRow struct {
	Workload  string
	Scales    []int
	TransFrac []float64
}

// ScaleResult is the input-size sensitivity study.
type ScaleResult struct{ Rows []ScaleRow }

// ablateScalePlan enumerates the input-size grid: one cell per workload
// covering the 0.25x/1x/4x multiples of its default scale. The key's
// Scale is the workload default (the multiples derive from it), so this
// experiment intentionally ignores Quick.
func ablateScalePlan(o Options) (*Plan, *ScaleResult) {
	muls := []float64{0.25, 1, 4}
	list := o.seven()
	res := &ScaleResult{Rows: make([]ScaleRow, len(list))}
	p := newPlan("ablate-scale", res)
	for i, w := range list {
		i, w := i, w
		key := CellKey{Experiment: "ablate-scale", Workload: w.Name, Scale: w.DefaultN, Mode: ModeJIT.String(),
			Config: "muls=0.25,1,4"}
		p.add(key, &res.Rows[i], func(ctx context.Context) (any, error) {
			row := ScaleRow{Workload: w.Name}
			for _, m := range muls {
				scale := int(float64(w.DefaultN) * m)
				if scale < 1 {
					scale = 1
				}
				e, err := RunCtx(ctx, w, scale, ModeJIT, core.Config{})
				if err != nil {
					return row, err
				}
				exec, translate, _ := e.PhaseInstrs()
				row.Scales = append(row.Scales, scale)
				row.TransFrac = append(row.TransFrac, float64(translate)/float64(translate+exec))
			}
			return row, nil
		})
	}
	return p, res
}

// AblateScale measures the translate fraction at multiples of each
// workload's default scale.
func AblateScale(o Options) (*ScaleResult, error) {
	return runSerial(ablateScalePlan(o))
}

// Render formats the scale study.
func (r *ScaleResult) Render() string {
	t := stats.NewTable("Input-size sensitivity: translate share of JIT time vs input scale (s1→s10 analogue)",
		"workload", "0.25x", "1x (default)", "4x")
	for _, row := range r.Rows {
		t.AddRow(row.Workload,
			stats.Pct(row.TransFrac[0]), stats.Pct(row.TransFrac[1]), stats.Pct(row.TransFrac[2]))
	}
	t.Note("paper §2: with larger datasets, method reuse grows and translation time amortizes — conclusions hold across sizes")
	return t.String()
}
