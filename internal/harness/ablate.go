package harness

import (
	"fmt"
	"slices"

	"jrs/internal/branch"
	"jrs/internal/cache"
	"jrs/internal/core"
	"jrs/internal/mem"
	"jrs/internal/stats"
	"jrs/internal/trace"
	"jrs/internal/workloads"
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
func ablateInstallPlan(o Options) *Plan {
	res := &AblateInstallResult{}
	p := newPlan("ablate-install", res)
	specCells(p, o, o.seven(), jitOnly, "wa+wna+direct", &res.Rows,
		func(w workloads.Workload, mode Mode) ([]trace.Sink, []*cache.Hierarchy, func() (AblateInstallRow, error)) {
			wa := cache.PaperDefault()

			wna := cache.NewHierarchy(
				cache.Config{Name: "I", Size: 64 << 10, LineSize: 32, Assoc: 2, WriteAllocate: true},
				cache.Config{Name: "D", Size: 64 << 10, LineSize: 32, Assoc: 4, WriteAllocate: false},
			)

			direct := cache.PaperDefault()
			direct.DirectInstall = true
			direct.CodeLow = mem.CodeCacheBase
			direct.CodeHigh = mem.ClassBase

			return nil, []*cache.Hierarchy{wa, wna, direct}, func() (AblateInstallRow, error) {
				return AblateInstallRow{
					Workload:        w.Name,
					DMissesWA:       wa.D.Stats.Misses(),
					DMissesWNA:      wna.D.Stats.Misses(),
					DMissesDirect:   direct.D.Stats.Misses(),
					IMissesWA:       wa.I.Stats.Misses(),
					IMissesDirect:   direct.I.Stats.Misses(),
					WriteMissFracWA: wa.D.Stats.WriteMissFrac(),
				}, nil
			}
		})
	return p
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
// workload declaring devirt-on and devirt-off runs.
func ablateInlinePlan(o Options) *Plan {
	res := &AblateInlineResult{}
	p := newPlan("ablate-inline", res)
	cells(p, o, o.seven(), jitOnly, "", "devirt+nodevirt", &res.Rows,
		func(w workloads.Workload, mode Mode) ([]run, func() (AblateInlineRow, error)) {
			on, off := &trace.Counter{}, &trace.Counter{}
			onSuite, offSuite := branch.NewSuite(), branch.NewSuite()
			return []run{
					{mode: mode, sinks: []trace.Sink{on, onSuite}},
					{mode: mode, cfg: core.Config{JITOptions: jitNoDevirt()}, sinks: []trace.Sink{off, offSuite}},
				}, func() (AblateInlineRow, error) {
					return AblateInlineRow{Workload: w.Name,
						IndirectFracOn: on.IndirectFrac(), GshareMissOn: onSuite.Units[2].Stats.MispredictRate(),
						IndirectFracOff: off.IndirectFrac(), GshareMissOff: offSuite.Units[2].Stats.MispredictRate(),
					}, nil
				}
		})
	return p
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
// workload declaring the oracle's three runs with the threshold sweep
// spliced in after its interpret-only profile. The profiles are the
// interp and jit-first rows, so no policy runs twice.
func ablateThresholdPlan(o Options) *Plan {
	res := &AblateThresholdResult{}
	p := newPlan("ablate-threshold", res)
	cells(p, o, o.seven(), nil, "policy-sweep", "interp+thresh1,5,25,100+jit+oracle", &res.Rows,
		func(w workloads.Workload, _ Mode) ([]run, func() (ThresholdRow, error)) {
			row := ThresholdRow{Workload: w.Name}
			add := func(name string) func(*core.Engine) {
				return func(e *core.Engine) {
					row.Policies = append(row.Policies, name)
					row.Instrs = append(row.Instrs, e.TotalInstrs())
				}
			}
			var sweep []run
			for _, n := range []uint64{1, 5, 25, 100} {
				sweep = append(sweep, run{mode: ModeJIT, cfg: core.Config{Policy: core.Threshold{N: n}},
					done: add(fmt.Sprintf("thresh-%d", n))})
			}
			runs := oracleRuns(map[int]bool{}, add("interp"), add("jit-first"), add("oracle"))
			return slices.Insert(runs, 1, sweep...), func() (ThresholdRow, error) { return row, nil }
		})
	return p
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
// declaring runs at the 0.25x/1x/4x multiples of its default scale. The
// key's Scale is the workload default (the multiples derive from it), so
// this experiment intentionally ignores Quick and Scale.
func ablateScalePlan(o Options) *Plan {
	muls := []float64{0.25, 1, 4}
	res := &ScaleResult{}
	p := newPlan("ablate-scale", res)
	cells(p, Options{}, o.seven(), jitOnly, "", "muls=0.25,1,4", &res.Rows,
		func(w workloads.Workload, mode Mode) ([]run, func() (ScaleRow, error)) {
			row := ScaleRow{Workload: w.Name}
			var runs []run
			for _, m := range muls {
				scale := max(int(float64(w.DefaultN)*m), 1)
				runs = append(runs, run{mode: mode, scale: scale, done: func(e *core.Engine) {
					exec, translate, _ := e.PhaseInstrs()
					row.Scales = append(row.Scales, scale)
					row.TransFrac = append(row.TransFrac, float64(translate)/float64(translate+exec))
				}})
			}
			return runs, func() (ScaleRow, error) { return row, nil }
		})
	return p
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
