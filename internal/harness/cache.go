package harness

import (
	"context"
	"fmt"

	"jrs/internal/cache"
	"jrs/internal/core"
	"jrs/internal/stats"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// Table3Row is one (workload, mode) cache measurement at the paper's
// headline configuration (64K, 32B lines, 2-way I / 4-way D).
type Table3Row struct {
	Workload string
	Mode     Mode
	I, D     cache.Stats
}

// Table3Result reproduces Table 3.
type Table3Result struct {
	Rows []Table3Row
}

// table3Plan enumerates the headline cache grid: one cell per
// (workload, mode) at the paper's 64K configuration.
func table3Plan(o Options) (*Plan, *Table3Result) {
	list := o.seven()
	res := &Table3Result{Rows: make([]Table3Row, 0, len(list)*2)}
	p := newPlan("table3", res)
	for _, w := range list {
		for _, mode := range []Mode{ModeInterp, ModeJIT} {
			w, mode := w, mode
			scale := resolveScale(o, w)
			res.Rows = append(res.Rows, Table3Row{})
			key := CellKey{Experiment: "table3", Workload: w.Name, Scale: scale, Mode: mode.String(),
				Config: "64K-32B-i2w-d4w"}
			p.add(key, &res.Rows[len(res.Rows)-1], func(ctx context.Context) (any, error) {
				h := cache.PaperDefault()
				if _, err := RunCtx(ctx, w, scale, mode, core.Config{}, h); err != nil {
					return nil, err
				}
				return Table3Row{Workload: w.Name, Mode: mode, I: h.I.Stats, D: h.D.Stats}, nil
			})
		}
	}
	return p, res
}

// Table3 measures L1 reference and miss counts per workload and mode.
func Table3(o Options) (*Table3Result, error) {
	return runSerial(table3Plan(o))
}

// Render formats Table 3.
func (r *Table3Result) Render() string {
	t := stats.NewTable("Table 3: L1 cache behaviour (64KB, 32B lines, I 2-way / D 4-way)",
		"workload", "mode", "I refs", "I misses", "I miss%", "D refs", "D misses", "D miss%", "D wr-miss%")
	for _, row := range r.Rows {
		t.AddRow(row.Workload, row.Mode.String(),
			stats.Count(row.I.Refs()), stats.Count(row.I.Misses()),
			stats.Pct(row.I.MissRate()),
			stats.Count(row.D.Refs()), stats.Count(row.D.Misses()),
			stats.Pct(row.D.MissRate()),
			stats.Pct(row.D.WriteMissFrac()))
	}
	t.Note("paper: interpreter I-cache hit rates >99.9%%; JIT D refs are 10-80%% of interpreter's; JIT absolute misses exceed interpreter's despite fewer references")
	return t.String()
}

// ModeRows filters rows by mode.
func (r *Table3Result) ModeRows(m Mode) []Table3Row {
	var out []Table3Row
	for _, row := range r.Rows {
		if row.Mode == m {
			out = append(out, row)
		}
	}
	return out
}

// ---------------------------------------------------------------------

// Fig3Row is one workload's write-miss share of data misses.
type Fig3Row struct {
	Workload string
	Mode     Mode
	// WriteMissFrac per D-cache size (8K..128K direct-mapped, 32B).
	Sizes          []int
	WriteMissFracs []float64
}

// Fig3Result reproduces Figure 3 (percentage of data misses that are
// writes; direct-mapped, 32B lines).
type Fig3Result struct {
	Rows []Fig3Row
}

// fig3Plan enumerates the write-miss sweep: one cell per
// (workload, mode), every size's cache pair attached to a single run
// through one cache.NewGroup.
func fig3Plan(o Options) (*Plan, *Fig3Result) {
	sizes := []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}
	list := o.seven()
	res := &Fig3Result{Rows: make([]Fig3Row, 0, len(list)*2)}
	p := newPlan("fig3", res)
	for _, w := range list {
		for _, mode := range []Mode{ModeInterp, ModeJIT} {
			w, mode := w, mode
			scale := resolveScale(o, w)
			res.Rows = append(res.Rows, Fig3Row{})
			key := CellKey{Experiment: "fig3", Workload: w.Name, Scale: scale, Mode: mode.String(),
				Config: "dm-32B-8K..128K"}
			p.add(key, &res.Rows[len(res.Rows)-1], func(ctx context.Context) (any, error) {
				var hs []*cache.Hierarchy
				for _, sz := range sizes {
					hs = append(hs, cache.NewHierarchy(
						cache.Config{Name: "I", Size: sz, LineSize: 32, Assoc: 1, WriteAllocate: true},
						cache.Config{Name: "D", Size: sz, LineSize: 32, Assoc: 1, WriteAllocate: true},
					))
				}
				if _, err := RunCtx(ctx, w, scale, mode, core.Config{}, cache.NewGroup(hs...)); err != nil {
					return nil, err
				}
				row := Fig3Row{Workload: w.Name, Mode: mode, Sizes: sizes}
				for _, h := range hs {
					row.WriteMissFracs = append(row.WriteMissFracs, h.D.Stats.WriteMissFrac())
				}
				return row, nil
			})
		}
	}
	return p, res
}

// Fig3 sweeps D-cache sizes, all caches attached to one run per
// (workload, mode).
func Fig3(o Options) (*Fig3Result, error) {
	return runSerial(fig3Plan(o))
}

// Render formats Figure 3.
func (r *Fig3Result) Render() string {
	t := stats.NewTable("Figure 3: percentage of data misses that are writes (direct-mapped, 32B lines)",
		"workload", "mode", "8K", "16K", "32K", "64K", "128K")
	for _, row := range r.Rows {
		cells := []string{row.Workload, row.Mode.String()}
		for _, f := range row.WriteMissFracs {
			cells = append(cells, stats.Pct(f))
		}
		t.AddRow(cells...)
	}
	t.Note("paper: in JIT mode at 64K, 50-90%% of data misses are writes (code installation)")
	return t.String()
}

// ---------------------------------------------------------------------

// Fig4Row is one mode's average miss rates across the suite.
type Fig4Row struct {
	Mode  string
	IMiss float64
	DMiss float64
}

// Fig4Result reproduces Figure 4 (average miss rates of the Java modes
// vs the compiled "C-like" AOT configuration).
type Fig4Result struct {
	Rows []Fig4Row
	// PerWorkload keeps the underlying measurements.
	PerWorkload map[string][3]cacheIR
}

type cacheIR struct{ I, D cache.Stats }

// fig4Plan enumerates the mode-comparison grid: one cell per
// (workload, mode) over interp, jit and aot; the suite averages
// aggregate after every cell completed.
func fig4Plan(o Options) (*Plan, *Fig4Result) {
	list := o.seven()
	modes := []Mode{ModeInterp, ModeJIT, ModeAOT}
	grid := make([][3]cacheIR, len(list))
	res := &Fig4Result{}
	p := newPlan("fig4", res)
	for wi, w := range list {
		for mi, mode := range modes {
			wi, mi, w, mode := wi, mi, w, mode
			scale := resolveScale(o, w)
			key := CellKey{Experiment: "fig4", Workload: w.Name, Scale: scale, Mode: mode.String(),
				Config: "64K-32B-i2w-d4w"}
			p.add(key, &grid[wi][mi], func(ctx context.Context) (any, error) {
				h := cache.PaperDefault()
				if _, err := RunCtx(ctx, w, scale, mode, core.Config{}, h); err != nil {
					return nil, err
				}
				return cacheIR{I: h.I.Stats, D: h.D.Stats}, nil
			})
		}
	}
	p.finish = func() error {
		res.Rows = nil
		res.PerWorkload = make(map[string][3]cacheIR)
		var sumI, sumD [3]float64
		var n float64
		for wi, w := range list {
			for mi := range modes {
				sumI[mi] += grid[wi][mi].I.MissRate()
				sumD[mi] += grid[wi][mi].D.MissRate()
			}
			res.PerWorkload[w.Name] = grid[wi]
			n++
		}
		labels := []string{"java/interp", "java/jit", "compiled (C-like)"}
		for mi := range modes {
			res.Rows = append(res.Rows, Fig4Row{
				Mode:  labels[mi],
				IMiss: sumI[mi] / n,
				DMiss: sumD[mi] / n,
			})
		}
		return nil
	}
	return p, res
}

// Fig4 measures interp, JIT and AOT (C-like) miss rates at 64K.
func Fig4(o Options) (*Fig4Result, error) {
	return runSerial(fig4Plan(o))
}

// Render formats Figure 4.
func (r *Fig4Result) Render() string {
	t := stats.NewTable("Figure 4: average L1 miss rates — Java execution modes vs compiled code (64K caches)",
		"configuration", "I miss%", "D miss%")
	for _, row := range r.Rows {
		t.AddRow(row.Mode, stats.Pct(row.IMiss), stats.Pct(row.DMiss))
	}
	t.Note("paper: interpreter has the best locality on both sides; JIT's D-cache is the worst of all; behaviour depends on execution mode, not object orientation")
	return t.String()
}

// ---------------------------------------------------------------------

// Fig5Row isolates the translate portion of a JIT run.
type Fig5Row struct {
	Workload string
	// IMissFracTranslate is translation's share of all I-cache misses;
	// DMissFracTranslate its share of D misses; WriteFracInTranslate the
	// write share of the translate portion's D misses.
	IMissFracTranslate   float64
	DMissFracTranslate   float64
	WriteFracInTranslate float64
	// IMissRateTranslate / IMissRateRest compare locality inside vs
	// outside the translator.
	IMissRateTranslate float64
	IMissRateRest      float64
	DMissRateTranslate float64
	DMissRateRest      float64
}

// Fig5Result reproduces Figure 5 (cache misses within translate).
type Fig5Result struct {
	Rows []Fig5Row
}

// fig5Plan enumerates the translate-isolation grid: one JIT cell per
// workload with phase-attributed caches.
func fig5Plan(o Options) (*Plan, *Fig5Result) {
	list := o.seven()
	res := &Fig5Result{Rows: make([]Fig5Row, len(list))}
	p := newPlan("fig5", res)
	for i, w := range list {
		i, w := i, w
		scale := resolveScale(o, w)
		key := CellKey{Experiment: "fig5", Workload: w.Name, Scale: scale, Mode: ModeJIT.String(),
			Config: "64K-32B-i2w-d4w-phase"}
		p.add(key, &res.Rows[i], func(ctx context.Context) (any, error) {
			return fig5Cell(ctx, w, scale)
		})
	}
	return p, res
}

// Fig5 runs JIT mode with phase-attributed caches.
func Fig5(o Options) (*Fig5Result, error) {
	return runSerial(fig5Plan(o))
}

// fig5Cell measures one workload's translate-portion cache behaviour.
func fig5Cell(ctx context.Context, w workloads.Workload, scale int) (Fig5Row, error) {
	h := cache.PaperDefault()
	if _, err := RunCtx(ctx, w, scale, ModeJIT, core.Config{}, h); err != nil {
		return Fig5Row{}, err
	}
	tI := h.I.PhaseStats[trace.PhaseTranslate]
	tD := h.D.PhaseStats[trace.PhaseTranslate]
	allI, allD := h.I.Stats, h.D.Stats
	row := Fig5Row{Workload: w.Name}
	if allI.Misses() > 0 {
		row.IMissFracTranslate = float64(tI.Misses()) / float64(allI.Misses())
	}
	if allD.Misses() > 0 {
		row.DMissFracTranslate = float64(tD.Misses()) / float64(allD.Misses())
	}
	row.WriteFracInTranslate = tD.WriteMissFrac()
	row.IMissRateTranslate = tI.MissRate()
	row.DMissRateTranslate = tD.MissRate()
	restI := cache.Stats{
		Reads: allI.Reads - tI.Reads, Writes: allI.Writes - tI.Writes,
		ReadMisses: allI.ReadMisses - tI.ReadMisses, WriteMisses: allI.WriteMisses - tI.WriteMisses,
	}
	restD := cache.Stats{
		Reads: allD.Reads - tD.Reads, Writes: allD.Writes - tD.Writes,
		ReadMisses: allD.ReadMisses - tD.ReadMisses, WriteMisses: allD.WriteMisses - tD.WriteMisses,
	}
	row.IMissRateRest = restI.MissRate()
	row.DMissRateRest = restD.MissRate()
	return row, nil
}

// Render formats Figure 5.
func (r *Fig5Result) Render() string {
	t := stats.NewTable("Figure 5: cache misses within the translate portion of JIT runs (64K, I 2-way / D 4-way)",
		"workload", "I-miss share", "D-miss share", "write share in translate",
		"I miss% (transl)", "I miss% (rest)", "D miss% (transl)", "D miss% (rest)")
	for _, row := range r.Rows {
		t.AddRow(row.Workload,
			stats.Pct(row.IMissFracTranslate),
			stats.Pct(row.DMissFracTranslate),
			stats.Pct(row.WriteFracInTranslate),
			stats.Pct(row.IMissRateTranslate), stats.Pct(row.IMissRateRest),
			stats.Pct(row.DMissRateTranslate), stats.Pct(row.DMissRateRest))
	}
	t.Note("paper: translate contributes ~30%% of I misses and 40-80%% of D misses for translation-heavy workloads; write misses (code generation/installation) dominate translate-portion D misses (~60%%)")
	return t.String()
}

// ---------------------------------------------------------------------

// Fig6Result reproduces Figure 6 (miss behaviour over time for db).
type Fig6Result struct {
	Workload string
	Window   uint64
	// Interp and JIT are per-window total (I+D) miss counts.
	Interp []cache.Interval
	JIT    []cache.Interval
}

// fig6Plan enumerates the miss-over-time study: one cell per mode for
// the subject workload (db unless a single workload is selected).
func fig6Plan(o Options) (*Plan, *Fig6Result) {
	w, _ := workloads.ByName("db")
	if len(o.Workloads) == 1 {
		w = o.Workloads[0]
	}
	const window = 250_000
	scale := resolveScale(o, w)
	res := &Fig6Result{Workload: w.Name, Window: window}
	p := newPlan("fig6", res)
	for _, mode := range []Mode{ModeInterp, ModeJIT} {
		mode := mode
		dest := &res.Interp
		if mode == ModeJIT {
			dest = &res.JIT
		}
		key := CellKey{Experiment: "fig6", Workload: w.Name, Scale: scale, Mode: mode.String(),
			Config: fmt.Sprintf("window=%d", window)}
		p.add(key, dest, func(ctx context.Context) (any, error) {
			s := cache.NewSampler(cache.PaperDefault(), window)
			if _, err := RunCtx(ctx, w, scale, mode, core.Config{}, s); err != nil {
				return nil, err
			}
			s.Finish()
			return s.Series, nil
		})
	}
	return p, res
}

// Fig6 samples cache misses over execution windows.
func Fig6(o Options) (*Fig6Result, error) {
	return runSerial(fig6Plan(o))
}

// Render formats Figure 6 as two sparkline series.
func (r *Fig6Result) Render() string {
	toSeries := func(iv []cache.Interval) stats.Series {
		s := stats.Series{}
		for _, x := range iv {
			s.Points = append(s.Points, float64(x.IMisses+x.DMisses))
		}
		return s
	}
	si, sj := toSeries(r.Interp), toSeries(r.JIT)
	out := fmt.Sprintf("Figure 6: %s miss counts per %d-instruction window\n", r.Workload, r.Window)
	out += fmt.Sprintf("  interp (%3d windows) %s\n", len(si.Points), si.Sparkline())
	out += fmt.Sprintf("  jit    (%3d windows) %s\n", len(sj.Points), sj.Sparkline())
	out += "  note: paper: interpreter shows initial class-loading spikes then steady locality;\n" +
		"        JIT shows clustered spikes where groups of methods translate in succession\n"
	return out
}

// JITSpikiness compares peak-to-median window misses (JIT clusters should
// be spikier than interpretation).
func (r *Fig6Result) JITSpikiness() (interp, jit float64) {
	ratio := func(iv []cache.Interval) float64 {
		if len(iv) == 0 {
			return 0
		}
		var peak, sum float64
		for _, x := range iv {
			v := float64(x.IMisses + x.DMisses)
			if v > peak {
				peak = v
			}
			sum += v
		}
		mean := sum / float64(len(iv))
		if mean == 0 {
			return 0
		}
		return peak / mean
	}
	return ratio(r.Interp), ratio(r.JIT)
}

// ---------------------------------------------------------------------

// SweepRow is one workload/mode sweep of miss rates over a parameter.
type SweepRow struct {
	Workload string
	Mode     Mode
	Params   []int
	IMiss    []float64
	DMiss    []float64
}

// Fig7Result reproduces Figure 7 (associativity sweep, 8K caches).
type Fig7Result struct{ Rows []SweepRow }

// fig7Plan enumerates the associativity sweep.
func fig7Plan(o Options) (*Plan, *Fig7Result) {
	res := &Fig7Result{}
	p := sweepPlan(o, "fig7", "8K-32B-assoc1,2,4,8", &res.Rows, []int{1, 2, 4, 8},
		func(assoc int) (cache.Config, cache.Config) {
			i := cache.Config{Name: "I", Size: 8 << 10, LineSize: 32, Assoc: assoc, WriteAllocate: true}
			d := i
			d.Name = "D"
			return i, d
		})
	p.result = res
	return p, res
}

// Fig7 sweeps associativity 1/2/4/8 on 8K caches with 32B lines.
func Fig7(o Options) (*Fig7Result, error) {
	return runSerial(fig7Plan(o))
}

// Render formats Figure 7.
func (r *Fig7Result) Render() string {
	return renderSweep("Figure 7: miss rate vs associativity (8K caches, 32B lines)", "assoc", r.Rows,
		"paper: biggest gain comes from 1-way to 2-way")
}

// Fig8Result reproduces Figure 8 (line-size sweep, 8K direct-mapped).
type Fig8Result struct{ Rows []SweepRow }

// fig8Plan enumerates the line-size sweep.
func fig8Plan(o Options) (*Plan, *Fig8Result) {
	res := &Fig8Result{}
	p := sweepPlan(o, "fig8", "8K-dm-line16,32,64,128", &res.Rows, []int{16, 32, 64, 128},
		func(line int) (cache.Config, cache.Config) {
			i := cache.Config{Name: "I", Size: 8 << 10, LineSize: line, Assoc: 1, WriteAllocate: true}
			d := i
			d.Name = "D"
			return i, d
		})
	p.result = res
	return p, res
}

// Fig8 sweeps line size 16/32/64/128 on 8K direct-mapped caches.
func Fig8(o Options) (*Fig8Result, error) {
	return runSerial(fig8Plan(o))
}

// Render formats Figure 8.
func (r *Fig8Result) Render() string {
	return renderSweep("Figure 8: miss rate vs line size (8K direct-mapped)", "line", r.Rows,
		"paper: larger lines always help the I-cache; interpreted D-cache prefers small (16B) lines, JIT prefers 32-64B")
}

// sweepPlan enumerates a parameter sweep: one cell per (workload, mode)
// with one cache pair per parameter value attached to a single run
// through one cache.NewGroup. The caller's rows slice is preallocated
// so cell destinations stay stable.
func sweepPlan(o Options, experiment, cfg string, rows *[]SweepRow, params []int,
	mk func(int) (cache.Config, cache.Config)) *Plan {
	list := o.seven()
	*rows = make([]SweepRow, len(list)*2)
	p := newPlan(experiment, nil)
	idx := 0
	for _, w := range list {
		for _, mode := range []Mode{ModeInterp, ModeJIT} {
			w, mode := w, mode
			scale := resolveScale(o, w)
			key := CellKey{Experiment: experiment, Workload: w.Name, Scale: scale, Mode: mode.String(),
				Config: cfg}
			p.add(key, &(*rows)[idx], func(ctx context.Context) (any, error) {
				var hs []*cache.Hierarchy
				for _, prm := range params {
					hs = append(hs, cache.NewHierarchy(mk(prm)))
				}
				if _, err := RunCtx(ctx, w, scale, mode, core.Config{}, cache.NewGroup(hs...)); err != nil {
					return nil, err
				}
				row := SweepRow{Workload: w.Name, Mode: mode, Params: params}
				for _, h := range hs {
					row.IMiss = append(row.IMiss, h.I.Stats.MissRate())
					row.DMiss = append(row.DMiss, h.D.Stats.MissRate())
				}
				return row, nil
			})
			idx++
		}
	}
	return p
}

func renderSweep(title, param string, rows []SweepRow, note string) string {
	if len(rows) == 0 {
		return title + ": no data\n"
	}
	headers := []string{"workload", "mode", "cache"}
	for _, p := range rows[0].Params {
		headers = append(headers, fmt.Sprintf("%s=%d", param, p))
	}
	t := stats.NewTable(title, headers...)
	for _, row := range rows {
		ci := []string{row.Workload, row.Mode.String(), "I"}
		cd := []string{row.Workload, row.Mode.String(), "D"}
		for i := range row.Params {
			ci = append(ci, stats.Pct(row.IMiss[i]))
			cd = append(cd, stats.Pct(row.DMiss[i]))
		}
		t.AddRow(ci...)
		t.AddRow(cd...)
	}
	t.Note("%s", note)
	return t.String()
}
