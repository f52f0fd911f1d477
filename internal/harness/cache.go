package harness

import (
	"fmt"

	"jrs/internal/cache"
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
func table3Plan(o Options) *Plan {
	res := &Table3Result{}
	p := newPlan("table3", res)
	cells(p, o, o.seven(), interpJIT, "", "64K-32B-i2w-d4w", &res.Rows,
		func(w workloads.Workload, mode Mode) ([]run, func() (Table3Row, error)) {
			h := cache.PaperDefault()
			return []run{{mode: mode, hs: []*cache.Hierarchy{h}}}, func() (Table3Row, error) {
				return Table3Row{Workload: w.Name, Mode: mode, I: h.I.Stats, D: h.D.Stats}, nil
			}
		})
	return p
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
// (workload, mode), every size's cache pair attached to a single run.
func fig3Plan(o Options) *Plan {
	sizes := []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}
	res := &Fig3Result{}
	p := newPlan("fig3", res)
	cells(p, o, o.seven(), interpJIT, "", "dm-32B-8K..128K", &res.Rows,
		func(w workloads.Workload, mode Mode) ([]run, func() (Fig3Row, error)) {
			var hs []*cache.Hierarchy
			for _, sz := range sizes {
				hs = append(hs, cache.NewHierarchy(
					cache.Config{Name: "I", Size: sz, LineSize: 32, Assoc: 1, WriteAllocate: true},
					cache.Config{Name: "D", Size: sz, LineSize: 32, Assoc: 1, WriteAllocate: true},
				))
			}
			return []run{{mode: mode, hs: hs}}, func() (Fig3Row, error) {
				row := Fig3Row{Workload: w.Name, Mode: mode, Sizes: sizes}
				for _, h := range hs {
					row.WriteMissFracs = append(row.WriteMissFracs, h.D.Stats.WriteMissFrac())
				}
				return row, nil
			}
		})
	return p
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
func fig4Plan(o Options) *Plan {
	list := o.seven()
	modes := []Mode{ModeInterp, ModeJIT, ModeAOT}
	res := &Fig4Result{}
	p := newPlan("fig4", res)
	var grid []cacheIR
	cells(p, o, list, modes, "", "64K-32B-i2w-d4w", &grid,
		func(w workloads.Workload, mode Mode) ([]run, func() (cacheIR, error)) {
			h := cache.PaperDefault()
			return []run{{mode: mode, hs: []*cache.Hierarchy{h}}}, func() (cacheIR, error) {
				return cacheIR{I: h.I.Stats, D: h.D.Stats}, nil
			}
		})
	p.finish = func() error {
		res.Rows = nil
		res.PerWorkload = make(map[string][3]cacheIR)
		var sumI, sumD [3]float64
		n := float64(len(list))
		for wi, w := range list {
			row := [3]cacheIR(grid[wi*len(modes):])
			for mi := range modes {
				sumI[mi] += row[mi].I.MissRate()
				sumD[mi] += row[mi].D.MissRate()
			}
			res.PerWorkload[w.Name] = row
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
	return p
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
func fig5Plan(o Options) *Plan {
	res := &Fig5Result{}
	p := newPlan("fig5", res)
	cells(p, o, o.seven(), jitOnly, "", "64K-32B-i2w-d4w-phase", &res.Rows,
		func(w workloads.Workload, mode Mode) ([]run, func() (Fig5Row, error)) {
			h := cache.PaperDefault()
			return []run{{mode: mode, hs: []*cache.Hierarchy{h}}}, func() (Fig5Row, error) { return fig5Row(w, h), nil }
		})
	return p
}

// fig5Row reduces one workload's translate-portion cache behaviour.
func fig5Row(w workloads.Workload, h *cache.Hierarchy) Fig5Row {
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
	rest := func(all, tr cache.Stats) float64 {
		return cache.Stats{Reads: all.Reads - tr.Reads, Writes: all.Writes - tr.Writes,
			ReadMisses: all.ReadMisses - tr.ReadMisses, WriteMisses: all.WriteMisses - tr.WriteMisses}.MissRate()
	}
	row.IMissRateRest, row.DMissRateRest = rest(allI, tI), rest(allD, tD)
	return row
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
func fig6Plan(o Options) *Plan {
	w, _ := workloads.ByName("db")
	if len(o.Workloads) == 1 {
		w = o.Workloads[0]
	}
	const window = 250_000
	res := &Fig6Result{Workload: w.Name, Window: window}
	p := newPlan("fig6", res)
	var series [][]cache.Interval
	cells(p, o, []workloads.Workload{w}, interpJIT, "", fmt.Sprintf("window=%d", window), &series,
		func(w workloads.Workload, mode Mode) ([]run, func() ([]cache.Interval, error)) {
			s := cache.NewSampler(cache.PaperDefault(), window)
			return []run{{mode: mode, sinks: []trace.Sink{s}}}, func() ([]cache.Interval, error) {
				s.Finish()
				return s.Series, nil
			}
		})
	p.finish = func() error {
		res.Interp, res.JIT = series[0], series[1]
		return nil
	}
	return p
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

// fig7Plan enumerates the associativity sweep (8K caches, 32B lines).
func fig7Plan(o Options) *Plan {
	res := &Fig7Result{}
	return sweepPlan(o, "fig7", res, "8K-32B-assoc1,2,4,8", &res.Rows, []int{1, 2, 4, 8},
		func(assoc int) (cache.Config, cache.Config) {
			i := cache.Config{Name: "I", Size: 8 << 10, LineSize: 32, Assoc: assoc, WriteAllocate: true}
			d := i
			d.Name = "D"
			return i, d
		})
}

// Render formats Figure 7.
func (r *Fig7Result) Render() string {
	return renderSweep("Figure 7: miss rate vs associativity (8K caches, 32B lines)", "assoc", r.Rows,
		"paper: biggest gain comes from 1-way to 2-way")
}

// Fig8Result reproduces Figure 8 (line-size sweep, 8K direct-mapped).
type Fig8Result struct{ Rows []SweepRow }

// fig8Plan enumerates the line-size sweep (8K direct-mapped).
func fig8Plan(o Options) *Plan {
	res := &Fig8Result{}
	return sweepPlan(o, "fig8", res, "8K-dm-line16,32,64,128", &res.Rows, []int{16, 32, 64, 128},
		func(line int) (cache.Config, cache.Config) {
			i := cache.Config{Name: "I", Size: 8 << 10, LineSize: line, Assoc: 1, WriteAllocate: true}
			d := i
			d.Name = "D"
			return i, d
		})
}

// Render formats Figure 8.
func (r *Fig8Result) Render() string {
	return renderSweep("Figure 8: miss rate vs line size (8K direct-mapped)", "line", r.Rows,
		"paper: larger lines always help the I-cache; interpreted D-cache prefers small (16B) lines, JIT prefers 32-64B")
}

// sweepPlan enumerates a parameter sweep: one cell per (workload, mode)
// with one cache pair per parameter value attached to a single run.
func sweepPlan(o Options, experiment string, res Renderer, cfg string, rows *[]SweepRow, params []int,
	mk func(int) (cache.Config, cache.Config)) *Plan {
	p := newPlan(experiment, res)
	cells(p, o, o.seven(), interpJIT, "", cfg, rows,
		func(w workloads.Workload, mode Mode) ([]run, func() (SweepRow, error)) {
			var hs []*cache.Hierarchy
			for _, prm := range params {
				hs = append(hs, cache.NewHierarchy(mk(prm)))
			}
			return []run{{mode: mode, hs: hs}}, func() (SweepRow, error) {
				row := SweepRow{Workload: w.Name, Mode: mode, Params: params}
				for _, h := range hs {
					row.IMiss = append(row.IMiss, h.I.Stats.MissRate())
					row.DMiss = append(row.DMiss, h.D.Stats.MissRate())
				}
				return row, nil
			}
		})
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
