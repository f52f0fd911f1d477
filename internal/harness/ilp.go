package harness

import (
	"fmt"

	"jrs/internal/pipeline"
	"jrs/internal/stats"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// ILPRow is one (workload, mode) superscalar study across issue widths.
type ILPRow struct {
	Workload string
	Mode     Mode
	Widths   []int
	IPC      []float64
	Cycles   []uint64
}

// Fig9Result reproduces Figure 9 (IPC vs issue width) and Figure 10
// (normalized execution time) — both come from the same runs.
type Fig9Result struct {
	Rows []ILPRow
}

// fig9Plan enumerates the superscalar grid: one cell per
// (workload, mode), all issue widths attached to a single run. Figure 10
// shares these cells — its plan reuses the same keys, so one batched run
// (or the result cache) simulates them once.
func fig9Plan(o Options) *Plan {
	widths := []int{1, 2, 4, 8}
	res := &Fig9Result{}
	p := newPlan("fig9", res)
	cells(p, o, o.seven(), interpJIT, "", pipeConfig(o, "width=1,2,4,8"), &res.Rows,
		func(w workloads.Workload, mode Mode) ([]run, func() (ILPRow, error)) {
			g, check := coreGroup(o, fig9Configs(widths))
			return []run{{mode: mode, sinks: []trace.Sink{g}}}, func() (ILPRow, error) {
				row := ILPRow{Workload: w.Name, Mode: mode, Widths: widths}
				for _, c := range g.Cores() {
					row.IPC = append(row.IPC, c.IPC())
					row.Cycles = append(row.Cycles, c.Cycles())
				}
				return row, check()
			}
		})
	return p
}

// fig9Configs is fig9's core per issue width; they share one front end.
func fig9Configs(widths []int) []pipeline.Config {
	var cfgs []pipeline.Config
	for _, width := range widths {
		cfgs = append(cfgs, pipeline.DefaultConfig(width))
	}
	return cfgs
}

// Render formats Figure 9.
func (r *Fig9Result) Render() string {
	t := stats.NewTable("Figure 9: IPC vs issue width (64-entry ROB, 16 RS/class, 32-entry LSQ, gshare, 64K L1s)",
		"workload", "mode", "w=1", "w=2", "w=4", "w=8", "scaling 1→8")
	for _, row := range r.Rows {
		cells := []string{row.Workload, row.Mode.String()}
		for _, ipc := range row.IPC {
			cells = append(cells, stats.F2(ipc))
		}
		cells = append(cells, stats.F2(row.IPC[len(row.IPC)-1]/row.IPC[0]))
		t.AddRow(cells...)
	}
	t.Note("paper: interpreter IPC exceeds JIT's (better locality, stack-parallelism), but its scaling flattens at wide issue because the dispatch indirect jump starves fetch")
	return t.String()
}

// RenderFig10 formats the same runs as Figure 10 (execution time per mode
// normalized to that mode's width-1 run).
func (r *Fig9Result) RenderFig10() string {
	t := stats.NewTable("Figure 10: normalized execution time vs issue width (per mode, width-1 = 1.0)",
		"workload", "mode", "w=1", "w=2", "w=4", "w=8")
	for _, row := range r.Rows {
		cells := []string{row.Workload, row.Mode.String()}
		base := float64(row.Cycles[0])
		for _, c := range row.Cycles {
			cells = append(cells, stats.F3(float64(c)/base))
		}
		t.AddRow(cells...)
	}
	t.Note("paper: both modes improve with width; the interpreter's curve saturates sooner")
	return t.String()
}

// AvgIPC returns the suite-average IPC per width for a mode.
func (r *Fig9Result) AvgIPC(mode Mode) []float64 {
	var sums []float64
	var n float64
	for _, row := range r.Rows {
		if row.Mode != mode {
			continue
		}
		if sums == nil {
			sums = make([]float64, len(row.IPC))
		}
		for i, v := range row.IPC {
			sums[i] += v
		}
		n++
	}
	for i := range sums {
		sums[i] /= n
	}
	return sums
}

// Fig10Result is a named wrapper so the experiment registry can expose
// Figure 10 separately without re-running the simulations.
type Fig10Result struct{ *Fig9Result }

// fig10Plan wraps fig9's plan: identical cells (and cell keys, so a
// batched run deduplicates them), different rendering.
func fig10Plan(o Options) *Plan {
	p9 := fig9Plan(o)
	return &Plan{experiment: "fig10", cells: p9.cells, result: &Fig10Result{p9.result.(*Fig9Result)}}
}

// Render formats Figure 10.
func (r *Fig10Result) Render() string { return r.RenderFig10() }

// Sanity helper used in tests: widths must be monotone in IPC.
func (r *Fig9Result) MonotoneIPC() error {
	for _, row := range r.Rows {
		for i := 1; i < len(row.IPC); i++ {
			if row.IPC[i] < row.IPC[i-1]*0.98 {
				return fmt.Errorf("%s/%v: IPC fell from %.2f to %.2f at width %d",
					row.Workload, row.Mode, row.IPC[i-1], row.IPC[i], row.Widths[i])
			}
		}
	}
	return nil
}
