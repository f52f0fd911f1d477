package harness

import (
	"context"
	"fmt"

	"jrs/internal/core"
	"jrs/internal/pipeline"
	"jrs/internal/stats"
	"jrs/internal/trace"
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
func fig9Plan(o Options) (*Plan, *Fig9Result) {
	widths := []int{1, 2, 4, 8}
	list := o.seven()
	res := &Fig9Result{Rows: make([]ILPRow, 0, len(list)*2)}
	p := newPlan("fig9", res)
	for _, w := range list {
		for _, mode := range []Mode{ModeInterp, ModeJIT} {
			w, mode := w, mode
			scale := resolveScale(o, w)
			res.Rows = append(res.Rows, ILPRow{})
			key := CellKey{Experiment: "fig9", Workload: w.Name, Scale: scale, Mode: mode.String(),
				Config: "width=1,2,4,8"}
			p.add(key, &res.Rows[len(res.Rows)-1], func(ctx context.Context) (any, error) {
				var cores []*pipeline.Core
				var checks []*pipeline.Checker
				var sinks []trace.Sink
				for _, width := range widths {
					c := pipeline.New(pipeline.DefaultConfig(width))
					if o.CheckPipe {
						checks = append(checks, c.Check())
					}
					cores = append(cores, c)
					sinks = append(sinks, c)
				}
				if _, err := RunCtx(ctx, w, scale, mode, core.Config{}, sinks...); err != nil {
					return nil, err
				}
				if err := checkerErrs(checks); err != nil {
					return nil, err
				}
				row := ILPRow{Workload: w.Name, Mode: mode, Widths: widths}
				for _, c := range cores {
					row.IPC = append(row.IPC, c.IPC())
					row.Cycles = append(row.Cycles, c.Cycles())
				}
				return row, nil
			})
		}
	}
	return p, res
}

// Fig9 simulates each workload on out-of-order cores of width 1/2/4/8 in
// both execution modes (all widths attached to one run).
func Fig9(o Options) (*Fig9Result, error) {
	return runSerial(fig9Plan(o))
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
func fig10Plan(o Options) (*Plan, *Fig10Result) {
	p9, r9 := fig9Plan(o)
	res := &Fig10Result{r9}
	p := &Plan{experiment: "fig10", cells: p9.cells, result: res, finish: p9.finish}
	return p, res
}

// Fig10 runs the ILP study and renders the time-normalization view.
func Fig10(o Options) (*Fig10Result, error) {
	return runSerial(fig10Plan(o))
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
