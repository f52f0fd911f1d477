package harness

import (
	"context"
	"jrs/internal/core"
	"jrs/internal/stats"
	"jrs/internal/trace"
)

// MixRow is one (workload, mode) instruction-mix measurement.
type MixRow struct {
	Workload string
	Mode     Mode
	Counter  trace.Counter
}

// Fig2Result reproduces Figure 2 (instruction mix, cumulative over the
// suite, plus per-workload rows).
type Fig2Result struct {
	Rows []MixRow
	// Cumulative per mode over all workloads.
	Cumulative [2]trace.Counter
}

// fig2Plan enumerates the instruction-mix grid: one cell per
// (workload, mode); the suite cumulative aggregates after every cell
// completed, in enumeration order.
func fig2Plan(o Options) (*Plan, *Fig2Result) {
	list := o.seven()
	res := &Fig2Result{Rows: make([]MixRow, 0, len(list)*2)}
	p := newPlan("fig2", res)
	for _, w := range list {
		for _, mode := range []Mode{ModeInterp, ModeJIT} {
			w, mode := w, mode
			scale := resolveScale(o, w)
			res.Rows = append(res.Rows, MixRow{Workload: w.Name, Mode: mode})
			key := CellKey{Experiment: "fig2", Workload: w.Name, Scale: scale, Mode: mode.String()}
			p.add(key, &res.Rows[len(res.Rows)-1].Counter, func(ctx context.Context) (any, error) {
				c := &trace.Counter{}
				if _, err := RunCtx(ctx, w, scale, mode, core.Config{}, c); err != nil {
					return nil, err
				}
				return c, nil
			})
		}
	}
	p.finish = func() error {
		res.Cumulative = [2]trace.Counter{}
		for _, m := range res.Rows {
			mi := 0
			if m.Mode == ModeJIT {
				mi = 1
			}
			cum := &res.Cumulative[mi]
			cum.Total += m.Counter.Total
			for cl := range m.Counter.ByClassPhase {
				for p := range m.Counter.ByClassPhase[cl] {
					cum.ByClassPhase[cl][p] += m.Counter.ByClassPhase[cl][p]
				}
			}
		}
		return nil
	}
	return p, res
}

// Fig2 measures the native instruction mix in both modes.
func Fig2(o Options) (*Fig2Result, error) {
	return runSerial(fig2Plan(o))
}

// Render formats Figure 2.
func (r *Fig2Result) Render() string {
	t := stats.NewTable("Figure 2: native instruction mix by execution mode",
		"workload", "mode", "alu", "fpu", "load", "store", "mem", "branch", "call+jump", "indirect")
	row := func(name string, mode string, c *trace.Counter) {
		t.AddRow(name, mode,
			stats.Pct(c.Frac(trace.ALU)),
			stats.Pct(c.Frac(trace.FPU)),
			stats.Pct(c.Frac(trace.Load)),
			stats.Pct(c.Frac(trace.Store)),
			stats.Pct(c.MemFrac()),
			stats.Pct(c.Frac(trace.Branch)),
			stats.Pct(c.Frac(trace.Jump)+c.Frac(trace.Call)),
			stats.Pct(c.IndirectFrac()),
		)
	}
	for _, m := range r.Rows {
		c := m.Counter
		row(m.Workload, m.Mode.String(), &c)
	}
	ci, cj := r.Cumulative[0], r.Cumulative[1]
	row("ALL", "interp", &ci)
	row("ALL", "jit", &cj)
	t.Note("paper: memory accesses ~25-40%%, ~5%% higher in interpreter (stack ops); interpreter has more indirect jumps (dispatch switch + virtual calls), JIT more direct branches/calls")
	return t.String()
}

// InterpMemExcess returns the cumulative interpreter-minus-JIT memory
// fraction gap (the paper's "~5% more frequent" claim).
func (r *Fig2Result) InterpMemExcess() float64 {
	ci, cj := r.Cumulative[0], r.Cumulative[1]
	return ci.MemFrac() - cj.MemFrac()
}

// IndirectGap returns the interpreter-minus-JIT indirect-transfer gap.
func (r *Fig2Result) IndirectGap() float64 {
	ci, cj := r.Cumulative[0], r.Cumulative[1]
	return ci.IndirectFrac() - cj.IndirectFrac()
}
