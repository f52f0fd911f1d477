package harness

import (
	"jrs/internal/stats"
	"jrs/internal/trace"
	"jrs/internal/workloads"
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
// (workload, mode); the rows and the suite cumulative aggregate after
// every cell completed, in enumeration order.
func fig2Plan(o Options) *Plan {
	list := o.seven()
	res := &Fig2Result{}
	p := newPlan("fig2", res)
	var counters []trace.Counter
	cells(p, o, list, interpJIT, "", "", &counters,
		func(w workloads.Workload, mode Mode) ([]run, func() (trace.Counter, error)) {
			c := &trace.Counter{}
			return []run{{mode: mode, sinks: []trace.Sink{c}}}, func() (trace.Counter, error) { return *c, nil }
		})
	p.finish = func() error {
		res.Rows = make([]MixRow, len(counters))
		res.Cumulative = [2]trace.Counter{}
		for i, c := range counters {
			mode := interpJIT[i%len(interpJIT)]
			res.Rows[i] = MixRow{Workload: list[i/len(interpJIT)].Name, Mode: mode, Counter: c}
			cum := &res.Cumulative[i%len(interpJIT)]
			cum.Total += c.Total
			for cl := range c.ByClassPhase {
				for p := range c.ByClassPhase[cl] {
					cum.ByClassPhase[cl][p] += c.ByClassPhase[cl][p]
				}
			}
		}
		return nil
	}
	return p
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
