package harness

import (
	"fmt"
	"strings"

	"jrs/internal/core"
	"jrs/internal/stats"
	"jrs/internal/workloads"
)

// Fig1Row is one workload's §3 decomposition.
type Fig1Row struct {
	Workload string
	// TranslateInstrs / ExecInstrs decompose the JIT run (Figure 1's
	// stacked bar, normalized by their sum).
	TranslateInstrs uint64
	ExecInstrs      uint64
	// InterpInstrs is the interpret-only run's total.
	InterpInstrs uint64
	// OptInstrs is the oracle-policy run's total; OptCompiled counts
	// methods the oracle chose to compile, OptMethods the methods seen.
	OptInstrs   uint64
	OptCompiled int
	OptMethods  int
}

// JITTotal returns the JIT run's total (translate + execute).
func (r Fig1Row) JITTotal() uint64 { return r.TranslateInstrs + r.ExecInstrs }

// TranslateFrac returns translation's share of the JIT run.
func (r Fig1Row) TranslateFrac() float64 {
	if t := r.JITTotal(); t > 0 {
		return float64(r.TranslateInstrs) / float64(t)
	}
	return 0
}

// JITOverInterp is the ratio printed above Figure 1's bars.
func (r Fig1Row) JITOverInterp() float64 {
	if r.InterpInstrs == 0 {
		return 0
	}
	return float64(r.JITTotal()) / float64(r.InterpInstrs)
}

// OptNormalized is the opt bar normalized to the JIT run.
func (r Fig1Row) OptNormalized() float64 {
	if t := r.JITTotal(); t > 0 {
		return float64(r.OptInstrs) / float64(t)
	}
	return 0
}

// OptSaving is the fraction of JIT time the oracle saves.
func (r Fig1Row) OptSaving() float64 { return 1 - r.OptNormalized() }

// Fig1Result reproduces Figure 1 (and the §3 text's speedup ratios, E17).
type Fig1Result struct {
	Rows []Fig1Row
}

// fig1Plan enumerates the when-or-whether-to-translate grid: one cell
// per workload declaring the interp, jit and oracle runs. The workload
// order follows the paper's Figure 1 (hello first, then the five
// benchmarks it uses).
func fig1Plan(o Options) *Plan {
	list := o.Workloads
	if list == nil {
		// Figure 1 uses hello, db, javac, jess, compress, jack (it omits
		// mpeg and mtrt); we include all eight for completeness.
		list = workloads.All()
	}
	res := &Fig1Result{}
	p := newPlan("fig1", res)
	cells(p, o, list, interpOnly, "interp+jit+opt", "", &res.Rows,
		func(w workloads.Workload, _ Mode) ([]run, func() (Fig1Row, error)) {
			row := Fig1Row{Workload: w.Name}
			set := map[int]bool{}
			runs := oracleRuns(set,
				func(e *core.Engine) { row.InterpInstrs = e.TotalInstrs() },
				func(e *core.Engine) {
					row.ExecInstrs, row.TranslateInstrs, _ = e.PhaseInstrs()
					for _, st := range e.Stats {
						if st.Invocations > 0 {
							row.OptMethods++
						}
					}
				},
				func(e *core.Engine) { row.OptInstrs = e.TotalInstrs() })
			return runs, func() (Fig1Row, error) {
				row.OptCompiled = len(set)
				return row, nil
			}
		})
	return p
}

// Render formats the Figure 1 report.
func (r *Fig1Result) Render() string {
	t := stats.NewTable(
		"Figure 1: JIT execution-time breakdown, oracle (opt) policy, and JIT/interp ratio\n"+
			"(all instruction counts; bars normalized to the JIT run)",
		"workload", "translate", "execute", "trans%", "jit/interp", "opt(norm)", "opt saves", "compiled/used")
	for _, row := range r.Rows {
		t.AddRow(
			row.Workload,
			stats.Count(row.TranslateInstrs),
			stats.Count(row.ExecInstrs),
			stats.Pct(row.TranslateFrac()),
			stats.F3(row.JITOverInterp()),
			stats.F3(row.OptNormalized()),
			stats.Pct(row.OptSaving()),
			fmt.Sprintf("%d/%d", row.OptCompiled, row.OptMethods),
		)
	}
	t.Note("paper: translating significantly outperforms interpreting; an oracle saves at most ~10-15%%, and only for translation-heavy workloads (hello, db, javac)")

	var bars strings.Builder
	bars.WriteString("\nJIT bar decomposition (T=translate, E=execute), opt bar alongside:\n")
	for _, row := range r.Rows {
		width := 40
		tW := int(row.TranslateFrac() * float64(width))
		bar := strings.Repeat("T", tW) + strings.Repeat("E", width-tW)
		optW := int(row.OptNormalized() * float64(width))
		if optW > width {
			optW = width
		}
		fmt.Fprintf(&bars, "  %-9s JIT |%s|  opt |%s|\n", row.Workload, bar,
			strings.Repeat("=", optW)+strings.Repeat(" ", width-optW))
	}
	return t.String() + bars.String()
}

// Table1Row is one workload's memory footprint comparison.
type Table1Row struct {
	Workload    string
	InterpBytes uint64
	JITBytes    uint64
}

// Overhead returns the JIT-over-interpreter memory ratio minus one.
func (r Table1Row) Overhead() float64 {
	if r.InterpBytes == 0 {
		return 0
	}
	return float64(r.JITBytes)/float64(r.InterpBytes) - 1
}

// Table1Result reproduces Table 1 (memory requirements).
type Table1Result struct {
	Rows []Table1Row
}

// table1Plan enumerates the memory-footprint grid: one cell per
// workload declaring the interpreter and JIT footprint runs.
func table1Plan(o Options) *Plan {
	list := o.Workloads
	if list == nil {
		list = workloads.All()
	}
	res := &Table1Result{}
	p := newPlan("table1", res)
	cells(p, o, list, interpOnly, "interp+jit", "", &res.Rows,
		func(w workloads.Workload, _ Mode) ([]run, func() (Table1Row, error)) {
			row := Table1Row{Workload: w.Name}
			return []run{
				{mode: ModeInterp, done: func(e *core.Engine) { row.InterpBytes = e.FootprintBytes() }},
				{mode: ModeJIT, done: func(e *core.Engine) { row.JITBytes = e.FootprintBytes() }},
			}, func() (Table1Row, error) { return row, nil }
		})
	return p
}

// Render formats Table 1.
func (r *Table1Result) Render() string {
	t := stats.NewTable("Table 1: memory requirement of interpreter vs JIT",
		"workload", "interp", "jit", "jit overhead")
	for _, row := range r.Rows {
		t.AddRow(row.Workload, stats.KB(row.InterpBytes), stats.KB(row.JITBytes),
			stats.Pct(row.Overhead()))
	}
	t.Note("paper: JIT needs 10-33%% more memory, most pronounced for small-footprint workloads")
	return t.String()
}
