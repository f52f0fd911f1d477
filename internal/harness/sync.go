package harness

import (
	"jrs/internal/core"
	"jrs/internal/emit"
	"jrs/internal/monitor"
	"jrs/internal/stats"
	"jrs/internal/workloads"
)

// SyncRow is one workload's synchronization study.
type SyncRow struct {
	Workload string
	// CaseFracs is the enter classification (a, b, c, d) measured with
	// the thin manager (classification is implementation-independent).
	CaseFracs [4]float64
	Enters    uint64
	// Instrs per implementation: fat (monitor cache), thin, one-bit.
	FatInstrs    uint64
	ThinInstrs   uint64
	OneBitInstrs uint64
	// SyncShareJIT is synchronization's share of total JIT-mode
	// instructions (fat implementation).
	SyncShareJIT float64
	// SyncedObjectFrac is the fraction of allocated objects ever locked.
	SyncedObjectFrac float64
}

// Speedup returns the fat/thin cost ratio (the paper's ~2x claim).
func (r SyncRow) Speedup() float64 {
	if r.ThinInstrs == 0 {
		return 0
	}
	return float64(r.FatInstrs) / float64(r.ThinInstrs)
}

// Fig11Result reproduces Figure 11: (i) the case distribution and (ii)
// the fat-vs-thin (and one-bit) cost comparison, plus the §6 one-bit
// observation (E16).
type Fig11Result struct {
	Rows []SyncRow
}

// fig11Plan enumerates the synchronization grid: one cell per workload
// declaring a run under each of the three monitor implementations.
func fig11Plan(o Options) *Plan {
	res := &Fig11Result{}
	p := newPlan("fig11", res)
	cells(p, o, o.seven(), jitOnly, "", "fat+thin+onebit", &res.Rows,
		func(w workloads.Workload, mode Mode) ([]run, func() (SyncRow, error)) {
			row := SyncRow{Workload: w.Name}
			fat := func(em *emit.Emitter) monitor.Manager { return monitor.NewFat(em) }
			onebit := func(em *emit.Emitter) monitor.Manager { return monitor.NewOneBit(em) }
			return []run{
				{mode: mode, name: "fat", cfg: core.Config{Monitors: fat}, done: func(e *core.Engine) {
					st := e.VM.Monitors.Stats()
					row.FatInstrs = st.Instrs
					if e.TotalInstrs() > 0 {
						row.SyncShareJIT = float64(st.Instrs) / float64(e.TotalInstrs())
					}
				}},
				{mode: mode, done: func(e *core.Engine) { // thin locks, the VM's default
					st := e.VM.Monitors.Stats()
					row.ThinInstrs = st.Instrs
					row.Enters = st.Enters
					for c := monitor.CaseA; c <= monitor.CaseD; c++ {
						row.CaseFracs[c] = st.CaseFrac(c)
					}
					if e.VM.AllocObjects > 0 {
						row.SyncedObjectFrac = float64(len(e.VM.SyncObjects)) / float64(e.VM.AllocObjects)
					}
				}},
				{mode: mode, name: "onebit", cfg: core.Config{Monitors: onebit}, done: func(e *core.Engine) {
					row.OneBitInstrs = e.VM.Monitors.Stats().Instrs
				}},
			}, func() (SyncRow, error) { return row, nil }
		})
	return p
}

// Render formats Figure 11.
func (r *Fig11Result) Render() string {
	t := stats.NewTable("Figure 11(i): monitorenter classification (a=unlocked, b=shallow recursive, c=deep recursive, d=contended)",
		"workload", "enters", "case a", "case b", "case c", "case d", "synced objs")
	for _, row := range r.Rows {
		t.AddRow(row.Workload, stats.Count(row.Enters),
			stats.Pct(row.CaseFracs[0]), stats.Pct(row.CaseFracs[1]),
			stats.Pct(row.CaseFracs[2]), stats.Pct(row.CaseFracs[3]),
			stats.Pct(row.SyncedObjectFrac))
	}
	t.Note("paper: cases (a) and (b) dominate; >80%% of accesses are case (a); only ~8%% of objects are ever locked")

	t2 := stats.NewTable("Figure 11(ii): synchronization cost by implementation (native instructions in lock/unlock paths)",
		"workload", "monitor-cache", "thin-lock", "one-bit", "thin speedup", "sync share (JIT)")
	for _, row := range r.Rows {
		t2.AddRow(row.Workload,
			stats.Count(row.FatInstrs), stats.Count(row.ThinInstrs),
			stats.Count(row.OneBitInstrs),
			stats.F2(row.Speedup())+"x",
			stats.Pct(row.SyncShareJIT))
	}
	t2.Note("paper: thin locks speed synchronization ~2x over the JDK 1.1.6 monitor cache; a one-bit lock captures most of the benefit by optimizing case (a)")
	return t.String() + "\n" + t2.String()
}

// CaseAFrac returns the suite-wide case (a) share.
func (r *Fig11Result) CaseAFrac() float64 {
	var a, total float64
	for _, row := range r.Rows {
		a += row.CaseFracs[0] * float64(row.Enters)
		total += float64(row.Enters)
	}
	if total == 0 {
		return 0
	}
	return a / total
}

// MeanSpeedup averages fat/thin across workloads with sync activity.
func (r *Fig11Result) MeanSpeedup() float64 {
	var s, n float64
	for _, row := range r.Rows {
		if row.Enters > 0 && row.ThinInstrs > 0 {
			s += row.Speedup()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / n
}
