package harness

import (
	"jrs/internal/branch"
	"jrs/internal/core"
	"jrs/internal/stats"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// AblateDevirtRow compares three virtual-call strategies for one
// workload under the JIT: no devirtualization at all, the JIT's local
// CHA (monomorphic-in-the-loaded-program test, the existing default),
// and whole-program interprocedural analysis (RTA-reachability CHA plus
// exact-receiver escape facts, core.Config.Devirt).
type AblateDevirtRow struct {
	Workload string
	// IndirectNone/CHA/IPA count dynamic indirect transfers
	// (register-indirect jumps + calls), the paper's fig2/table2 BTB
	// pressure metric.
	IndirectNone, IndirectCHA, IndirectIPA uint64
	// GshareNone/CHA/IPA is the gshare misprediction rate.
	GshareNone, GshareCHA, GshareIPA float64
	// DevirtSites is the static site count the whole-program analysis
	// proved monomorphic.
	DevirtSites int
}

// AblateDevirtResult is the whole-program devirtualization ablation.
type AblateDevirtResult struct{ Rows []AblateDevirtRow }

// ablateDevirtPlan enumerates the devirtualization grid: one JIT cell
// per workload declaring the none/local-CHA/whole-program ladder.
func ablateDevirtPlan(o Options) *Plan {
	res := &AblateDevirtResult{}
	p := newPlan("ablate-devirt", res)
	cells(p, o, o.seven(), jitOnly, "", "none+cha+ipa", &res.Rows,
		func(w workloads.Workload, mode Mode) ([]run, func() (AblateDevirtRow, error)) {
			row := AblateDevirtRow{Workload: w.Name}
			var counters [3]*trace.Counter
			var suites [3]*branch.Suite
			runs := []run{
				{mode: mode, name: "nodevirt", cfg: core.Config{JITOptions: jitNoDevirt()}},
				{mode: mode},
				{mode: mode, name: "ipa-devirt", cfg: core.Config{Devirt: true}},
			}
			for i := range runs {
				counters[i], suites[i] = &trace.Counter{}, branch.NewSuite()
				runs[i].sinks = []trace.Sink{counters[i], suites[i]}
			}
			runs[2].done = func(e *core.Engine) { row.DevirtSites = e.IPA.Summarize().DevirtSites }
			return runs, func() (AblateDevirtRow, error) {
				indirect := func(i int) uint64 {
					return counters[i].ByClass(trace.IndirectJump) + counters[i].ByClass(trace.IndirectCall)
				}
				gshare := func(i int) float64 { return suites[i].Units[2].Stats.MispredictRate() }
				row.IndirectNone, row.IndirectCHA, row.IndirectIPA = indirect(0), indirect(1), indirect(2)
				row.GshareNone, row.GshareCHA, row.GshareIPA = gshare(0), gshare(1), gshare(2)
				return row, nil
			}
		})
	return p
}

// Render formats the devirtualization ablation.
func (r *AblateDevirtResult) Render() string {
	t := stats.NewTable("Ablation: whole-program devirtualization vs local CHA vs none (JIT mode)",
		"workload", "indirect (none)", "indirect (local CHA)", "indirect (whole-prog)",
		"gshare (none)", "gshare (whole-prog)", "proven sites")
	for _, row := range r.Rows {
		t.AddRow(row.Workload,
			stats.Count(row.IndirectNone), stats.Count(row.IndirectCHA), stats.Count(row.IndirectIPA),
			stats.Pct(row.GshareNone), stats.Pct(row.GshareIPA),
			stats.Count(uint64(row.DevirtSites)))
	}
	t.Note("paper §4.2: every devirtualized site turns a BTB-hungry indirect call into a direct one; whole-program reachability proves sites local CHA cannot")
	return t.String()
}

// AblateElideRow compares baseline synchronization against escape-based
// lock elision (core.Config.ElideLocks) for one workload.
type AblateElideRow struct {
	Workload string
	// LockOpsBase/Elide count dynamic monitor operations
	// (monitorenter + monitorexit) reaching the monitor manager.
	LockOpsBase, LockOpsElide uint64
	// ElidedCallSites and ElidedMonitorOps are the static rewrites the
	// analysis performed (synchronized calls redirected to unsynchronized
	// clones; monitorenter/exit bytecodes dropped).
	ElidedCallSites, ElidedMonitorOps int
}

// AblateElideResult is the lock-elision ablation.
type AblateElideResult struct{ Rows []AblateElideRow }

// ablateElidePlan enumerates the elision grid: one JIT cell per
// workload declaring base and elided runs.
func ablateElidePlan(o Options) *Plan {
	res := &AblateElideResult{}
	p := newPlan("ablate-elide", res)
	cells(p, o, o.seven(), jitOnly, "", "base+elide", &res.Rows,
		func(w workloads.Workload, mode Mode) ([]run, func() (AblateElideRow, error)) {
			row := AblateElideRow{Workload: w.Name}
			return []run{
				{mode: mode, done: func(e *core.Engine) { row.LockOpsBase = e.VM.Monitors.Stats().Ops() }},
				{mode: mode, name: "elide-locks", cfg: core.Config{ElideLocks: true}, done: func(e *core.Engine) {
					row.LockOpsElide = e.VM.Monitors.Stats().Ops()
					row.ElidedCallSites, row.ElidedMonitorOps = e.ElidedSyncSites, e.ElidedMonitorOps
				}},
			}, func() (AblateElideRow, error) { return row, nil }
		})
	return p
}

// Render formats the lock-elision ablation.
func (r *AblateElideResult) Render() string {
	t := stats.NewTable("Ablation: escape-based lock elision vs baseline synchronization (JIT mode)",
		"workload", "lock ops (base)", "lock ops (elide)", "elided call sites", "elided monitor ops")
	for _, row := range r.Rows {
		t.AddRow(row.Workload,
			stats.Count(row.LockOpsBase), stats.Count(row.LockOpsElide),
			stats.Count(uint64(row.ElidedCallSites)), stats.Count(uint64(row.ElidedMonitorOps)))
	}
	t.Note("paper §5: synchronization on provably thread-local objects is pure overhead; escape analysis removes it before the monitor ever sees the object")
	return t.String()
}
