package harness

import (
	"context"
	"jrs/internal/branch"
	"jrs/internal/core"
	"jrs/internal/stats"
	"jrs/internal/trace"
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
// per workload covering the none/local-CHA/whole-program ladder.
func ablateDevirtPlan(o Options) (*Plan, *AblateDevirtResult) {
	list := o.seven()
	res := &AblateDevirtResult{Rows: make([]AblateDevirtRow, len(list))}
	p := newPlan("ablate-devirt", res)
	for i, w := range list {
		i, w := i, w
		scale := resolveScale(o, w)
		key := CellKey{Experiment: "ablate-devirt", Workload: w.Name, Scale: scale, Mode: ModeJIT.String(),
			Config: "none+cha+ipa"}
		p.add(key, &res.Rows[i], func(ctx context.Context) (any, error) {
			row := AblateDevirtRow{Workload: w.Name}
			for _, variant := range []string{"none", "cha", "ipa"} {
				c := &trace.Counter{}
				suite := branch.NewSuite()
				cfg := core.Config{}
				switch variant {
				case "none":
					cfg.JITOptions = jitNoDevirt()
				case "ipa":
					cfg.Devirt = true
				}
				e, err := RunCtx(ctx, w, scale, ModeJIT, cfg, c, suite)
				if err != nil {
					return row, err
				}
				indirect := c.ByClass(trace.IndirectJump) + c.ByClass(trace.IndirectCall)
				gshare := suite.Units[2].Stats.MispredictRate()
				switch variant {
				case "none":
					row.IndirectNone, row.GshareNone = indirect, gshare
				case "cha":
					row.IndirectCHA, row.GshareCHA = indirect, gshare
				case "ipa":
					row.IndirectIPA, row.GshareIPA = indirect, gshare
					row.DevirtSites = e.IPA.Summarize().DevirtSites
				}
			}
			return row, nil
		})
	}
	return p, res
}

// AblateDevirt measures the devirtualization ladder per workload.
func AblateDevirt(o Options) (*AblateDevirtResult, error) {
	return runSerial(ablateDevirtPlan(o))
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
// workload covering base and elided runs.
func ablateElidePlan(o Options) (*Plan, *AblateElideResult) {
	list := o.seven()
	res := &AblateElideResult{Rows: make([]AblateElideRow, len(list))}
	p := newPlan("ablate-elide", res)
	for i, w := range list {
		i, w := i, w
		scale := resolveScale(o, w)
		key := CellKey{Experiment: "ablate-elide", Workload: w.Name, Scale: scale, Mode: ModeJIT.String(),
			Config: "base+elide"}
		p.add(key, &res.Rows[i], func(ctx context.Context) (any, error) {
			row := AblateElideRow{Workload: w.Name}
			base, err := RunCtx(ctx, w, scale, ModeJIT, core.Config{})
			if err != nil {
				return row, err
			}
			row.LockOpsBase = base.VM.Monitors.Stats().Ops()
			opt, err := RunCtx(ctx, w, scale, ModeJIT, core.Config{ElideLocks: true})
			if err != nil {
				return row, err
			}
			row.LockOpsElide = opt.VM.Monitors.Stats().Ops()
			row.ElidedCallSites = opt.ElidedSyncSites
			row.ElidedMonitorOps = opt.ElidedMonitorOps
			return row, nil
		})
	}
	return p, res
}

// AblateElide measures lock elision per workload.
func AblateElide(o Options) (*AblateElideResult, error) {
	return runSerial(ablateElidePlan(o))
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
