package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"testing"
	"time"

	"jrs/internal/core"
	"jrs/internal/harness/chaos"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// superscalarPlans is the superscalar experiments (fig9, which fig10
// shares, ablate-interp-ilp and ablate-ooo) on the given options.
func superscalarPlans(o Options) []*Plan {
	var plans []*Plan
	for _, name := range []string{"fig9", "ablate-interp-ilp", "ablate-ooo"} {
		e, _ := Lookup(name)
		plans = append(plans, e.Plan(o))
	}
	return plans
}

// cachesimPlans is the bench's cachesim grid (table2, table3, fig3,
// fig7) on the given options, one plan per experiment.
func cachesimPlans(o Options) []*Plan {
	var plans []*Plan
	for _, name := range []string{"table2", "table3", "fig3", "fig7"} {
		e, _ := Lookup(name)
		plans = append(plans, e.Plan(o))
	}
	return plans
}

// multiRunPlans is every experiment whose cells declare several engine
// runs, plus fig2, whose one-run cells are fused with them where they
// share an engine spec, on the given options.
func multiRunPlans(o Options) []*Plan {
	var plans []*Plan
	for _, name := range []string{"fig1", "table1", "fig2", "fig11", "ablate-inline", "ablate-threshold",
		"ablate-scale", "ablate-tiered", "ablate-devirt", "ablate-elide", "ablate-checks"} {
		e, _ := Lookup(name)
		plans = append(plans, e.Plan(o))
	}
	return plans
}

// TestFusedPayloadsMatchSolo is the fusion differential: the payload
// of every cell group from one fused claim must equal, byte for byte,
// what CellGroup.Run makes of the group alone. The first grid is the
// whole registry on hello plus the cachesim experiments on hello and db;
// some fused claim there must hold a superscalar member. The second is
// the multi-run experiments and fig2 on hello and db, where the §3
// oracle compiles a nontrivial method set. The third is table2 and
// ablate-scale on jack at its default scale. Every claim must gather
// every pending group of its spec.
func TestFusedPayloadsMatchSolo(t *testing.T) {
	var plans []*Plan
	for _, e := range Experiments() {
		plans = append(plans, e.Plan(helloOpts()))
	}
	plans = append(plans, cachesimPlans(helloOpts("hello", "db"))...)
	fused, fusedCores := fusedDifferential(t, plans)
	if fused == 0 {
		t.Fatal("no claim fused two groups: the differential compared nothing")
	}
	if fusedCores == 0 {
		t.Fatal("no fused claim held a superscalar member")
	}
	if fused, _ := fusedDifferential(t, multiRunPlans(helloOpts("hello", "db"))); fused == 0 {
		t.Fatal("no multi-run claim fused two groups: the differential compared nothing")
	}
	// ablate-scale keys its cells at the default scale, where table2's
	// JIT run serves its 1x run before its own 0.25x run executes; jack's
	// default (8) spreads the three multiples over three scales.
	var scalePlans []*Plan
	for _, name := range []string{"table2", "ablate-scale"} {
		e, _ := Lookup(name)
		scalePlans = append(scalePlans, e.Plan(Options{Workloads: helloOpts("jack").Workloads}))
	}
	if fused, _ := fusedDifferential(t, scalePlans); fused == 0 {
		t.Fatal("ablate-scale fused with no table2 cell: the differential compared nothing")
	}
}

// TestRunNamesCoverConfigs guards the sharing rule's run identity: a
// declared run of the whole registry on hello and db has an empty name
// exactly when its core.Config is zero, and every run of one mode and
// name declares the same config, so a shared run never serves one
// config's engine to another. A cell claimed alone shares runs with no
// other cell, so its runs are held to that only among themselves
// (ablate-codecache's legs each attach the cell's own cache).
func TestRunNamesCoverConfigs(t *testing.T) {
	var plans []*Plan
	for _, e := range Experiments() {
		plans = append(plans, e.Plan(helloOpts("hello", "db")))
	}
	type identity struct {
		alone CellKey
		mode  Mode
		name  string
	}
	first := map[identity]core.Config{}
	declared := 0
	for _, g := range GroupPlans(plans...) {
		runs, _ := g.decl()
		for k, r := range runs {
			declared++
			if zero := reflect.ValueOf(r.cfg).IsZero(); zero != (r.name == "") {
				t.Errorf("%s run %d: name %q, zero config %v", g.Key, k, r.name, zero)
			}
			id := identity{g.spec.alone, r.mode, r.name}
			if cfg, ok := first[id]; !ok {
				first[id] = r.cfg
			} else if !sameConfig(cfg, r.cfg) {
				t.Errorf("%s run %d: %s run %q declares another config than an earlier run of that name",
					g.Key, k, r.mode, r.name)
			}
		}
	}
	if declared == 0 {
		t.Fatal("the registry declared no runs")
	}
}

// sameConfig reports whether two configs are equal field by field: func
// fields (Monitors, Cancel) by code pointer, the rest by
// reflect.DeepEqual.
func sameConfig(a, b core.Config) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := range va.NumField() {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Func {
			if fa.IsNil() != fb.IsNil() || !fa.IsNil() && fa.Pointer() != fb.Pointer() {
				return false
			}
		} else if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			return false
		}
	}
	return true
}

// TestOracleSetIgnoresServeOrder: a claim-mate that declares the JIT
// profile before the interpreter one serves oracleRuns' two profiles out
// of their declaration order. The derived set and the opt run must still
// match a solo oracle's, on db, where the set is not empty.
func TestOracleSetIgnoresServeOrder(t *testing.T) {
	w, _ := workloads.ByName("db")
	oracle := func(mate ...[]run) (map[int]bool, uint64) {
		set, instrs := map[int]bool{}, uint64(0)
		runs := oracleRuns(set, nil, nil, func(e *core.Engine) { instrs = e.TotalInstrs() })
		if err := execRuns(context.Background(), w, w.BenchN, nil, append(mate, runs)...); err != nil {
			t.Fatal(err)
		}
		return set, instrs
	}
	soloSet, soloInstrs := oracle()
	if len(soloSet) == 0 {
		t.Fatal("the oracle compiles nothing on db: the test compares nothing")
	}
	set, instrs := oracle([]run{{mode: ModeJIT}, {mode: ModeInterp}})
	if !maps.Equal(set, soloSet) || instrs != soloInstrs {
		t.Errorf("served out of order: %d methods compiled, opt %d instructions; solo %d, %d",
			len(set), instrs, len(soloSet), soloInstrs)
	}
}

// fusedDifferential claims the plans' groups until none is left, runs
// every claim of several groups fused and each group alone, compares
// the payloads and commits the solo ones. It returns how many claims
// fused and how many fused members time cores.
func fusedDifferential(t *testing.T, plans []*Plan) (fused, fusedCores int) {
	t.Helper()
	l := NewLedger(LedgerConfig{}, plans...)
	claimed := map[engineSpec]bool{}
	for {
		batch, _ := l.Claim(time.Now(), 0)
		if len(batch) == 0 {
			break
		}
		spec := l.groups[batch[0].Group].spec
		if claimed[spec] {
			t.Errorf("spec %s@%d/%s claimed twice", spec.w.Name, spec.scale, spec.mode)
		}
		claimed[spec] = true
		var raws []json.RawMessage
		if len(batch) > 1 {
			fused++
			for _, c := range batch {
				if runs, _ := l.groups[c.Group].decl(); runs[0].cores != nil {
					fusedCores++
				}
			}
			members := make([]*CellGroup, len(batch))
			for k, c := range batch {
				members[k] = l.groups[c.Group]
			}
			var err error
			if raws, err = runClaim(context.Background(), members); err != nil {
				t.Fatal(err)
			}
		}
		for k, c := range batch {
			g := l.groups[c.Group]
			if g.spec != spec {
				t.Fatalf("%s fused into a claim of another spec", g.Key)
			}
			solo, err := g.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if raws != nil && !bytes.Equal(raws[k], solo) {
				t.Errorf("%s: fused payload %s differs from the solo payload %s",
					g.Key, payloadDigest(raws[k]), payloadDigest(solo))
			}
			if err := l.Commit(c.Group, solo); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Finish(); err != nil {
		t.Fatal(err)
	}
	return fused, fusedCores
}

// faultSink panics on the first batch it sees.
type faultSink struct{}

func (faultSink) Emit(trace.Inst)        { panic("sink fault") }
func (faultSink) EmitBatch([]trace.Inst) { panic("sink fault") }

// countResult is a synthetic one-run cell result: instructions counted
// per cell.
type countResult struct{ Rows []uint64 }

func (r *countResult) Render() string { return fmt.Sprint(r.Rows) }

// sameSpecPlans builds three one-cell plans of one engine spec (hello
// under the JIT): each counts instructions, and cell bad also attaches
// a panicking sink.
func sameSpecPlans(bad int) ([]*Plan, []*countResult) {
	var plans []*Plan
	var results []*countResult
	for i := 0; i < 3; i++ {
		res := &countResult{}
		p := newPlan(fmt.Sprintf("fuse-%d", i), res)
		cells(p, helloOpts(), helloOpts().Workloads, jitOnly, "", "count", &res.Rows,
			func(w workloads.Workload, mode Mode) ([]run, func() (uint64, error)) {
				c := &trace.Counter{}
				sinks := []trace.Sink{c}
				if i == bad {
					sinks = append(sinks, faultSink{})
				}
				return []run{{mode: mode, sinks: sinks}}, func() (uint64, error) { return c.Total, nil }
			})
		plans = append(plans, p)
		results = append(results, res)
	}
	return plans, results
}

// TestClaimReducesRunlessMembers: a cell that declares no runs is
// claimed with the engine cells of its spec, and the claim reduces it
// too. Here it sits between two instruction-counting cells that share
// one engine run; every member's payload must equal its solo payload
// byte for byte.
func TestClaimReducesRunlessMembers(t *testing.T) {
	counts, _ := sameSpecPlans(-1)
	res := &countResult{}
	static := newPlan("fuse-static", res)
	cells(static, helloOpts(), helloOpts().Workloads, jitOnly, "", "methods", &res.Rows,
		func(w workloads.Workload, mode Mode) ([]run, func() (uint64, error)) {
			return nil, func() (uint64, error) {
				prog, err := linkedProgram(w, resolveScale(helloOpts(), w))
				if err != nil {
					return 0, err
				}
				return uint64(len(prog.Methods)), nil
			}
		})
	l := NewLedger(LedgerConfig{}, counts[0], static, counts[1])
	batch, _ := l.Claim(time.Now(), 0)
	if len(batch) != 3 {
		t.Fatalf("claimed %d groups, want the 3 of one spec", len(batch))
	}
	members := make([]*CellGroup, len(batch))
	for k, c := range batch {
		members[k] = l.groups[c.Group]
	}
	runs := engineRuns.Load()
	raws, err := runClaim(context.Background(), members)
	if err != nil {
		t.Fatal(err)
	}
	if runs = engineRuns.Load() - runs; runs != 1 {
		t.Errorf("the claim made %d engine runs, want 1", runs)
	}
	for k, g := range members {
		solo, err := g.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(raws[k]) == 0 || string(raws[k]) == "0" || !bytes.Equal(raws[k], solo) {
			t.Errorf("%s: claimed payload %s, solo %s", g.Key, raws[k], solo)
		}
	}
}

// TestFusedFaultIsolated: one of three same-spec cells panics in its
// sink under KeepGoing. Only that cell fails, with the CellFailure an
// unfused run of it reports (cause, attempts, error text), and the
// other two commit the values they have alone.
func TestFusedFaultIsolated(t *testing.T) {
	const bad = 1
	plans, results := sameSpecPlans(bad)
	fused := &Runner{Workers: 1, KeepGoing: true, Retries: 1}
	if err := fused.RunPlans(plans...); err != nil {
		t.Fatal(err)
	}
	rep := fused.Report()
	if rep.Completed != 2 || rep.Failed != 1 {
		t.Fatalf("fused run: %d completed, %d failed; want 2 and 1\n%s", rep.Completed, rep.Failed, rep.Render())
	}

	alone, aloneResults := sameSpecPlans(bad)
	for i, p := range alone {
		r := &Runner{Workers: 1, KeepGoing: true, Retries: 1}
		if err := r.RunPlans(p); err != nil {
			t.Fatal(err)
		}
		if i == bad {
			got, want := rep.Failures[0], r.Report().Failures[0]
			got.order, want.order = 0, 0 // enumeration index within each run
			if got != want {
				t.Errorf("fused failure %+v, unfused %+v", got, want)
			}
			continue
		}
		if results[i].Rows[0] == 0 || results[i].Rows[0] != aloneResults[i].Rows[0] {
			t.Errorf("cell %d: fused %d instructions, alone %d", i, results[i].Rows[0], aloneResults[i].Rows[0])
		}
	}
}

// TestFusedChaosMatchesUnfused runs the cachesim and superscalar grids,
// fig1 and ablate-threshold (which share their three §3 runs, the
// derived opt run among them) on hello under injected panics, hangs and
// transient errors, once as one grid (every spec's cells fuse) and once
// experiment by experiment (nothing fuses). The renders and the run
// reports must be byte-identical, and the fused grid must make fewer
// engine runs. A second, degraded pass
// faults every interpreter cell for good under KeepGoing.
func TestFusedChaosMatchesUnfused(t *testing.T) {
	for _, tc := range []struct {
		name      string
		spec      chaos.Spec
		keepGoing bool
	}{
		{"retried", chaos.Spec{Seed: 1, PanicRate: 0.3, HangRate: 0.2, ErrRate: 0.3, UpTo: 1}, false},
		{"degraded", chaos.Spec{Seed: 1, PanicRate: 1, UpTo: 99, Cell: "/interp"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runner := func() *Runner {
				return &Runner{Workers: 1, Retries: 2, CellTimeout: 2 * time.Second,
					KeepGoing: tc.keepGoing, Chaos: chaos.New(tc.spec)}
			}
			render := func(r *Runner, plans []*Plan) string {
				out := ""
				for _, p := range plans {
					out += r.SafeRender(p.Result())
				}
				return out + r.Report().Render()
			}
			grid := func() []*Plan {
				plans := append(cachesimPlans(helloOpts()), superscalarPlans(helloOpts())...)
				for _, name := range []string{"fig1", "ablate-threshold"} {
					e, _ := Lookup(name)
					plans = append(plans, e.Plan(helloOpts()))
				}
				return plans
			}
			faults := 0
			for _, p := range grid() {
				for _, k := range p.Keys() {
					if chaos.New(tc.spec).Decide(k.String(), 1) != chaos.None {
						faults++
					}
				}
			}
			if faults == 0 {
				t.Fatalf("chaos spec %v injects nothing into the grid", tc.spec)
			}

			plans := grid()
			fused := runner()
			runs := engineRuns.Load()
			if err := fused.RunPlans(plans...); err != nil {
				t.Fatal(err)
			}
			fusedRuns := engineRuns.Load() - runs
			got := render(fused, plans)

			plans = grid()
			unfused := runner()
			runs = engineRuns.Load()
			for _, p := range plans {
				if err := unfused.RunPlans(p); err != nil {
					t.Fatal(err)
				}
			}
			unfusedRuns := engineRuns.Load() - runs
			if want := render(unfused, plans); got != want {
				t.Errorf("fused grid renders\n%s\nunfused\n%s", got, want)
			}
			if fusedRuns >= unfusedRuns {
				t.Errorf("fused grid made %d engine runs, unfused %d: nothing fused", fusedRuns, unfusedRuns)
			}
		})
	}
}

// TestCheckPipeFusedMatchesUnfused is the -checkpipe differential: the
// superscalar experiments and table2 on hello under CheckPipe render
// the same fused (one grid) as experiment by experiment, and a core two
// experiments share (fig9's width-4 core is ablate-ooo's default) carries
// one checker, attached before the run, that both members read.
func TestCheckPipeFusedMatchesUnfused(t *testing.T) {
	o := helloOpts()
	o.CheckPipe = true
	grid := func() []*Plan {
		e, _ := Lookup("table2")
		return append(superscalarPlans(o), e.Plan(o))
	}
	render := func(r *Runner, plans []*Plan) string {
		out := ""
		for _, p := range plans {
			out += r.SafeRender(p.Result())
		}
		return out
	}
	plans := grid()
	fused := &Runner{Workers: 1}
	runs := engineRuns.Load()
	if err := fused.RunPlans(plans...); err != nil {
		t.Fatal(err)
	}
	fusedRuns := engineRuns.Load() - runs
	got := render(fused, plans)
	plans = grid()
	unfused := &Runner{Workers: 1}
	runs = engineRuns.Load()
	for _, p := range plans {
		if err := unfused.RunPlans(p); err != nil {
			t.Fatal(err)
		}
	}
	if want := render(unfused, plans); got != want {
		t.Errorf("fused -checkpipe grid renders\n%s\nunfused\n%s", got, want)
	}
	if unfusedRuns := engineRuns.Load() - runs; fusedRuns >= unfusedRuns {
		t.Errorf("fused grid made %d engine runs, unfused %d: nothing fused", fusedRuns, unfusedRuns)
	}

	var fig9, ooo *CellGroup
	for _, g := range GroupPlans(superscalarPlans(o)...) {
		switch {
		case g.Key.Experiment == "fig9" && g.Key.Mode == "jit":
			fig9 = g
		case g.Key.Experiment == "ablate-ooo":
			ooo = g
		}
	}
	if fig9.spec != ooo.spec {
		t.Fatalf("fig9's JIT cell and ablate-ooo's are different specs")
	}
	runs9, reduce9 := fig9.decl()
	runsOoO, reduceOoO := ooo.decl()
	if err := execRuns(context.Background(), fig9.spec.w, fig9.spec.scale, nil, runs9, runsOoO); err != nil {
		t.Fatal(err)
	}
	r9, ro := runs9[0], runsOoO[0]
	shared := r9.cores.got[2] // width 4
	if ro.cores.got[3] != shared {
		t.Fatal("fig9's width-4 core and ablate-ooo's default are not one core")
	}
	chk := r9.cores.got[2].Check()
	if ro.cores.got[3].Check() != chk || chk.Count() == 0 || chk.Count() != shared.Instrs {
		t.Fatalf("shared core: checkers %p and %p, %d of %d instructions checked",
			chk, ro.cores.got[3].Check(), chk.Count(), shared.Instrs)
	}
	for _, reduce := range []func(context.Context) (any, error){reduce9, reduceOoO} {
		if _, err := reduce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
