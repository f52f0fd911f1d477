package harness

import (
	"encoding/json"
	"fmt"
	"strings"

	"jrs/internal/analysis/conc"
	"jrs/internal/analysis/ipa"
	"jrs/internal/vm"
	"jrs/internal/workloads"
)

// AnalyzeSite is one devirtualized or elidable call site, reported by
// caller full name and bytecode pc. All analyze structures carry only
// strings and integers so cells survive the runner's JSON round trip
// and the -json output has a fixed field order.
type AnalyzeSite struct {
	Caller string `json:"caller"`
	PC     int    `json:"pc"`
	Target string `json:"target"`
}

// AnalyzeEffect is one reachable method's transitive side-effect
// summary in the fixed RWALIT mask form.
type AnalyzeEffect struct {
	Method  string `json:"method"`
	Effects string `json:"effects"`
	Pure    bool   `json:"pure"`
}

// AnalyzeRow is one program's whole-program analysis census: the
// call-graph summary plus the concrete devirtualization, lock-elision
// and purity facts the optimizer would consume.
type AnalyzeRow struct {
	Workload      string          `json:"workload"`
	Summary       ipa.Summary     `json:"summary"`
	Devirt        []AnalyzeSite   `json:"devirt"`
	ElideCalls    []AnalyzeSite   `json:"elideCalls"`
	ElideMonitors []string        `json:"elideMonitors"`
	Effects       []AnalyzeEffect `json:"effects"`
	// Concurrency is the static race/deadlock census, present only when
	// the races pass is enabled (jrs analyze -races).
	Concurrency *conc.Report `json:"concurrency,omitempty"`
	// Checks is the provable runtime-check census, present only when the
	// check-elision pass is enabled (jrs analyze -checkelide).
	Checks *CheckCensus `json:"checks,omitempty"`
}

// AnalyzeResult is the `jrs analyze` report over a set of programs.
type AnalyzeResult struct {
	Rows []AnalyzeRow `json:"programs"`
}

// analyzeProgram reads the whole-program facts of a linked program
// that full verification admits, flattening the fact maps into
// the deterministic row form. Callers prefix its error with the
// program's name.
func analyzeProgram(name string, p *vm.Program, races, checks bool) (AnalyzeRow, error) {
	if err := p.Verdict(); err != nil {
		return AnalyzeRow{}, err
	}
	res := p.IPA()

	row := AnalyzeRow{Workload: name, Summary: res.Summarize()}
	if races {
		row.Concurrency = p.Races()
	}
	if checks {
		row.Checks = checkCensus(p.Ranges())
	}
	sites := func(fs []ipa.SiteFact) []AnalyzeSite {
		out := make([]AnalyzeSite, len(fs))
		for i, f := range fs {
			out[i] = AnalyzeSite{Caller: f.Caller.FullName(), PC: f.PC, Target: f.Target.FullName()}
		}
		return out
	}
	row.Devirt = sites(res.SortedDevirt())
	row.ElideCalls = sites(res.SortedElideCalls())
	for _, m := range res.SortedElideMonitors() {
		row.ElideMonitors = append(row.ElideMonitors, m.FullName())
	}
	for _, me := range res.SortedEffects() {
		row.Effects = append(row.Effects, AnalyzeEffect{
			Method: me.Method.FullName(), Effects: me.Effect.String(), Pure: me.Effect.Pure()})
	}
	return row, nil
}

// analyzePlan enumerates one static-analysis cell per workload, claimed
// alone. A cell declares no engine runs: its reduce analyzes the
// workload's linked program. Going through a Plan lets `jrs analyze`
// share the -parallel worker pool and keeps the merge deterministic
// regardless of completion order.
func analyzePlan(o Options) (*Plan, *AnalyzeResult) {
	list := o.Workloads
	if list == nil {
		list = workloads.All()
	}
	res := &AnalyzeResult{}
	p := newPlan("analyze", res)
	cfg := "ipa"
	if o.Races {
		cfg += "+races"
	}
	if o.Checks {
		cfg += "+checks"
	}
	cells(p, o, list, interpOnly, "static", cfg, &res.Rows,
		func(w workloads.Workload, _ Mode) ([]run, func() (AnalyzeRow, error)) {
			return nil, func() (AnalyzeRow, error) {
				prog, err := linkedProgram(w, resolveScale(o, w), false)
				if err != nil {
					return AnalyzeRow{}, err
				}
				return analyzeProgram(w.Name, prog, o.Races, o.Checks)
			}
		})
	p.claimAlone()
	return p, res
}

// Analyze runs the whole-program analysis over every workload (or the
// opts subset) serially.
func Analyze(o Options) (*AnalyzeResult, error) {
	return AnalyzeWith(o, serialRunner())
}

// AnalyzeWith runs the analysis cells on the given runner. The report
// is byte-identical for every worker count.
func AnalyzeWith(o Options, r *Runner) (*AnalyzeResult, error) {
	p, res := analyzePlan(o)
	if err := r.RunPlans(p); err != nil {
		return nil, err
	}
	return res, nil
}

// AnalyzePrograms analyzes explicit compiled programs (the `jrs analyze
// file.mj ...` path) without going through the plan machinery.
func AnalyzePrograms(progs []LintProgram, races, checks bool) (*AnalyzeResult, error) {
	res := &AnalyzeResult{Rows: make([]AnalyzeRow, len(progs))}
	for i, p := range progs {
		prog, err := p.linked()
		if err == nil {
			res.Rows[i], err = analyzeProgram(p.Name, prog, races, checks)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
	}
	return res, nil
}

// Render formats the deterministic analyze report: a census block per
// program followed by the site-level facts an optimizer would act on.
func (r *AnalyzeResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "jrs analyze — whole-program interprocedural analysis (RTA call graph, CHA devirtualization, escape-based lock elision, effect summaries)\n")
	devirt, elide := 0, 0
	for _, row := range r.Rows {
		s := row.Summary
		devirt += len(row.Devirt)
		elide += len(row.ElideCalls) + len(row.ElideMonitors)
		fmt.Fprintf(&b, "\n== %s ==\n", row.Workload)
		fmt.Fprintf(&b, "classes %d (%d instantiated), methods %d (%d reachable), sccs %d (largest %d)\n",
			s.Classes, s.Instantiated, s.Methods, s.Reachable, s.SCCs, s.LargestSCC)
		fmt.Fprintf(&b, "call graph: %d direct edges; %d virtual sites, %d virtual edges, %d monomorphic\n",
			s.DirectEdges, s.VirtualSites, s.VirtualEdges, s.MonoSites)
		fmt.Fprintf(&b, "allocation: %d sites, %d thread-local\n", s.AllocSites, s.LocalAllocs)
		fmt.Fprintf(&b, "devirtualized %d site(s):\n", len(row.Devirt))
		for _, f := range row.Devirt {
			fmt.Fprintf(&b, "  %s @%d -> %s\n", f.Caller, f.PC, f.Target)
		}
		fmt.Fprintf(&b, "elidable sync calls (%d):\n", len(row.ElideCalls))
		for _, f := range row.ElideCalls {
			fmt.Fprintf(&b, "  %s @%d -> %s\n", f.Caller, f.PC, f.Target)
		}
		fmt.Fprintf(&b, "elidable monitor methods (%d):\n", len(row.ElideMonitors))
		for _, m := range row.ElideMonitors {
			fmt.Fprintf(&b, "  %s\n", m)
		}
		fmt.Fprintf(&b, "effects (R=read W=write A=alloc L=lock I=io T=thread; %d pure):\n", s.PureMethods)
		for _, me := range row.Effects {
			fmt.Fprintf(&b, "  %s %s\n", me.Effects, me.Method)
		}
		if cc := row.Checks; cc != nil {
			c := cc.Census
			fmt.Fprintf(&b, "checks: %d bounds site(s) (%d proven), %d null site(s) (%d proven) over %d method(s)\n",
				c.BoundsSites, c.BoundsProven, c.NullSites, c.NullProven, c.Methods)
			for _, s := range cc.Proven {
				fmt.Fprintf(&b, "  %s %s @%d\n", s.Kind, s.Method, s.PC)
			}
		}
		if c := row.Concurrency; c != nil {
			cs := c.Summarize()
			fmt.Fprintf(&b, "concurrency: %d spawned thread(s), %d shared location(s), %d race(s), %d deadlock cycle(s)\n",
				cs.Threads, cs.SharedLocations, cs.Races, cs.Deadlocks)
			for _, sp := range c.Spawns {
				fmt.Fprintf(&b, "  thread %s\n", sp)
			}
			for j := range c.Races {
				fmt.Fprintf(&b, "  %s\n", &c.Races[j])
			}
			for j := range c.Deadlocks {
				fmt.Fprintf(&b, "  %s\n", &c.Deadlocks[j])
			}
		}
	}
	fmt.Fprintf(&b, "\n%d program(s): %d devirtualized site(s), %d elidable lock site(s)\n",
		len(r.Rows), devirt, elide)
	return b.String()
}

// JSON renders the report as indented JSON with the struct-declared
// field order (the -json CLI contract).
func (r *AnalyzeResult) JSON() (string, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
