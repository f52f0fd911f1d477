package harness

import (
	"encoding/json"
	"fmt"
	"strings"

	"jrs/internal/analysis"
	"jrs/internal/analysis/conc"
	"jrs/internal/analysis/vrange"
	"jrs/internal/bytecode"
	"jrs/internal/vm"
	"jrs/internal/workloads"
)

// LintProgram is one named, compiled program submitted to Lint.
type LintProgram struct {
	Name    string
	Classes []*bytecode.Class
	// prog is Classes already linked (a workload's shared program), or
	// nil for lint to link them.
	prog *vm.Program
}

// linked returns the program's link (ids, code layout and resolved
// constant pools — analysis passes need resolved method and field
// references). Only a structural failure is an error: lint's job is to
// report the full verifier's findings, not to refuse the program.
func (p LintProgram) linked() (*vm.Program, error) {
	if p.prog != nil {
		return p.prog, nil
	}
	return vm.Link(p.Classes)
}

// LintFinding is one diagnostic in the structured lint report.
type LintFinding struct {
	Method   string `json:"method"`
	PC       int    `json:"pc"`
	Pass     string `json:"pass"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

// LintProgramReport is one program's lint outcome. Races and Deadlocks
// are filled only when the races pass is enabled (jrs lint -races) and
// count toward the exit-code finding total like any diagnostic.
type LintProgramReport struct {
	Name      string          `json:"name"`
	Classes   int             `json:"classes"`
	Methods   int             `json:"methods"`
	Findings  []LintFinding   `json:"findings"`
	Races     []conc.Race     `json:"races,omitempty"`
	Deadlocks []conc.Deadlock `json:"deadlocks,omitempty"`
	// Checks is the provable runtime-check census, filled only when the
	// check-elision pass is enabled (jrs lint -checkelide). Provable
	// checks are opportunities, not defects, so they never count toward
	// the finding total.
	Checks *vrange.Census `json:"checks,omitempty"`
}

// LintReport is the structured form of the lint run; the text report
// and the -json output both render from it, so they can never drift.
type LintReport struct {
	Passes   []string            `json:"passes"`
	Programs []LintProgramReport `json:"programs"`
	Findings int                 `json:"findings"`
}

// BuildLintReport lints every program into the structured report. A
// program that fails to link at all is an error. races adds the static
// race and deadlock analysis (jrs lint -races): every race pair and
// deadlock cycle counts as a finding. checks adds the provable
// runtime-check census (jrs lint -checkelide), which never does.
func BuildLintReport(progs []LintProgram, races, checks bool) (*LintReport, error) {
	r := &LintReport{Passes: analysis.PassNames()}
	if races {
		r.Passes = append(r.Passes, "races")
	}
	if checks {
		r.Passes = append(r.Passes, "checks")
	}
	for _, p := range progs {
		prog, err := p.linked()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.Name, err)
		}
		loaded, diags := prog.Classes, prog.Diagnostics
		pr := LintProgramReport{Name: p.Name, Classes: len(loaded), Methods: len(prog.Methods)}
		for _, d := range diags {
			pr.Findings = append(pr.Findings, LintFinding{
				Method: d.Method, PC: d.PC, Pass: d.Pass,
				Severity: d.Sev.String(), Message: d.Msg})
		}
		if races {
			rep := prog.Races()
			pr.Races = rep.Races
			pr.Deadlocks = rep.Deadlocks
			r.Findings += len(pr.Races) + len(pr.Deadlocks)
		}
		if checks {
			c := prog.Ranges().Summarize()
			pr.Checks = &c
		}
		r.Programs = append(r.Programs, pr)
		r.Findings += len(diags)
	}
	return r, nil
}

// Render formats the deterministic text report: one status line per
// program, indented findings (method, pc, pass, severity, message)
// beneath it, and a trailing summary.
func (r *LintReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "jrs lint — passes: %s\n", strings.Join(r.Passes, ", "))
	for i := range r.Programs {
		p := &r.Programs[i]
		total := len(p.Findings) + len(p.Races) + len(p.Deadlocks)
		if total == 0 {
			fmt.Fprintf(&b, "%-9s %d classes, %d methods: clean\n",
				p.Name, p.Classes, p.Methods)
			if c := p.Checks; c != nil {
				fmt.Fprintf(&b, "  [checks] bounds %d/%d proven, null %d/%d proven\n",
					c.BoundsProven, c.BoundsSites, c.NullProven, c.NullSites)
			}
			continue
		}
		fmt.Fprintf(&b, "%-9s %d classes, %d methods: %d finding(s)\n",
			p.Name, p.Classes, p.Methods, total)
		if c := p.Checks; c != nil {
			fmt.Fprintf(&b, "  [checks] bounds %d/%d proven, null %d/%d proven\n",
				c.BoundsProven, c.BoundsSites, c.NullProven, c.NullSites)
		}
		for _, f := range p.Findings {
			fmt.Fprintf(&b, "  %s @%d: [%s] %s: %s\n", f.Method, f.PC, f.Pass, f.Severity, f.Message)
		}
		for j := range p.Races {
			fmt.Fprintf(&b, "  [races] %s\n", &p.Races[j])
		}
		for j := range p.Deadlocks {
			fmt.Fprintf(&b, "  [races] %s\n", &p.Deadlocks[j])
		}
	}
	fmt.Fprintf(&b, "%d program(s), %d finding(s)\n", len(r.Programs), r.Findings)
	return b.String()
}

// JSON renders the report as indented JSON with the struct-declared
// field order (the -json CLI contract).
func (r *LintReport) JSON() (string, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}

// Lint renders the text diagnostic report over progs and returns it
// with the total finding count.
func Lint(progs []LintProgram) (string, int, error) {
	r, err := BuildLintReport(progs, false, false)
	if err != nil {
		return "", 0, err
	}
	return r.Render(), r.Findings, nil
}

// WorkloadPrograms returns every workload (or the opts subset) at
// opts.Scale (0: its default scale) for linting, as the process's
// shared linked programs.
func WorkloadPrograms(opts Options) []LintProgram {
	ws := opts.Workloads
	if len(ws) == 0 {
		ws = workloads.All()
	}
	progs := make([]LintProgram, len(ws))
	for i, w := range ws {
		progs[i] = LintProgram{Name: w.Name}
		if p, err := linkedProgram(w, opts.Scale, false); err == nil {
			progs[i].Classes, progs[i].prog = p.Classes, p
		} else {
			// Lint links the classes again and reports the error.
			progs[i].Classes = w.Classes(opts.Scale)
		}
	}
	return progs
}
