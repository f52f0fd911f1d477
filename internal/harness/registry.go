package harness

import (
	"fmt"
	"sort"
	"strings"
)

// Renderer is any experiment result.
type Renderer interface{ Render() string }

// Experiment is a registered experiment.
type Experiment struct {
	Name string
	// Desc maps it to the paper artifact.
	Desc string
	// Plan enumerates the experiment's simulation cells without running
	// them; the returned Plan's Result() renders once its cells are
	// filled by a Runner.
	Plan func(Options) *Plan
}

// Run executes the experiment serially (one worker, no cache).
func (e Experiment) Run(o Options) (Renderer, error) {
	return e.RunWith(o, serialRunner())
}

// RunWith executes the experiment on the given runner.
func (e Experiment) RunWith(o Options, r *Runner) (Renderer, error) {
	p := e.Plan(o)
	if err := r.RunPlans(p); err != nil {
		return nil, err
	}
	return p.Result(), nil
}

// Experiments returns the full registry in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1: JIT translate/execute breakdown, oracle policy, JIT/interp ratios", fig1Plan},
		{"table1", "Table 1: memory requirement of interpreter vs JIT", table1Plan},
		{"fig2", "Figure 2: native instruction mix per execution mode", fig2Plan},
		{"table2", "Table 2: branch misprediction rates for four predictors", table2Plan},
		{"table3", "Table 3: L1 I/D cache references and misses", table3Plan},
		{"fig3", "Figure 3: share of data misses that are writes", fig3Plan},
		{"fig4", "Figure 4: average miss rates vs compiled (C-like) code", fig4Plan},
		{"fig5", "Figure 5: cache misses inside the translate portion", fig5Plan},
		{"fig6", "Figure 6: miss behaviour over time (db)", fig6Plan},
		{"fig7", "Figure 7: associativity sweep", fig7Plan},
		{"fig8", "Figure 8: line-size sweep", fig8Plan},
		{"fig9", "Figure 9: IPC vs issue width", fig9Plan},
		{"fig10", "Figure 10: normalized execution time vs issue width", fig10Plan},
		{"fig11", "Figure 11: synchronization cases and thin-lock speedup", fig11Plan},
		{"ablate-install", "A1/A2: code-installation policy (write-alloc / no-alloc / direct-to-I$)", ablateInstallPlan},
		{"ablate-inline", "A3: JIT devirtualization on/off", ablateInlinePlan},
		{"ablate-threshold", "A4: translate-policy sweep", ablateThresholdPlan},
		{"ablate-scale", "input-size sensitivity of the translate share", ablateScalePlan},
		{"ablate-indirect", "extension: target-cache indirect predictor vs BTB", ablateIndirectPlan},
		{"ablate-tiered", "extension: tiered recompilation of hot methods", ablateTieredPlan},
		{"ablate-interp-ilp", "extension: interpreter IPC scaling with a target cache", ablateInterpILPPlan},
		{"ablate-devirt", "extension: whole-program devirtualization (none / local CHA / interprocedural)", ablateDevirtPlan},
		{"ablate-elide", "extension: escape-based lock elision vs baseline synchronization", ablateElidePlan},
		{"ablate-checks", "extension: sound bounds/null check elision vs full runtime checking", ablateChecksPlan},
		{"ablate-ooo", "extension: OoO resource sweep (ROB size / RS count / LSQ depth)", ablateOoOPlan},
		{"ablate-codecache", "extension: shared translation cache (cold vs warm, in-process vs disk, parallel sharing)", ablateCodeCachePlan},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names returns all experiment names, sorted.
func Names() []string {
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}

// RunAllWith executes every registered experiment on the given runner,
// batching all plans into a single RunPlans call so independent cells
// across experiments run concurrently and duplicate cells simulate
// once. The report is identical to running each experiment serially.
// Figure 10 shares Figure 9's superscalar runs instead of re-simulating
// (their cell keys are identical).
func RunAllWith(o Options, r *Runner, progress func(e Experiment)) (string, error) {
	exps := Experiments()
	plans := make([]*Plan, len(exps))
	for i, e := range exps {
		if progress != nil {
			progress(e)
		}
		plans[i] = e.Plan(o)
	}
	if err := r.RunPlans(plans...); err != nil {
		return "", err
	}
	return RenderSections(exps, plans, r.KeepGoing), nil
}

// RenderSections renders filled plans, one per experiment, under
// "## name — desc" headers: the `jrs all` format, also used by the dist coordinator for
// multi-experiment grids.
func RenderSections(exps []Experiment, plans []*Plan, keepGoing bool) string {
	var b strings.Builder
	for i, e := range exps {
		b.WriteString("## " + e.Name + " — " + e.Desc + "\n\n" + RenderResult(plans[i].Result(), keepGoing) + "\n")
	}
	return b.String()
}

// SafeRender renders a plan result under the runner's KeepGoing mode
// (see RenderResult).
func (r *Runner) SafeRender(res Renderer) string { return RenderResult(res, r.KeepGoing) }

// RenderResult renders a plan result; in keep-going mode a renderer
// panicking over zero-valued slots left by failed cells degrades to a
// placeholder instead of killing the degraded run it is reporting on.
func RenderResult(res Renderer, keepGoing bool) (out string) {
	if keepGoing {
		defer func() {
			if rec := recover(); rec != nil {
				out = fmt.Sprintf("(render failed: %v)\n", rec)
			}
		}()
	}
	return res.Render()
}
