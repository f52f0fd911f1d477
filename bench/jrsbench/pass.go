package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"jrs/internal/harness"
	"jrs/internal/harness/dist"
)

// env is what a pass needs from its surroundings.
type env struct {
	work string    // scratch directory for dist caches and journals
	rec  *recorder // nil in untraced runs
}

// analyzeOpts are the two analyses a startup pass runs over all eight
// programs: the full census (`jrs analyze -races -checkelide`) and the
// plain report pinned by testdata/golden/analyze.txt.
var analyzeOpts = []harness.Options{{Races: true, Checks: true}, {}}

// pass is one executed pass of a workload.
type pass struct {
	// sections holds each unit's render (plus "analyze/…" entries for the
	// startup analyses), keyed by sectionName.
	sections map[string]string
	// out is the canonical render: every section in canonical order.
	out string
	// plans holds the filled plans of a local pass, for trace checks.
	plans map[unit]*harness.Plan
	// cells and failed count the cell groups the pass attempted and lost.
	cells, failed int
	// warm is the dist pass's second, cache-served output (canonical).
	warm string
}

func (p *pass) digest() string {
	sum := sha256.Sum256([]byte(p.out))
	return hex.EncodeToString(sum[:])
}

// analyzeSection names the render of startup's i-th analysis.
func analyzeSection(i int) string { return fmt.Sprintf("analyze/%d", i) }

func sectionName(in *inputs, u unit) string {
	w := in.programs[u.prog]
	return fmt.Sprintf("%s/%s@%d", in.exps[u.exp].Name, w.Name, w.BenchN)
}

// assemble fills p.out from p.sections in canonical order.
func (p *pass) assemble(in *inputs) {
	var b strings.Builder
	for _, u := range in.units() {
		name := sectionName(in, u)
		fmt.Fprintf(&b, "## %s\n%s", name, p.sections[name])
	}
	if in.def.analyze {
		for i := range analyzeOpts {
			fmt.Fprintf(&b, "## %s\n%s", analyzeSection(i), p.sections[analyzeSection(i)])
		}
	}
	p.out = b.String()
}

// runPass runs pass number n of the workload on the given worker count.
// env supplies the work directory and, in traced runs, the recorder.
func runPass(env *env, in *inputs, n, workers int) (*pass, error) {
	if in.def.dist {
		return runDistPass(env, in, n, workers)
	}
	order := in.order(n)
	p := &pass{sections: make(map[string]string), plans: make(map[unit]*harness.Plan)}
	list := make([]*harness.Plan, len(order))
	for i, u := range order {
		list[i] = in.exps[u.exp].Plan(in.opts(u))
		p.plans[u] = list[i]
	}
	r := &harness.Runner{Workers: workers, KeepGoing: true}
	if err := r.RunPlans(list...); err != nil {
		return nil, err
	}
	rep := r.Report()
	p.cells, p.failed = rep.Cells, rep.Failed
	for _, u := range order {
		p.sections[sectionName(in, u)] = r.SafeRender(p.plans[u].Result())
	}
	if in.def.analyze {
		for i, o := range analyzeOpts {
			r := &harness.Runner{Workers: workers, KeepGoing: true}
			res, err := harness.AnalyzeWith(o, r)
			if err != nil {
				return nil, err
			}
			rep := r.Report()
			p.cells += rep.Cells
			p.failed += rep.Failed
			p.sections[analyzeSection(i)] = res.Render()
		}
	}
	p.assemble(in)
	return p, nil
}

// runDistPass submits the pass's grid to a loopback coordinator with a
// fresh result cache and journal under the work directory: once cold
// (every cell leased, committed, fsynced and journaled) and once warm
// (every cell served from the cache). The seeded order is the
// experiments' submission order; the canonical render reassembles the
// sections, so it matches a local run's.
func runDistPass(env *env, in *inputs, n, workers int) (*pass, error) {
	dir := filepath.Join(env.work, fmt.Sprintf("dist-%d", n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rig, err := startRig(env, dir, workers)
	if err != nil {
		return nil, err
	}
	order := in.order(n)
	var names []string
	for _, u := range order {
		names = append(names, in.exps[u.exp].Name)
	}
	grid := dist.GridSpec{Experiments: names, Opts: dist.OptionsSpec{Quick: true, Workloads: []string{in.programs[0].Name}}}
	p := &pass{sections: make(map[string]string)}
	submit := func(name string) (map[string]string, error) {
		sp := env.rec.start(name, name)
		out, err := dist.Submit(rig.addr, grid, 0)
		sp.end()
		if err != nil {
			return nil, err
		}
		if out.ErrMsg != "" {
			return nil, fmt.Errorf("dist %s submit: %s", name, out.ErrMsg)
		}
		var cells, ok, sim, cached, failed int
		if _, err := fmt.Sscanf(out.Report, "run report: %d cells: %d ok (%d simulated, %d cached), %d failed",
			&cells, &ok, &sim, &cached, &failed); err != nil {
			return nil, fmt.Errorf("dist %s submit: unreadable run report %q", name, out.Report)
		}
		p.cells += cells
		p.failed += failed
		return splitSections(in, order, out.Output)
	}
	cold, err := submit("dist.cold")
	var warm map[string]string
	if err == nil {
		warm, err = submit("dist.warm")
	}
	rig.stop()
	if err == nil {
		err = env.rec.inspect(dir)
	}
	if err != nil {
		return nil, err
	}
	p.sections = warm
	p.assemble(in)
	p.warm = p.out
	p.sections = cold
	p.assemble(in)
	return p, nil
}

// splitSections cuts a multi-experiment dist output ("## name — desc"
// headers in submission order) into per-unit renders.
func splitSections(in *inputs, order []unit, out string) (map[string]string, error) {
	secs := make(map[string]string)
	for i, u := range order {
		e := in.exps[u.exp]
		head := "## " + e.Name + " — " + e.Desc + "\n\n"
		if !strings.HasPrefix(out, head) {
			return nil, fmt.Errorf("dist output: missing section %s", e.Name)
		}
		out = out[len(head):]
		end := len(out)
		if i+1 < len(order) {
			next := in.exps[order[i+1].exp]
			end = strings.Index(out, "\n## "+next.Name+" — ")
			if end < 0 {
				return nil, fmt.Errorf("dist output: missing section %s", next.Name)
			}
		} else if !strings.HasSuffix(out, "\n") {
			return nil, fmt.Errorf("dist output: truncated section %s", e.Name)
		} else {
			end--
		}
		secs[sectionName(in, u)] = out[:end]
		out = out[end+1:]
	}
	return secs, nil
}

// rig is one loopback jrsd deployment: a coordinator owning a result
// cache and journal, and in-process workers dialing it.
type rig struct {
	coord  *dist.Coordinator
	addr   string
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startRig(env *env, dir string, workers int) (*rig, error) {
	cache, err := harness.OpenResultCache(dir)
	if err != nil {
		return nil, err
	}
	journal, err := harness.OpenJournal(filepath.Join(dir, harness.JournalName))
	if err != nil {
		return nil, err
	}
	c := dist.NewCoordinator(dist.Config{Cache: cache, Journal: journal, KeepGoing: true})
	addr, err := c.Start("127.0.0.1:0")
	if err != nil {
		c.Stop()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	rg := &rig{coord: c, addr: addr, cancel: cancel}
	for i := 0; i < workers; i++ {
		w := &dist.Worker{
			Name: fmt.Sprintf("w%d", i+1),
			Dial: func() (net.Conn, error) { return env.rec.dial(addr) },
		}
		rg.wg.Add(1)
		go func() {
			defer rg.wg.Done()
			w.Run(ctx)
		}()
	}
	return rg, nil
}

// stop cancels the workers, stops the coordinator (closing every
// connection and the journal) and waits for the workers to exit.
func (rg *rig) stop() {
	rg.cancel()
	rg.coord.Stop()
	rg.wg.Wait()
}
