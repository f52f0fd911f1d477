package main

import (
	"context"
	"fmt"
	"time"

	"jrs/internal/branch"
	"jrs/internal/cache"
	"jrs/internal/core"
	"jrs/internal/harness"
	"jrs/internal/pipeline"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// sink is one simulator attached to a mirrored engine run, named by the
// layer its time is charged to.
type sink struct {
	layer string
	s     trace.Sink
}

// timedSink times every delivery to one simulator.
type timedSink struct {
	s            trace.Sink
	total        time.Duration
	calls, insts int64
	// shown and shownCalls are the part already recorded as spans.
	shown      time.Duration
	shownCalls int64
}

// aggregateSinks records the sink time accrued since the last call as
// children of the innermost open span.
func aggregateSinks(rec *recorder, cell string, sinks []sink, timed []*timedSink) {
	for i, t := range timed {
		if t == nil {
			continue
		}
		rec.aggregate(sinks[i].layer, cell, t.total-t.shown, t.calls-t.shownCalls)
		t.shown, t.shownCalls = t.total, t.calls
	}
}

func (t *timedSink) Emit(in trace.Inst) {
	t0 := time.Now()
	t.s.Emit(in)
	t.total += time.Since(t0)
	t.calls++
	t.insts++
}

func (t *timedSink) EmitBatch(b []trace.Inst) {
	t0 := time.Now()
	trace.EmitBatchTo(t.s, b)
	t.total += time.Since(t0)
	t.calls++
	t.insts += int64(len(b))
}

var modes = []harness.Mode{harness.ModeInterp, harness.ModeJIT, harness.ModeAOT}

// runEngine is harness.RunCtx taken apart at its layer boundaries:
// MiniJava compile (Workload.Classes), class load and verify (core.New,
// VM.Load), AOT translation (Engine.PrecompileAll) and the run
// (Engine.Run), with every sink timed. It configures the engine exactly
// as RunCtx does, which the payload checks rely on; untraced
// (rec == nil) it times nothing.
func runEngine(rec *recorder, cell string, w workloads.Workload, scale int, mode harness.Mode, sinks []sink) error {
	live := make([]trace.Sink, len(sinks))
	timed := make([]*timedSink, len(sinks))
	for i, s := range sinks {
		live[i] = s.s
		if rec != nil {
			timed[i] = &timedSink{s: s.s}
			live[i] = timed[i]
		}
	}
	sp := rec.start("minijava.compile", cell)
	classes := w.Classes(scale)
	sp.end()

	cfg := core.Config{Policy: core.CompileFirst{}}
	if mode == harness.ModeInterp {
		cfg.Policy = core.InterpretOnly{}
	}
	sw := &trace.Switchable{}
	measured := trace.Tee(live...)
	if mode != harness.ModeAOT {
		sw.S = measured
	}
	cfg.Sink = sw
	sp = rec.start("vm.load", cell)
	e := core.New(cfg)
	err := e.VM.Load(classes)
	aggregateSinks(rec, cell, sinks, timed)
	sp.end()
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	if mode == harness.ModeAOT {
		sp = rec.start("jit.translate", cell)
		err := e.PrecompileAll()
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		sw.S = measured
	}
	main, err := e.VM.LookupMain()
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	layer := "native"
	if mode == harness.ModeInterp {
		layer = "interp"
	}
	before := e.Clock.Total + uint64(e.Batch.Pending())
	sp = rec.start(layer, cell)
	err = e.Run(main)
	aggregateSinks(rec, cell, sinks, timed)
	sp.end()
	if err != nil {
		return fmt.Errorf("%s (%v): %w", w.Name, mode, err)
	}
	if rec != nil {
		measured := e.TotalInstrs()
		if mode == harness.ModeAOT {
			measured -= before
		}
		if err := rec.countRun(e, cell, mode, e.TotalInstrs()-before, measured, sinks, timed); err != nil {
			return err
		}
	}
	return nil
}

// countRun adds one mirrored engine run to the counts and checks that
// every sink received exactly the measured trace.
func (r *recorder) countRun(e *core.Engine, cell string, mode harness.Mode, runInsts, measured uint64, sinks []sink, timed []*timedSink) error {
	r.runs++
	if mode == harness.ModeInterp {
		r.interpInsts += runInsts
	} else {
		r.nativeInsts += runInsts
	}
	_, tr, _ := e.PhaseInstrs()
	r.translateInsts += tr
	r.translations += e.JIT.Translations
	for i, s := range sinks {
		if timed[i].insts != int64(measured) {
			return fmt.Errorf("%s: %s sink saw %d instructions of %d simulated", cell, s.layer, timed[i].insts, measured)
		}
		if i == 0 {
			r.batches += timed[i].calls
			r.batchInsts += timed[i].insts
		}
		r.sinkInsts[s.layer] += timed[i].insts
		switch v := s.s.(type) {
		case *cache.Hierarchy:
			r.cacheRefs += v.I.Stats.Refs() + v.D.Stats.Refs()
			r.cacheMisses += v.I.Stats.Misses() + v.D.Stats.Misses()
		case *branch.Suite:
			for _, u := range v.Units {
				r.transfers += u.Stats.Transfers()
				r.mispredicts += u.Stats.Mispredicts()
			}
		case *pipeline.Core:
			r.cycles += v.Cycles()
			r.squash += v.SquashCycles
			r.replays += v.MemReplays
		}
	}
	return nil
}

// mirrorSpec builds the sinks one cell of an experiment attaches, exactly
// as the experiment's plan does, and a check comparing them with the
// untraced cell's payload (row i of the unit's result).
type mirrorSpec func() ([]sink, func(res harness.Renderer, i int) error)

var mirrors = map[string]mirrorSpec{
	"fig9": func() ([]sink, func(harness.Renderer, int) error) {
		var cores []*pipeline.Core
		var ss []sink
		for _, width := range []int{1, 2, 4, 8} {
			c := pipeline.New(pipeline.DefaultConfig(width))
			cores = append(cores, c)
			ss = append(ss, sink{"pipeline", c})
		}
		return ss, func(res harness.Renderer, i int) error {
			row := res.(*harness.Fig9Result).Rows[i]
			for k, c := range cores {
				if row.Cycles[k] != c.Cycles() || row.IPC[k] != c.IPC() {
					return fmt.Errorf("width %d: %d cycles mirrored, %d in the payload", row.Widths[k], c.Cycles(), row.Cycles[k])
				}
			}
			return nil
		}
	},
	"table2": func() ([]sink, func(harness.Renderer, int) error) {
		s := branch.NewSuite()
		return []sink{{"branch", s}}, func(res harness.Renderer, i int) error {
			row := res.(*harness.Table2Result).Rows[i]
			for k, u := range s.Units {
				if row.Rates[k] != u.Stats.MispredictRate() || row.Names[k] != u.Dir.Name() {
					return fmt.Errorf("%s mispredict rate differs from the payload", u.Dir.Name())
				}
			}
			return nil
		}
	},
	"table3": func() ([]sink, func(harness.Renderer, int) error) {
		h := cache.PaperDefault()
		return []sink{{"cache", h}}, func(res harness.Renderer, i int) error {
			row := res.(*harness.Table3Result).Rows[i]
			if row.I != h.I.Stats || row.D != h.D.Stats {
				return fmt.Errorf("L1 stats differ from the payload")
			}
			return nil
		}
	},
	"fig3": func() ([]sink, func(harness.Renderer, int) error) {
		var hs []*cache.Hierarchy
		var ss []sink
		for _, sz := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
			h := cache.NewHierarchy(
				cache.Config{Name: "I", Size: sz, LineSize: 32, Assoc: 1, WriteAllocate: true},
				cache.Config{Name: "D", Size: sz, LineSize: 32, Assoc: 1, WriteAllocate: true})
			hs = append(hs, h)
			ss = append(ss, sink{"cache", h})
		}
		return ss, func(res harness.Renderer, i int) error {
			row := res.(*harness.Fig3Result).Rows[i]
			for k, h := range hs {
				if row.WriteMissFracs[k] != h.D.Stats.WriteMissFrac() {
					return fmt.Errorf("%dK write-miss share differs from the payload", row.Sizes[k]>>10)
				}
			}
			return nil
		}
	},
	"fig7": func() ([]sink, func(harness.Renderer, int) error) {
		var hs []*cache.Hierarchy
		var ss []sink
		for _, assoc := range []int{1, 2, 4, 8} {
			h := cache.NewHierarchy(
				cache.Config{Name: "I", Size: 8 << 10, LineSize: 32, Assoc: assoc, WriteAllocate: true},
				cache.Config{Name: "D", Size: 8 << 10, LineSize: 32, Assoc: assoc, WriteAllocate: true})
			hs = append(hs, h)
			ss = append(ss, sink{"cache", h})
		}
		return ss, func(res harness.Renderer, i int) error {
			row := res.(*harness.Fig7Result).Rows[i]
			for k, h := range hs {
				if row.IMiss[k] != h.I.Stats.MissRate() || row.DMiss[k] != h.D.Stats.MissRate() {
					return fmt.Errorf("assoc %d miss rates differ from the payload", row.Params[k])
				}
			}
			return nil
		}
	},
}

// mirror re-executes the pass's engine work from outside, under the
// recorder when there is one: for ooo and cachesim every cell with its
// experiment's exact sinks (checked against base, the untraced pass);
// for startup, whose registry cells have no mirror, the front end of the
// programs it compiles; for dist one more pass through counted
// connections.
func mirror(e *env, in *inputs, n int, base *pass) []string {
	cells := true
	for _, x := range in.exps {
		cells = cells && mirrors[x.Name] != nil
	}
	var errs []string
	switch {
	case in.def.dist:
		p, err := runPass(e, in, n, workers)
		if err != nil {
			return []string{err.Error()}
		}
		if base != nil && p.digest() != base.digest() {
			errs = append(errs, "traced dist pass output differs from the untraced pass")
		}
	case !cells:
		progs := in.programs
		if in.def.analyze {
			progs = workloads.All()
		}
		for _, w := range progs {
			if err := frontEnd(e.rec, w); err != nil {
				errs = append(errs, err.Error())
			}
		}
	default:
		for _, u := range in.units() {
			exp, w := in.exps[u.exp], in.programs[u.prog]
			for i, mode := range modes[:2] {
				cell := fmt.Sprintf("%s/%v", sectionName(in, u), mode)
				sinks, check := mirrors[exp.Name]()
				if err := runEngine(e.rec, cell, w, w.BenchN, mode, sinks); err != nil {
					errs = append(errs, err.Error())
					continue
				}
				if base == nil {
					continue
				}
				if err := check(base.plans[u].Result(), i); err != nil {
					errs = append(errs, fmt.Sprintf("mirrored %s: %v", cell, err))
				}
			}
		}
	}
	return errs
}

// frontEnd compiles, loads and AOT-translates one program at its default
// scale, the inputs of `jrs analyze`.
func frontEnd(rec *recorder, w workloads.Workload) error {
	cell := fmt.Sprintf("%s@%d/aot", w.Name, w.DefaultN)
	sp := rec.start("minijava.compile", cell)
	classes := w.Classes(w.DefaultN)
	sp.end()
	sp = rec.start("vm.load", cell)
	e := core.New(core.Config{})
	err := e.VM.Load(classes)
	sp.end()
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	sp = rec.start("jit.translate", cell)
	err = e.PrecompileAll()
	sp.end()
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	if rec != nil {
		_, tr, _ := e.PhaseInstrs()
		rec.translateInsts += tr
		rec.translations += e.JIT.Translations
	}
	return nil
}

// replay runs the pass's plans again, serially, through GroupPlans and
// CellGroup.Run with one span per cell (and one per analysis), and
// checks that the render equals the cold pass's.
func replay(rec *recorder, in *inputs, cold *pass) []string {
	rs := rec.start("replay", in.def.name)
	defer rs.end()
	p := &pass{sections: map[string]string{}, plans: map[unit]*harness.Plan{}}
	var list []*harness.Plan
	for _, u := range in.units() {
		p.plans[u] = in.exps[u.exp].Plan(in.opts(u))
		list = append(list, p.plans[u])
	}
	var errs []string
	for _, g := range harness.GroupPlans(list...) {
		sp := rec.start("cell", g.Key.String())
		raw, err := g.Run(context.Background())
		if err == nil {
			err = g.Deliver(raw)
		}
		sp.end()
		if err != nil {
			errs = append(errs, err.Error())
		}
		rec.cells++
		rec.cellSpecs[fmt.Sprintf("%s@%d/%s", g.Key.Workload, g.Key.Scale, g.Key.Mode)] = true
	}
	for _, u := range in.units() {
		if err := p.plans[u].Finish(); err != nil {
			errs = append(errs, err.Error())
		}
		p.sections[sectionName(in, u)] = p.plans[u].Result().Render()
	}
	if in.def.analyze {
		for i, o := range analyzeOpts {
			sp := rec.start("analysis", analyzeSection(i))
			r := &harness.Runner{Workers: 1}
			res, err := harness.AnalyzeWith(o, r)
			sp.end()
			if err != nil {
				errs = append(errs, err.Error())
				continue
			}
			rec.cells += r.Report().Cells
			p.sections[analyzeSection(i)] = res.Render()
		}
	}
	p.assemble(in)
	if p.out != cold.out {
		errs = append(errs, "serial replay output differs from the cold pass")
	}
	return errs
}

// probeDist is the small grid the probe submits to a loopback
// coordinator.
var probeDist = workloadDef{name: "probe", exps: []string{"table3", "fig3"}, programs: []program{{"hello", 0}}, dist: true}

// probe runs hello through every layer once: the three engine modes with
// a cache hierarchy, a branch suite and an OoO core attached, the
// whole-program analyses, and a dist submit. Every traced run ends with
// it, so a layer a workload does not use reads small rather than zero.
func probe(e *env) []string {
	ps := e.rec.start("probe", "hello")
	defer ps.end()
	hello := workloads.Hello()
	var errs []string
	for _, mode := range modes {
		sinks := []sink{{"cache", cache.PaperDefault()}, {"branch", branch.NewSuite()}, {"pipeline", pipeline.New(pipeline.DefaultConfig(4))}}
		if err := runEngine(e.rec, fmt.Sprintf("probe/hello/%v", mode), hello, 1, mode, sinks); err != nil {
			errs = append(errs, err.Error())
		}
	}
	sp := e.rec.start("analysis", "probe/hello")
	_, err := harness.AnalyzeWith(harness.Options{Races: true, Checks: true, Workloads: []workloads.Workload{hello}}, &harness.Runner{Workers: 1})
	sp.end()
	if err != nil {
		errs = append(errs, err.Error())
	}
	in, err := newInputs(probeDist, 0)
	if err == nil {
		_, err = runPass(e, in, 0, 1)
	}
	if err != nil {
		errs = append(errs, err.Error())
	}
	return errs
}
