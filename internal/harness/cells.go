package harness

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"jrs/internal/branch"
	"jrs/internal/cache"
	"jrs/internal/core"
	"jrs/internal/pipeline"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// run is one declared engine run of a cell: the workload under mode and
// cfg, observed by plain sinks, by cache hierarchies and by the cores
// it wants timed. scale 0 means the cell's scale. name names cfg, empty
// for the zero core.Config, so a run's identity is its mode, resolved
// scale and name. done, when set, reads the finished engine, so a cell
// keeps no engine alive past its own run. cleanup, when set, removes
// what cfg leaves on disk once execRuns returns, whether or not the run
// was reached.
type run struct {
	mode    Mode
	name    string
	cfg     core.Config
	scale   int
	sinks   []trace.Sink
	hs      []*cache.Hierarchy
	cores   *coreSet
	done    func(*core.Engine)
	cleanup func()
}

// coreSet is the cores a run times, one per config: the executor hands
// them back in config order before the engine starts. Under check each
// carries an invariant checker; equal configs share a core, and so its
// checker.
type coreSet struct {
	cfgs  []pipeline.Config
	check bool
	got   []*pipeline.Core
}

// err returns the first violation the set's checkers saw.
func (s *coreSet) err() error {
	if !s.check {
		return nil
	}
	for _, c := range s.got {
		if err := c.Check().Err(); err != nil {
			return err
		}
	}
	return nil
}

// engineSpec is the workload, scale and lead mode a cell runs at: the
// cells of one spec are claimed together. alone is the key of a cell
// that can share no run (claimAlone), so no other cell has its spec.
type engineSpec struct {
	w     workloads.Workload
	scale int
	mode  Mode
	alone CellKey
}

// Mode lists of the cells measured under one engine mode each, and the
// lead mode of the cells whose runs span several modes.
var (
	interpJIT  = []Mode{ModeInterp, ModeJIT}
	jitOnly    = []Mode{ModeJIT}
	interpOnly = []Mode{ModeInterp}
)

// cells adds one cell per workload × mode to p, in enumeration order,
// and decodes the cells' payloads into *rows, sized to one slot per
// cell. A key's Mode is the mode's name, or label for the cells whose
// runs span several modes (mode is then their lead mode); its Config is
// config. decl declares a cell's engine runs (possibly none) and the
// reduce that turns their finished sinks into the payload. It is called
// afresh on every attempt, so a retried cell starts from empty sinks.
func cells[R any](p *Plan, o Options, list []workloads.Workload, modes []Mode, label, config string,
	rows *[]R, decl func(w workloads.Workload, mode Mode) ([]run, func() (R, error))) {
	*rows = make([]R, len(list)*len(modes))
	for i, w := range list {
		scale := resolveScale(o, w)
		for j, mode := range modes {
			key := CellKey{Experiment: p.experiment, Workload: w.Name, Scale: scale,
				Mode: cmp.Or(label, mode.String()), Config: config}
			p.cells = append(p.cells, Cell{Key: key, dest: &(*rows)[i*len(modes)+j], spec: engineSpec{w: w, scale: scale, mode: mode},
				decl: func() ([]run, func(context.Context) (any, error)) {
					runs, reduce := decl(w, mode)
					return runs, func(context.Context) (any, error) { return reduce() }
				}})
		}
	}
}

// claimAlone gives every cell of p a spec of its own, so each is claimed
// alone: for cells that can share no engine run with another cell.
func (p *Plan) claimAlone() {
	for i := range p.cells {
		p.cells[i].spec.alone = p.cells[i].Key
	}
}

// runClaim runs a claim (one cell, or the cells of one spec) through
// execRuns, declaring its runs afresh so a retry starts from empty
// sinks. A member's payload is made as soon as its last run is served,
// and its sinks are dropped with its reduce; the members that declare
// no runs are reduced last. Any member's error fails the whole claim.
func runClaim(ctx context.Context, members []*CellGroup) ([]json.RawMessage, error) {
	spec := members[0].spec
	runs := make([][]run, len(members))
	reduces := make([]func(context.Context) (any, error), len(members))
	for i, g := range members {
		runs[i], reduces[i] = g.decl()
	}
	raws := make([]json.RawMessage, len(members))
	reduce := func(i int) error {
		v, err := reduces[i](ctx)
		reduces[i] = nil
		if err != nil {
			return fmt.Errorf("%s: %w", spec.w.Name, err)
		}
		if raws[i], err = json.Marshal(v); err != nil {
			return fmt.Errorf("%s: encode cell payload: %w", members[i].Key, err)
		}
		return nil
	}
	if err := execRuns(ctx, spec.w, spec.scale, reduce, runs...); err != nil {
		return nil, err
	}
	for i := range members {
		if reduces[i] != nil {
			if err := reduce(i); err != nil {
				return nil, err
			}
		}
	}
	return raws, nil
}

// execRuns is the one engine executor. It runs the members' runs member
// by member, each in declaration order (a solo cell is one member). A
// run also serves, in every later member, the first unserved run of the
// same mode, resolved scale and name, and never a second run of one
// member: the sharers make one engine run, in the executing member's
// config, observed by every sharer's sinks, one cache.NewGroup of their
// hierarchies and one pipeline.NewGroup of their core sets, whose cores
// each set gets back before the engine starts; both groups are
// released as soon as the engine returns. Then each sharer's done
// reads the finished engine, and a member whose last run that was is
// dropped and handed to release (nil: nothing to do). Once release
// has read the member's sinks, its distinct hierarchies and branch
// suites are handed back for later cells to reuse (releaseSinks); a
// member whose run or release fails, or panics, keeps them, and the
// garbage collector takes them. Every run's cleanup runs when execRuns
// returns.
func execRuns(ctx context.Context, w workloads.Workload, scale int, release func(member int) error, members ...[]run) error {
	for _, runs := range members {
		for _, r := range runs {
			if r.cleanup != nil {
				defer r.cleanup()
			}
		}
	}
	served := make([][]bool, len(members))
	left := make([]int, len(members))
	for m, runs := range members {
		served[m], left[m] = make([]bool, len(runs)), len(runs)
	}
	type at struct{ m, k int }
	for m := range members {
		for k := range served[m] {
			if served[m][k] {
				continue
			}
			r := members[m][k]
			rs := cmp.Or(r.scale, scale)
			sharers := []at{{m, k}}
			for n := m + 1; n < len(members); n++ {
				for j, s := range members[n] {
					if !served[n][j] && s.mode == r.mode && cmp.Or(s.scale, scale) == rs && s.name == r.name {
						sharers = append(sharers, at{n, j})
						break
					}
				}
			}
			var sinks []trace.Sink
			var hs []*cache.Hierarchy
			var cfgs []pipeline.Config
			for _, a := range sharers {
				s := &members[a.m][a.k]
				served[a.m][a.k] = true
				sinks = append(sinks, s.sinks...)
				hs = append(hs, s.hs...)
				if s.cores != nil {
					cfgs = append(cfgs, s.cores.cfgs...)
				}
			}
			var cg cache.Group
			if len(hs) > 0 {
				cg = cache.NewGroup(hs...)
				sinks = append(sinks, cg)
			}
			var g *pipeline.Group
			if len(cfgs) > 0 {
				g = pipeline.NewGroup(cfgs...)
				cores := g.Cores()
				for i, c := range cores {
					if slices.Index(cores, c) == i {
						coresTimed.Add(1)
					}
				}
				for _, a := range sharers {
					if s := members[a.m][a.k].cores; s != nil {
						s.got, cores = cores[:len(s.cfgs)], cores[len(s.cfgs):]
						for _, c := range s.got {
							if s.check {
								c.Check()
							}
						}
					}
				}
				sinks = append(sinks, g)
			}
			e, err := RunCtx(ctx, w, rs, r.mode, r.cfg, sinks...)
			if cg != nil {
				cg.Release()
			}
			if g != nil {
				// done reads only the cores' counters, which outlive
				// the group's store index.
				g.Release()
			}
			if err != nil {
				return err
			}
			for _, a := range sharers {
				if done := members[a.m][a.k].done; done != nil {
					done(e)
				}
				if left[a.m]--; left[a.m] == 0 {
					runs := members[a.m]
					members[a.m] = nil
					if release != nil {
						if err := release(a.m); err != nil {
							return err
						}
						releaseSinks(runs)
					}
				}
			}
		}
	}
	return nil
}

// releaseSinks hands back the hierarchies and branch suites that runs
// declare, each distinct one once: a member may attach one sink to
// several of its runs. A sampler's hierarchy counts as declared.
func releaseSinks(runs []run) {
	var hs []*cache.Hierarchy
	var suites []*branch.Suite
	for _, r := range runs {
		for _, h := range r.hs {
			if !slices.Contains(hs, h) {
				hs = append(hs, h)
			}
		}
		for _, s := range r.sinks {
			switch s := s.(type) {
			case *branch.Suite:
				if !slices.Contains(suites, s) {
					suites = append(suites, s)
				}
			case *cache.Sampler:
				if !slices.Contains(hs, s.H) {
					hs = append(hs, s.H)
				}
			}
		}
	}
	for _, h := range hs {
		h.Release()
	}
	for _, s := range suites {
		s.Release()
	}
}

// oracleRuns declares the three runs of §3: the interpret-only and
// JIT-always profiles, then a JIT run under the opt policy derived from
// them. Whichever profile's done comes second fills set, since sharing
// may serve the two out of declaration order: compile method i iff
// invoking it n_i times is cheaper translated, i.e. n_i > N_i =
// T_i / (I_i - E_i). interp, jit and opt (each may be nil) read the
// three finished engines.
func oracleRuns(set map[int]bool, interp, jit, opt func(*core.Engine)) []run {
	var interpStats, jitStats []core.MethodStats
	profiled := 0
	derive := func() {
		if profiled++; profiled < 2 {
			return
		}
		for id, sj := range jitStats {
			if sj.Invocations == 0 || sj.TranslateInstrs == 0 {
				// Never invoked, or never translated in the profile
				// (intrinsics); skip.
				continue
			}
			var si core.MethodStats
			if id < len(interpStats) {
				si = interpStats[id]
			}
			n := float64(sj.Invocations)
			if float64(sj.TranslateInstrs)+n*sj.ExecAvg() < n*si.InterpAvg() {
				set[id] = true
			}
		}
	}
	return []run{
		{mode: ModeInterp, done: func(e *core.Engine) {
			interpStats = e.Stats
			derive()
			if interp != nil {
				interp(e)
			}
		}},
		{mode: ModeJIT, done: func(e *core.Engine) {
			jitStats = e.Stats
			derive()
			if jit != nil {
				jit(e)
			}
		}},
		{mode: ModeJIT, name: "opt", cfg: core.Config{Policy: core.Oracle{Set: set}}, done: opt},
	}
}

// RunOracleCtx executes w under the opt policy derived from profiling
// (oracleRuns).
func RunOracleCtx(ctx context.Context, w workloads.Workload, scale int) (*core.Engine, error) {
	var e *core.Engine
	err := execRuns(ctx, w, scale, nil, oracleRuns(map[int]bool{}, nil, nil, func(opt *core.Engine) { e = opt }))
	return e, err
}

// pipeConfig is a superscalar cell's key Config: a run with the pipeline
// checker attached is keyed apart, so it is never served from a cache
// an unchecked run filled.
func pipeConfig(o Options, config string) string {
	if o.CheckPipe {
		return config + "+checkpipe"
	}
	return config
}
