package harness

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"jrs/internal/cache"
	"jrs/internal/core"
	"jrs/internal/pipeline"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// run is one declared engine run of a cell: the workload under mode and
// cfg, observed by plain sinks, by cache hierarchies and by the cores
// it wants timed. scale 0 means the cell's scale. done, when set, reads
// the finished engine, so a cell keeps no engine alive past its own run.
type run struct {
	mode  Mode
	cfg   core.Config
	scale int
	sinks []trace.Sink
	hs    []*cache.Hierarchy
	cores *coreSet
	done  func(*core.Engine)
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

// engineSpec is the workload, scale and mode a declared cell runs at.
// fuse marks a spec cell: spec cells of one spec can share their one
// engine run, and any other cell is claimed alone.
type engineSpec struct {
	w     workloads.Workload
	scale int
	mode  Mode
	fuse  bool
}

// Mode lists of the cells measured under one engine mode each.
var (
	interpJIT = []Mode{ModeInterp, ModeJIT}
	jitOnly   = []Mode{ModeJIT}
)

// eachCell calls add once per workload × mode with the cell's key and
// its row slot, in enumeration order, after sizing *rows to one slot per
// cell. A key's Mode is the mode's name, or label for the cells whose
// runs span several modes (modes nil: one cell per workload); its Config
// is config.
func eachCell[R any](o Options, list []workloads.Workload, modes []Mode, experiment, label, config string,
	rows *[]R, add func(key CellKey, dest *R, w workloads.Workload, scale int, mode Mode)) {
	if modes == nil {
		modes = []Mode{ModeJIT} // a placeholder: labelled runs name their own modes
	}
	*rows = make([]R, len(list)*len(modes))
	for i, w := range list {
		scale := resolveScale(o, w)
		for j, mode := range modes {
			key := CellKey{Experiment: experiment, Workload: w.Name, Scale: scale, Mode: mode.String(), Config: config}
			if label != "" {
				key.Mode = label
			}
			add(key, &(*rows)[i*len(modes)+j], w, scale, mode)
		}
	}
}

// cells adds one cell per workload × mode to p (keyed as eachCell
// describes) and decodes the cells' payloads into *rows. decl declares a
// cell's engine runs and the reduce that turns their finished sinks into
// the payload. It is called afresh on every attempt, so a retried cell
// starts from empty sinks.
func cells[R any](p *Plan, o Options, list []workloads.Workload, modes []Mode, label, config string,
	rows *[]R, decl func(w workloads.Workload, mode Mode) ([]run, func() (R, error))) {
	eachCell(o, list, modes, p.experiment, label, config, rows,
		func(key CellKey, dest *R, w workloads.Workload, scale int, mode Mode) {
			p.cells = append(p.cells, Cell{Key: key, dest: dest, spec: engineSpec{w, scale, mode, false},
				decl: func() ([]run, func() (any, error)) {
					runs, reduce := decl(w, mode)
					return runs, func() (any, error) { return reduce() }
				}})
		})
}

// specCells is cells for spec cells, each declaring one run in its mode
// (specCells sets it) at its scale with a zero core.Config and no done,
// so cells of one engine spec can share that run.
func specCells[R any](p *Plan, o Options, list []workloads.Workload, modes []Mode, config string,
	rows *[]R, decl func(w workloads.Workload, mode Mode) (run, func() (R, error))) {
	eachCell(o, list, modes, p.experiment, "", config, rows,
		func(key CellKey, dest *R, w workloads.Workload, scale int, mode Mode) {
			p.cells = append(p.cells, Cell{Key: key, dest: dest, spec: engineSpec{w, scale, mode, true},
				decl: func() ([]run, func() (any, error)) {
					r, reduce := decl(w, mode)
					r.mode = mode
					return []run{r}, func() (any, error) { return reduce() }
				}})
		})
}

// runClaim runs a claim (one declared cell, or spec cells of one spec)
// through execRuns, declaring its runs afresh so a retry starts from
// empty sinks, and makes each member's payload. Any member's error
// fails the whole claim.
func runClaim(ctx context.Context, members []*CellGroup) ([]json.RawMessage, error) {
	spec := members[0].spec
	runs := make([][]run, len(members))
	reduces := make([]func() (any, error), len(members))
	for i, g := range members {
		runs[i], reduces[i] = g.decl()
	}
	if err := execRuns(ctx, spec.w, spec.scale, runs...); err != nil {
		return nil, err
	}
	raws := make([]json.RawMessage, len(members))
	for i, reduce := range reduces {
		v, err := reduce()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.w.Name, err)
		}
		if raws[i], err = encodePayload(members[i].Key, v); err != nil {
			return nil, err
		}
	}
	return raws, nil
}

// execRuns is the one engine executor. It runs the members' runs run
// by run (a solo cell is one member; a fused claim's members declare one
// run each): the k-th runs share one engine run, in the first member's
// mode, config and scale, observed by every member's sinks, one
// cache.NewGroup of their hierarchies and one pipeline.NewGroup of their
// core sets, whose cores each set gets back before the engine starts.
// Then each member's done reads the finished engine.
func execRuns(ctx context.Context, w workloads.Workload, scale int, members ...[]run) error {
	for k, r := range members[0] {
		var sinks []trace.Sink
		var hs []*cache.Hierarchy
		var cfgs []pipeline.Config
		for _, m := range members {
			sinks = append(sinks, m[k].sinks...)
			hs = append(hs, m[k].hs...)
			if m[k].cores != nil {
				cfgs = append(cfgs, m[k].cores.cfgs...)
			}
		}
		if len(hs) > 0 {
			sinks = append(sinks, cache.NewGroup(hs...))
		}
		if len(cfgs) > 0 {
			g := pipeline.NewGroup(cfgs...)
			cores := g.Cores()
			for i, c := range cores {
				if slices.Index(cores, c) == i {
					coresTimed.Add(1)
				}
			}
			for _, m := range members {
				if s := m[k].cores; s != nil {
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
		e, err := RunCtx(ctx, w, cmp.Or(r.scale, scale), r.mode, r.cfg, sinks...)
		if err != nil {
			return err
		}
		for _, m := range members {
			if m[k].done != nil {
				m[k].done(e)
			}
		}
	}
	return nil
}

// oracleRuns declares the three runs of §3: the interpret-only and
// JIT-always profiles, then a JIT run under the opt policy derived from
// them. The JIT profile's done fills set: compile method i iff invoking
// it n_i times is cheaper translated, i.e. n_i > N_i = T_i / (I_i - E_i).
// interp, jit and opt (each may be nil) read the three finished engines.
func oracleRuns(set map[int]bool, interp, jit, opt func(*core.Engine)) []run {
	var interpStats []core.MethodStats
	return []run{
		{mode: ModeInterp, done: func(e *core.Engine) {
			interpStats = e.Stats
			if interp != nil {
				interp(e)
			}
		}},
		{mode: ModeJIT, done: func(e *core.Engine) {
			for id, sj := range e.Stats {
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
			if jit != nil {
				jit(e)
			}
		}},
		{mode: ModeJIT, cfg: core.Config{Policy: core.Oracle{Set: set}}, done: opt},
	}
}

// RunOracleCtx executes w under the opt policy derived from profiling
// (oracleRuns).
func RunOracleCtx(ctx context.Context, w workloads.Workload, scale int) (*core.Engine, error) {
	var e *core.Engine
	err := execRuns(ctx, w, scale, oracleRuns(map[int]bool{}, nil, nil, func(opt *core.Engine) { e = opt }))
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
