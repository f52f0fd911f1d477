package harness

import (
	"context"
	"encoding/json"
	"fmt"

	"jrs/internal/cache"
	"jrs/internal/core"
	"jrs/internal/pipeline"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// run is one declared engine run of a cell: the workload under mode and
// cfg with sinks attached to its native trace. scale 0 means the cell's
// scale. done, when set, reads the finished engine, so a cell keeps no
// engine alive past its own run.
type run struct {
	mode  Mode
	cfg   core.Config
	sinks []trace.Sink
	scale int
	done  func(*core.Engine)
}

// engineSpec is the one engine run a spec cell declares: w at scale
// under mode with a zero core.Config. Cells of equal specs can share one
// engine run. The zero spec marks a cell that declares its own runs.
type engineSpec struct {
	w     workloads.Workload
	scale int
	mode  Mode
}

// tap is what a spec cell attaches to its engine run: plain sinks, cache
// hierarchies (every member's of a run reduce batches in one
// cache.NewGroup) and the reduce that turns them, finished, into the
// cell's payload.
type tap struct {
	sinks  []trace.Sink
	hs     []*cache.Hierarchy
	reduce func() (any, error)
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
			p.add(key, dest, func(ctx context.Context) (any, error) {
				runs, reduce := decl(w, mode)
				if err := execRuns(ctx, w, scale, runs); err != nil {
					return nil, err
				}
				v, err := reduce()
				if err != nil {
					return nil, fmt.Errorf("%s: %w", w.Name, err)
				}
				return v, nil
			})
		})
}

// specCells is cells for spec cells: each declares exactly one run, mode
// at the cell's own scale with a zero core.Config and no done, so cells
// of one engine spec can share that run. decl returns the cell's plain
// sinks, its cache hierarchies and its reduce; it is called afresh on
// every attempt.
func specCells[R any](p *Plan, o Options, list []workloads.Workload, modes []Mode, config string,
	rows *[]R, decl func(w workloads.Workload, mode Mode) ([]trace.Sink, []*cache.Hierarchy, func() (R, error))) {
	eachCell(o, list, modes, p.experiment, "", config, rows,
		func(key CellKey, dest *R, w workloads.Workload, scale int, mode Mode) {
			p.cells = append(p.cells, Cell{Key: key, dest: dest, spec: engineSpec{w, scale, mode},
				tap: func() tap {
					sinks, hs, reduce := decl(w, mode)
					return tap{sinks, hs, func() (any, error) { return reduce() }}
				}})
		})
}

// execFused runs the engine spec the members share once. Every member's
// sinks, and one cache.NewGroup of every member's hierarchies, observe
// that run; then each member's reduce makes its payload. Taps are
// declared afresh, so a retry starts from empty sinks. Any member's
// error fails the whole run.
func execFused(ctx context.Context, members []*CellGroup) ([]json.RawMessage, error) {
	spec := members[0].spec
	taps := make([]tap, len(members))
	var sinks []trace.Sink
	var hs []*cache.Hierarchy
	for i, g := range members {
		taps[i] = g.tap()
		sinks = append(sinks, taps[i].sinks...)
		hs = append(hs, taps[i].hs...)
	}
	if len(hs) > 0 {
		sinks = append(sinks, cache.NewGroup(hs...))
	}
	if _, err := RunCtx(ctx, spec.w, spec.scale, spec.mode, core.Config{}, sinks...); err != nil {
		return nil, err
	}
	raws := make([]json.RawMessage, len(members))
	for i, t := range taps {
		v, err := t.reduce()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.w.Name, err)
		}
		if raws[i], err = encodePayload(members[i].Key, v); err != nil {
			return nil, err
		}
	}
	return raws, nil
}

// execRuns runs the declared runs of one cell in order, handing each
// finished engine to its run's done.
func execRuns(ctx context.Context, w workloads.Workload, scale int, runs []run) error {
	for _, r := range runs {
		s := r.scale
		if s == 0 {
			s = scale
		}
		e, err := RunCtx(ctx, w, s, r.mode, r.cfg, r.sinks...)
		if err != nil {
			return err
		}
		if r.done != nil {
			r.done(e)
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
// (oracleRuns), with sinks attached to the opt run.
func RunOracleCtx(ctx context.Context, w workloads.Workload, scale int, sinks ...trace.Sink) (*core.Engine, error) {
	var e *core.Engine
	runs := oracleRuns(map[int]bool{}, nil, nil, func(opt *core.Engine) { e = opt })
	runs[2].sinks = sinks
	if err := execRuns(ctx, w, scale, runs); err != nil {
		return nil, err
	}
	return e, nil
}

// coreGroup builds a pipeline.Group of one core per config, each with an
// invariant checker when o.CheckPipe is set. check, returned by a cell's
// reduce, folds the checkers' first violation into the cell's error.
// The superscalar cells declare their one run with cells, not
// specCells: a fused claim keeps every member's sinks alive at once,
// and a core group holds 4-19 MB even on hello, so fusing them raised
// the peak RSS of a registry grid by a third while their engine runs
// are a small share of their cost.
func coreGroup(o Options, cfgs []pipeline.Config) (g *pipeline.Group, check func() error) {
	g = pipeline.NewGroup(cfgs...)
	var checks []*pipeline.Checker
	if o.CheckPipe {
		for _, c := range g.Cores() {
			checks = append(checks, c.Check())
		}
	}
	return g, func() error {
		for _, chk := range checks {
			if err := chk.Err(); err != nil {
				return err
			}
		}
		return nil
	}
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
