package harness

import (
	"context"
	"fmt"

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

// one declares a cell's single run: mode with sinks attached.
func one(mode Mode, sinks ...trace.Sink) []run { return []run{{mode: mode, sinks: sinks}} }

// Mode lists of the cells measured under one engine mode each.
var (
	interpJIT = []Mode{ModeInterp, ModeJIT}
	jitOnly   = []Mode{ModeJIT}
)

// cells adds one cell per workload × mode to p and decodes the cells'
// payloads into *rows, one slot per cell in enumeration order. A key's
// Mode is the mode's name, or label for the cells whose runs span
// several modes (modes nil: one cell per workload); its Config is
// config. decl declares a cell's engine runs and the reduce that turns
// their finished sinks into the payload. It is called afresh on every
// attempt, so a retried cell starts from empty sinks.
func cells[R any](p *Plan, o Options, list []workloads.Workload, modes []Mode, label, config string,
	rows *[]R, decl func(w workloads.Workload, mode Mode) ([]run, func() (R, error))) {
	if modes == nil {
		modes = []Mode{ModeJIT} // a placeholder: labelled runs name their own modes
	}
	*rows = make([]R, len(list)*len(modes))
	for i, w := range list {
		scale := resolveScale(o, w)
		for j, mode := range modes {
			key := CellKey{Experiment: p.experiment, Workload: w.Name, Scale: scale, Mode: mode.String(), Config: config}
			if label != "" {
				key.Mode = label
			}
			p.add(key, &(*rows)[i*len(modes)+j], func(ctx context.Context) (any, error) {
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
		}
	}
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
